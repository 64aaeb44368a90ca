package trie

// RefLookup exposes the all-edges reference search to the external
// tests, which build real target indexes through internal/core.
var RefLookup = refLookup
