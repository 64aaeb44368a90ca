package harness

// PinnedLibraries exposes the library pins to the external tests, so the
// hashes stay in one place.
var PinnedLibraries = pinnedLibraries
