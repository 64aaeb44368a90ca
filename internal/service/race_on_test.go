//go:build race

package service

// raceEnabled mirrors the race detector's build tag: the race runtime
// allocates on its own and drops sync.Pool items at random, so
// allocation counts are only exact without it.
const raceEnabled = true
