//go:build race

package core

// RaceEnabled mirrors the race detector's build tag so heavyweight
// stress tests can trim their matrices under -race.
const RaceEnabled = true
