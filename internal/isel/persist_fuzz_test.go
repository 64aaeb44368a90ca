package isel

import (
	"strings"
	"testing"

	"iselgen/internal/isa/aarch64"
	"iselgen/internal/term"
)

// FuzzLoadLibrary holds the artifact loader, which parses every library
// read from disk or fetched from a peer, to its contract: no input
// panics, and any text that loads reaches a fixed point within two
// rounds of save and load.
//
//	go test ./internal/isel -run XXX -fuzz FuzzLoadLibrary
func FuzzLoadLibrary(f *testing.F) {
	b := term.NewBuilder()
	tgt, err := aarch64.Load(b)
	if err != nil {
		f.Fatal(err)
	}
	text := SaveLibraryFor(buildA64Handwritten(b, tgt, true), tgt)
	f.Add(text)
	for _, line := range strings.Split(text, "\n") {
		if line != "" {
			f.Add(line)
		}
	}
	f.Fuzz(func(t *testing.T, text string) {
		if len(text) > 1<<16 {
			t.Skip("oversized input")
		}
		lib, err := LoadLibrary(b, tgt, text)
		if err != nil {
			return
		}
		saved := []string{SaveLibraryFor(lib, tgt)}
		for round := 1; round <= 2; round++ {
			again, err := LoadLibrary(b, tgt, saved[round-1])
			if err != nil {
				t.Fatalf("round %d: saved library does not load: %v\n%s", round, err, saved[round-1])
			}
			saved = append(saved, SaveLibraryFor(again, tgt))
		}
		if saved[1] != saved[2] {
			t.Fatalf("no fixed point after two rounds of save and load:\n--- round 1 ---\n%s\n--- round 2 ---\n%s", saved[1], saved[2])
		}
	})
}
