package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"iselgen/internal/core"
	"iselgen/internal/isel"
	"iselgen/internal/solver"
)

// pinnedLibraries holds the SHA-256 of the rule library that
// `iselgen -target <name> -rules out` saves for each selecting builtin
// target. A change to the synthesizer that alters any rule, rule cost
// or instruction fingerprint fails here; a change that means to alter
// the rules updates the pin and says so.
var pinnedLibraries = map[string]string{
	"aarch64": "fa131bf47f2430f0c4384165b8d494a051acfe80ce0788a9f8ce9ad8814b0320",
	"riscv":   "11d5253b525f4e39273ba535f6f631159d54bb795f610c176366159bf635be5b",
}

// TestBuiltinLibrariesPinned synthesizes each pinned target the way
// iselgen does — default configuration, the full corpus, an empty
// verdict memo — and compares the saved library's hash with the pin. It
// also checks the Table II breakdown iselgen prints beside it.
func TestBuiltinLibrariesPinned(t *testing.T) {
	for name, want := range pinnedLibraries {
		t.Run(name, func(t *testing.T) {
			s, err := New(name)
			if err != nil {
				t.Fatal(err)
			}
			cfg := core.DefaultConfig()
			cfg.Verdicts = solver.New(0)
			lib := s.Synthesize(cfg, 0)
			sum := sha256.Sum256([]byte(isel.SaveLibraryFor(lib, s.ISA)))
			if got := hex.EncodeToString(sum[:]); got != want {
				t.Errorf("saved %s library (%d rules) hashes to %s, pinned %s", name, lib.Len(), got, want)
			}
			if out := s.TableII(lib); !strings.Contains(out, "Index Lookup") {
				t.Errorf("iselgen's Table II breakdown lacks its Index Lookup row:\n%s", out)
			}
		})
	}
}
