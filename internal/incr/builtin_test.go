package incr

import (
	"slices"
	"testing"

	"iselgen/internal/core"
	"iselgen/internal/harness"
	"iselgen/internal/isel"
	"iselgen/internal/solver"
)

// TestBuiltinNoOpResynthesis is the floor of incremental cost on a real
// target: a builtin target resynthesized from its own full-synthesis
// artifact reuses every rule and synthesizes nothing — no solver query,
// no full-pool stage — and yields the same rule lines.
func TestBuiltinNoOpResynthesis(t *testing.T) {
	names := []string{"riscv", "aarch64"}
	if testing.Short() {
		names = names[:1]
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			s, err := harness.New(name)
			if err != nil {
				t.Fatal(err)
			}
			cfg := core.DefaultConfig()
			cfg.Verdicts = solver.New(0)
			lib := s.Synthesize(cfg, 0)
			art, err := ParseArtifact(isel.SaveLibraryFor(lib, s.ISA))
			if err != nil {
				t.Fatal(err)
			}

			s2, err := harness.New(name)
			if err != nil {
				t.Fatal(err)
			}
			cfg.ExtraSequences = harness.ExtraSequences(name)
			lib2, rep, err := Resynthesize(s2.B, s2.ISA, art,
				Options{Config: cfg, Patterns: harness.CorpusPatterns(name, 0)})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Reused != lib.Len() || rep.Resynthesized != 0 || rep.SMTQueries != 0 || rep.FullPool {
				t.Errorf("no-op resynthesis of %d rules did work: reused %d, resynthesized %d, %d SMT queries, full pool %v",
					lib.Len(), rep.Reused, rep.Resynthesized, rep.SMTQueries, rep.FullPool)
			}
			if !slices.Equal(ruleSet(lib2), ruleSet(lib)) {
				t.Errorf("no-op library (%d rules) differs from the original (%d rules)", lib2.Len(), lib.Len())
			}
		})
	}
}
