package core_test

import (
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"iselgen/internal/core"
	"iselgen/internal/harness"
	"iselgen/internal/isel"
	"iselgen/internal/solver"
)

// ruleLines extracts the sorted rule-line fingerprint set from a saved
// artifact (header lines carry provenance, rule lines are content-only).
func ruleLines(artifact string) []string {
	var out []string
	for _, ln := range strings.Split(artifact, "\n") {
		if ln == "" || strings.HasPrefix(ln, "#") {
			continue
		}
		out = append(out, ln)
	}
	sort.Strings(out)
	return out
}

// TestWorkerCountDeterminism is the schedule-independence stress test:
// full synthesis of each builtin target at several worker-pool widths
// must produce the same library — same rule fingerprint set and a
// byte-identical saved artifact. Every run gets an empty verdict memo,
// but within a run the fill order of its verdicts and screen
// witnesses varies with scheduling, so this also exercises the screen's
// verdict preservation.
func TestWorkerCountDeterminism(t *testing.T) {
	targets := []string{"riscv", "aarch64"}
	workerSet := []int{1, 2, 8, runtime.NumCPU()}
	maxPatterns := 0
	if testing.Short() || core.RaceEnabled {
		// The race detector multiplies synthesis cost; keep the
		// cross-worker comparison but trim the matrix and the corpus.
		targets = targets[:1]
		workerSet = []int{1, runtime.NumCPU()}
		maxPatterns = 24
	}
	for _, name := range targets {
		t.Run(name, func(t *testing.T) {
			var refWorkers int
			var refArt string
			var refFPs []string
			for i, w := range workerSet {
				s, err := harness.New(name)
				if err != nil {
					t.Fatal(err)
				}
				cfg := core.DefaultConfig()
				cfg.Workers, cfg.Verdicts = w, solver.New(0)
				lib := s.Synthesize(cfg, maxPatterns)
				art := isel.SaveLibraryFor(lib, s.ISA)
				if i == 0 {
					refWorkers, refArt, refFPs = w, art, ruleLines(art)
					continue
				}
				if !slices.Equal(ruleLines(art), refFPs) {
					t.Errorf("Workers=%d: rule fingerprint set differs from Workers=%d (%d vs %d rules)",
						w, refWorkers, len(ruleLines(art)), len(refFPs))
				}
				if art != refArt {
					t.Errorf("Workers=%d: saved artifact is not byte-identical to Workers=%d",
						w, refWorkers)
				}
			}
		})
	}
}
