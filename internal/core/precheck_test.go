package core_test

import (
	"testing"

	"iselgen/internal/core"
	"iselgen/internal/harness"
	"iselgen/internal/solver"
)

// riscvPool builds the riscv synthesis pool the way iselgen does.
func riscvPool(t *testing.T) *core.Synthesizer {
	t.Helper()
	s, err := harness.New("riscv")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.ExtraSequences, cfg.Verdicts = harness.ExtraSequences("riscv"), solver.New(0)
	sy := core.New(s.B, s.ISA, cfg)
	sy.BuildPool()
	return sy
}

// TestPrecheckNeverRejectsWhatProbeAccepts: the first-vector precheck
// only ever answers early what the probe would answer, over every
// candidate the riscv corpus sends to the SMT fallback.
func TestPrecheckNeverRejectsWhatProbeAccepts(t *testing.T) {
	sy := riscvPool(t)
	n, err := sy.CheckPrecheck(harness.CorpusPatterns("riscv", 0))
	if err != nil {
		t.Fatal(err)
	}
	if n.Rejected == 0 || n.Rejected == n.Visited {
		t.Fatalf("precheck rejected %d of %d candidates: the check compared nothing", n.Rejected, n.Visited)
	}
	t.Logf("precheck rejected %d of %d candidates", n.Rejected, n.Visited)
}

// TestVector0DigestsMatchPrograms: an entry's vector-0 digest is the
// same whether the shared evaluator or the entry's compiled program
// computes it, for every riscv pool entry.
func TestVector0DigestsMatchPrograms(t *testing.T) {
	n, err := riscvPool(t).CheckVector0()
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("empty pool: nothing compared")
	}
}
