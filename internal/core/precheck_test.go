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

// TestPrecheckNeverRejectsWhatProbeAccepts: the leading-vector
// precheck only ever answers early what the probe would answer, over
// every candidate the riscv corpus sends to the SMT fallback. Some of
// its rejections must come from a memoized vector after the first, or
// the vectors past the first were never compared.
func TestPrecheckNeverRejectsWhatProbeAccepts(t *testing.T) {
	sy := riscvPool(t)
	n, err := sy.CheckPrecheck(harness.CorpusPatterns("riscv", 0))
	if err != nil {
		t.Fatal(err)
	}
	if n.Rejected == 0 || n.Rejected == n.Visited {
		t.Fatalf("precheck rejected %d of %d candidates: the check compared nothing", n.Rejected, n.Visited)
	}
	if n.RejectedLater == 0 {
		t.Fatalf("precheck rejected no candidate whose first usable vector matched: vectors past the first were never compared")
	}
	t.Logf("precheck rejected %d of %d candidates, %d of them after the first vector matched",
		n.Rejected, n.Visited, n.RejectedLater)
}

// TestVectorMemosMatchPrograms: an entry's digests on the memoized
// vectors are the same whether a worker's vector memos or the entry's
// compiled program computes them, for every riscv and aarch64 pool
// entry.
func TestVectorMemosMatchPrograms(t *testing.T) {
	for _, target := range []string{"riscv", "aarch64"} {
		t.Run(target, func(t *testing.T) {
			s, err := harness.New(target)
			if err != nil {
				t.Fatal(err)
			}
			cfg := core.DefaultConfig()
			cfg.ExtraSequences = harness.ExtraSequences(target)
			sy := core.New(s.B, s.ISA, cfg)
			sy.BuildPool()
			n, err := sy.CheckVectorMemos()
			if err != nil {
				t.Fatal(err)
			}
			if n.Compared == 0 {
				t.Fatal("empty pool: nothing compared")
			}
			t.Logf("%d digests compared, %d of %d entries compiled", n.Compared, n.Compiled, len(sy.Pool))
		})
	}
}
