package core_test

import (
	"runtime"
	"testing"

	"iselgen/internal/core"
	"iselgen/internal/harness"
	"iselgen/internal/rules"
	"iselgen/internal/solver"
)

// riscvPoolAllocMB bounds the bytes a riscv BuildPool allocates: 12.5
// MB once isa.AppendCache.Append sized each sequence's inputs exactly
// (13.0 MB before, 19.6 MB before stage 1 allocated only on a miss),
// plus 15%. A term, canonical form or trie map built again per lookup
// shows up here first.
const riscvPoolAllocMB = 12.5 * 1.15

// TestBuildPoolAllocations pins stage 1's garbage on riscv.
func TestBuildPoolAllocations(t *testing.T) {
	s, err := harness.New("riscv")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.ExtraSequences = harness.ExtraSequences("riscv")
	sy := core.New(s.B, s.ISA, cfg)
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	sy.BuildPool()
	runtime.ReadMemStats(&m1)
	mb := float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	t.Logf("riscv BuildPool allocated %.2f MB for %d entries", mb, len(sy.Pool))
	if mb > riscvPoolAllocMB {
		t.Errorf("riscv BuildPool allocated %.2f MB, bound %.2f MB", mb, riscvPoolAllocMB)
	}
}

// TestProbeTimeExact checks the fallback's timers on one worker: every
// stage timer is booked exactly once, so they cannot add up to more than
// the match stage's wall time, and the probe's share is measured at all.
func TestProbeTimeExact(t *testing.T) {
	s, err := harness.New("riscv")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Workers, cfg.Verdicts = 1, solver.New(0)
	cfg.ExtraSequences = harness.ExtraSequences("riscv")
	sy := core.New(s.B, s.ISA, cfg)
	sy.BuildPool()
	sy.Synthesize(harness.CorpusPatterns("riscv", 0), rules.NewLibrary("riscv"))
	st := sy.Stats
	if st.ProbeTime <= 0 {
		t.Errorf("ProbeTime = %v, want > 0", st.ProbeTime)
	}
	if sum := st.IndexLookupT + st.ProbeTime + st.EvalTime + st.SMTTime; sum > st.LookupTime {
		t.Errorf("lookup %v + probe %v + eval %v + SMT %v = %v exceeds the match stage's %v",
			st.IndexLookupT, st.ProbeTime, st.EvalTime, st.SMTTime, sum, st.LookupTime)
	}
}
