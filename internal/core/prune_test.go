package core

import (
	"fmt"
	"testing"

	"iselgen/internal/isa"
	"iselgen/internal/targets"
	"iselgen/internal/term"
)

// pruneRun is one enumeration of a target's pairs.
type pruneRun struct {
	s            *Synthesizer
	compositions int // pairs pairs() accepted, pruned ones included
	built        int // pairs actually constructed
	dropped      int // built pairs that addEntry then dropped
}

// runPairs loads a fresh copy of the target and feeds its singles and
// pairs, serially, through addEntry, with or without the prune.
func runPairs(t *testing.T, load func(*term.Builder) (*isa.Target, error), cfg Config, prune bool) *pruneRun {
	t.Helper()
	b := term.NewBuilder()
	tgt, err := load(b)
	if err != nil {
		t.Fatal(err)
	}
	r := &pruneRun{s: New(b, tgt, cfg)}
	bases := r.s.singles(r.s.addEntry)
	r.compositions = r.s.pairs(bases, prune, func(seq *isa.Sequence) {
		r.built++
		n := len(r.s.Pool)
		r.s.addEntry(seq)
		if len(r.s.Pool) == n {
			r.dropped++
		}
	})
	return r
}

// entryKey identifies a pool entry across builders: the composition
// and its canonical form (canon IDs follow insertion order, so equal
// IDs also mean equal insertion histories).
func entryKey(e *PoolEntry) string {
	return fmt.Sprintf("%s %v %v|%d/%d/%d/%d/%s|%d %x",
		e.Seq, e.Seq.Wirings, e.Seq.FixedImms,
		e.Class, e.Width, e.NRegs, e.NImms, e.LoadSig, e.CT.ID, e.CT.Hash)
}

func samePools(t *testing.T, got, want []*PoolEntry) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("pool has %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if g, w := entryKey(got[i]), entryKey(want[i]); g != w {
			t.Fatalf("pool entry %d: got %s, want %s", i, g, w)
		}
	}
}

// TestPruneMatchesBuild builds every pair of every builtin target both
// ways, pruned and fully built, and requires the same pool, entry for
// entry. On the builtin targets the prune must also be exact: every pair
// addEntry would drop is skipped before construction. The pruned side
// also runs through BuildPool, so the overlapped enumerator and entry
// builder run on real targets (and under the race detector in CI).
func TestPruneMatchesBuild(t *testing.T) {
	for _, bt := range targets.All() {
		t.Run(bt.Name, func(t *testing.T) {
			if RaceEnabled && bt.Name == "aarch64" {
				// Three aarch64 pools take ~15 s under the race detector;
				// riscv and x86 cover the overlapped build there.
				t.Skip("aarch64 is checked without -race")
			}
			cfg := Config{TestInputs: 8, Workers: 1}
			full := runPairs(t, bt.Load, cfg, false)
			pruned := runPairs(t, bt.Load, cfg, true)
			if pruned.compositions != full.compositions {
				t.Errorf("pruned run counts %d compositions, full run %d", pruned.compositions, full.compositions)
			}
			samePools(t, pruned.s.Pool, full.s.Pool)
			skipped := pruned.compositions - pruned.built
			t.Logf("%d compositions: %d dropped when built, %d skipped by the prune, %d built and dropped anyway",
				full.compositions, full.dropped, skipped, pruned.dropped)
			if pruned.dropped != 0 {
				t.Errorf("prune is not exact: %d pairs built only to be dropped", pruned.dropped)
			}

			// The overlapped stage 1 keeps the serial pool order too.
			b := term.NewBuilder()
			tgt, err := bt.Load(b)
			if err != nil {
				t.Fatal(err)
			}
			s := New(b, tgt, cfg)
			s.BuildPool()
			if want := len(tgt.Insts) + full.compositions; s.Stats.Sequences != want {
				t.Errorf("Stats.Sequences = %d, want %d", s.Stats.Sequences, want)
			}
			samePools(t, s.Pool, full.s.Pool)
		})
	}
}

// foldSpec has a flag-reading instruction whose result a later
// instruction can fold away: the high half of CSETeq's zero-extended
// flag is constant zero, so CSETeq ; HI32 reads no flag and is kept,
// while CSETeq ; LO32 keeps the flag and is pruned.
const foldSpec = `
inst SUBSrr(rn: reg64, rm: reg64) {
  let res = rn - rm;
  rd = res;
  flags.Z = res == 0;
}
inst CSETeq() { rd = zext(flags.Z, 64); }
inst HI32(rn: reg64) { rd = zext(extract(rn, 63, 32), 64); }
inst LO32(rn: reg64) { rd = zext(extract(rn, 31, 0), 64); }
`

// TestPruneKeepsFoldErasedFlag checks the prune's caution: a pair whose
// flag-carrying subterm a builder fold erases is still built.
func TestPruneKeepsFoldErasedFlag(t *testing.T) {
	load := func(b *term.Builder) (*isa.Target, error) {
		return isa.LoadTarget(b, "fold", foldSpec, nil, 4)
	}
	cfg := Config{TestInputs: 8, Workers: 1}
	full := runPairs(t, load, cfg, false)
	pruned := runPairs(t, load, cfg, true)
	samePools(t, pruned.s.Pool, full.s.Pool)
	if pruned.dropped != 0 {
		t.Errorf("%d pairs built only to be dropped", pruned.dropped)
	}
	var hi, lo bool
	for _, e := range pruned.s.Pool {
		switch e.Seq.String() {
		case "CSETeq ; HI32":
			hi = true
			if !e.Effect.T.IsConst() || len(e.Seq.Inputs) != 0 {
				t.Errorf("CSETeq ; HI32 = %s over %d inputs, want a constant", e.Effect.T, len(e.Seq.Inputs))
			}
		case "CSETeq ; LO32":
			lo = true
		}
	}
	if !hi {
		t.Error("CSETeq ; HI32 is missing from the pool: the prune skipped a pair whose flag read folds away")
	}
	if lo {
		t.Error("CSETeq ; LO32 entered the pool, but it reads flags.Z")
	}
	if skipped := pruned.compositions - pruned.built; skipped == 0 {
		t.Error("nothing was pruned")
	}
}

// TestPrunePoolFilter checks that asking Config.PoolFilter before a pair
// is built keeps the same reduced pool the incremental planner gets
// when every pair is built and filtered afterwards.
func TestPrunePoolFilter(t *testing.T) {
	bt, err := targets.Lookup("riscv")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{TestInputs: 8, Workers: 1}
	cfg.PoolFilter = func(insts []*isa.Instruction) bool {
		for _, inst := range insts {
			if inst.Name == "ADDI" || inst.Name == "SLLI" {
				return true
			}
		}
		return false
	}
	full := runPairs(t, bt.Load, cfg, false)
	pruned := runPairs(t, bt.Load, cfg, true)
	if pruned.compositions != full.compositions {
		t.Errorf("pruned run counts %d compositions, full run %d", pruned.compositions, full.compositions)
	}
	samePools(t, pruned.s.Pool, full.s.Pool)
	if pruned.dropped != 0 {
		t.Errorf("%d pairs built only to be dropped", pruned.dropped)
	}
	if len(full.s.Pool) == 0 {
		t.Fatal("the filter left an empty pool")
	}
}
