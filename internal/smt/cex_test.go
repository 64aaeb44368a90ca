package smt

import (
	"math/rand"
	"testing"

	"iselgen/internal/term"
)

// genTerm builds a random 32-bit term over the shared variable
// vocabulary — the shape of synthesis candidates (same leaves, different
// operator structure), which is what makes counterexamples transfer.
func genTerm(b *term.Builder, rng *rand.Rand, vars []*term.Term, depth int) *term.Term {
	if depth == 0 || rng.Intn(4) == 0 {
		if rng.Intn(4) == 0 {
			return b.Const(32, uint64(rng.Intn(64)))
		}
		return vars[rng.Intn(len(vars))]
	}
	x := genTerm(b, rng, vars, depth-1)
	y := genTerm(b, rng, vars, depth-1)
	switch rng.Intn(8) {
	case 0:
		return b.Add(x, y)
	case 1:
		return b.Sub(x, y)
	case 2:
		return b.And(x, y)
	case 3:
		return b.Or(x, y)
	case 4:
		return b.Xor(x, y)
	case 5:
		return b.Not(x)
	case 6:
		return b.Neg(x)
	default:
		return b.Shl(x, b.Const(32, uint64(rng.Intn(8))))
	}
}

func fuzzPairs(t *testing.T) (*term.Builder, [][2]*term.Term) {
	t.Helper()
	b := term.NewBuilder()
	vars := []*term.Term{b.Reg("x", 32), b.Reg("y", 32), b.Reg("z", 32)}
	rng := rand.New(rand.NewSource(20260808))
	n := 1000
	if testing.Short() {
		n = 200
	}
	pairs := make([][2]*term.Term, n)
	for i := range pairs {
		pairs[i] = [2]*term.Term{
			genTerm(b, rng, vars, 3),
			genTerm(b, rng, vars, 3),
		}
	}
	return b, pairs
}

// TestCexWitnessSeparatesProducingPair checks the screen's core
// invariant: every witness the memo publishes for a NotEqual verdict
// concretely separates the pair that produced it, so screening that same
// pair rejects it without a solver.
func TestCexWitnessSeparatesProducingPair(t *testing.T) {
	b, pairs := fuzzPairs(t)
	notEqual := 0
	for i, p := range pairs {
		if len(p[0].Vars()) == 0 && len(p[1].Vars()) == 0 {
			// Two constants: a refutation carries the empty assignment,
			// which there is nothing to store.
			continue
		}
		memo := newMapMemo() // fresh per pair: no screening on the first query
		c := &Checker{Memo: memo}
		res := c.Equiv(b, p[0], p[1])
		if res != NotEqual {
			continue
		}
		notEqual++
		if len(memo.Witnesses()) == 0 {
			t.Fatalf("pair %d: NotEqual verdict stored no counterexample", i)
		}
		if _, ok := refuting(memo.Witnesses(), [][2]*term.Term{p}); !ok {
			t.Fatalf("pair %d: stored witness does not separate its producing pair\nlhs=%s\nrhs=%s",
				i, p[0], p[1])
		}
	}
	if notEqual == 0 {
		t.Fatal("fuzz generated no refutable pairs — the property was never exercised")
	}
}

// TestCexScreenPreservesVerdicts checks verdict preservation: a checker
// screening against an increasingly hot memo must return exactly the
// verdict a memo-free checker computes via the solver, for every pair.
// This is the determinism argument for the synthesis pipeline — the
// screen can only short-circuit NotEqual, never displace Equal.
func TestCexScreenPreservesVerdicts(t *testing.T) {
	b, pairs := fuzzPairs(t)
	screened := &Checker{Memo: newMapMemo()}
	fresh := &Checker{}
	for i, p := range pairs {
		got := screened.Equiv(b, p[0], p[1])
		want := fresh.Equiv(b, p[0], p[1])
		if got != want {
			t.Fatalf("pair %d: screened verdict %v, solver verdict %v\nlhs=%s\nrhs=%s",
				i, got, want, p[0], p[1])
		}
	}
	if screened.Stats.CexScreens == 0 {
		t.Fatal("no queries were screened")
	}
	if screened.Stats.CexHits == 0 {
		t.Fatal("no screen hits across the fuzz corpus — the screen never engaged")
	}
	if fresh.Stats.CexScreens != 0 {
		t.Fatalf("memo-free checker screened %d queries, want 0", fresh.Stats.CexScreens)
	}
}
