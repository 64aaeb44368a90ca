package smt

import (
	"sync"
	"testing"

	"iselgen/internal/bv"
	"iselgen/internal/term"
)

// mapMemo is the simplest possible Memo: a locked map. The property
// tests use it instead of internal/solver to keep the dependency
// direction clean (solver imports smt, not the other way around).
type mapMemo struct {
	mu  sync.Mutex
	m   map[string]MemoEntry
	wit []map[string]bv.BV
}

func newMapMemo() *mapMemo { return &mapMemo{m: map[string]MemoEntry{}} }

func (m *mapMemo) Lookup(key string) (MemoEntry, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.m[key]
	return e, ok
}

func (m *mapMemo) Store(key string, e MemoEntry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.m[key] = e
	if e.Verdict == NotEqual && len(e.Cex) > 0 {
		m.wit = append(m.wit, e.Cex)
	}
}

func (m *mapMemo) Witnesses() []map[string]bv.BV {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.wit[:len(m.wit):len(m.wit)]
}

// pairGen builds small random 8-bit term pairs. Width 8 keeps each
// bit-blast microseconds so the property test can afford ~1k fresh
// solves; the memo key and trust policy are width-independent.
type pairGen struct {
	b    *term.Builder
	rng  *bv.RNG
	vars []*term.Term
}

func (g *pairGen) gen(depth int) *term.Term {
	if depth == 0 || g.rng.Intn(4) == 0 {
		if g.rng.Intn(3) == 0 {
			return g.b.ConstInt(8, int64(g.rng.Intn(256)))
		}
		return g.vars[g.rng.Intn(len(g.vars))]
	}
	x := g.gen(depth - 1)
	switch g.rng.Intn(7) {
	case 0:
		return g.b.Add(x, g.gen(depth-1))
	case 1:
		return g.b.Sub(x, g.gen(depth-1))
	case 2:
		return g.b.And(x, g.gen(depth-1))
	case 3:
		return g.b.Or(x, g.gen(depth-1))
	case 4:
		return g.b.Xor(x, g.gen(depth-1))
	case 5:
		return g.b.Not(x)
	default:
		return g.b.Neg(x)
	}
}

// TestMemoVerdictsMatchFreshSolves is the memoization soundness
// property: for ~1k random term pairs, the verdict a memoized checker
// returns equals the verdict a fresh bit-blast returns — on first
// contact (store path), on repeat queries (trust path), and after the
// spec fingerprint changes (downgrade path). Equal may never survive a
// fingerprint change untested.
func TestMemoVerdictsMatchFreshSolves(t *testing.T) {
	const pairs = 1000
	b := term.NewBuilder()
	rng := bv.NewRNG(0x5eed)
	g := &pairGen{b: b, rng: rng, vars: []*term.Term{
		b.Reg("x", 8), b.Reg("y", 8), b.Reg("z", 8),
	}}

	memo := newMapMemo()
	memoed := &Checker{Memo: memo, SpecFP: "spec-v1"}
	fresh := &Checker{}

	type pair struct{ l, r *term.Term }
	var ps []pair
	for i := 0; i < pairs; i++ {
		l := g.gen(3)
		var r *term.Term
		if rng.Intn(2) == 0 {
			// Equivalence-preserving rewrite: x ^ x ^ l == l, so Equal
			// verdicts are well represented, not just random NotEquals.
			v := g.vars[rng.Intn(len(g.vars))]
			r = b.Xor(b.Xor(v, v), l)
		} else {
			r = g.gen(3)
		}
		ps = append(ps, pair{l, r})
		if got, want := memoed.Equiv(b, l, r), fresh.Equiv(b, l, r); got != want {
			t.Fatalf("pair %d: memoized=%v fresh=%v\nlhs: %s\nrhs: %s", i, got, want, l, r)
		}
	}

	// Second pass, same checker: every settled verdict must now come
	// from the memo, and still match a fresh solve.
	before := memoed.Stats
	for i, p := range ps {
		if got, want := memoed.Equiv(b, p.l, p.r), fresh.Equiv(b, p.l, p.r); got != want {
			t.Fatalf("repeat pair %d: memoized=%v fresh=%v", i, got, want)
		}
	}
	if hits := memoed.Stats.MemoHits - before.MemoHits; hits == 0 {
		t.Fatal("repeat pass produced no memo hits")
	}
	if blasts := memoed.Stats.BitBlasts - before.BitBlasts; blasts != 0 {
		t.Fatalf("repeat pass bit-blasted %d times; all verdicts were already settled", blasts)
	}

	// Simulated spec change: same memo, different fingerprint. Equal
	// entries must not be trusted (the downgrade path re-solves), and
	// verdicts must still match fresh solves throughout.
	changed := &Checker{Memo: memo, SpecFP: "spec-v2"}
	reBlasted := false
	for i, p := range ps {
		b0, f0 := changed.Stats.BitBlasts, fresh.Stats.BitBlasts
		got, want := changed.Equiv(b, p.l, p.r), fresh.Equiv(b, p.l, p.r)
		if got != want {
			t.Fatalf("post-fingerprint-change pair %d: memoized=%v fresh=%v", i, got, want)
		}
		// A builder-simplified pair is Equal with zero solver work even
		// fresh; only pairs the fresh checker had to blast must be
		// re-blasted instead of trusted from the stale memo.
		if want == Equal && fresh.Stats.BitBlasts > f0 && changed.Stats.BitBlasts == b0 {
			t.Fatalf("pair %d: stale Equal verdict trusted across a fingerprint change", i)
		}
	}
	if changed.Stats.BitBlasts > 0 {
		reBlasted = true
	}
	if !reBlasted {
		t.Fatal("fingerprint change triggered no re-solves at all")
	}
}

// TestMemoStaleNotEqualNeedsWitness pins the degraded trust path: a
// NotEqual entry under a stale fingerprint is reusable only because its
// stored counterexample still concretely separates the pair — an entry
// with no witness is ignored.
func TestMemoStaleNotEqualNeedsWitness(t *testing.T) {
	b := term.NewBuilder()
	x := b.Reg("x", 8)
	l, r := x, b.Add(x, b.ConstInt(8, 1)) // x != x+1

	memo := newMapMemo()
	c1 := &Checker{Memo: memo, SpecFP: "spec-v1"}
	if got := c1.Equiv(b, l, r); got != NotEqual {
		t.Fatalf("verdict = %v, want NotEqual", got)
	}
	if len(memo.m) != 1 {
		t.Fatalf("memo holds %d entries, want 1", len(memo.m))
	}
	var key string
	var e MemoEntry
	for k, v := range memo.m {
		key, e = k, v
	}
	if len(e.Cex) == 0 {
		t.Fatal("NotEqual stored without a counterexample witness")
	}

	// With the witness and a stale fingerprint the refutation replays
	// concretely — no new bit-blast.
	c2 := &Checker{Memo: memo, SpecFP: "spec-v2"}
	if got := c2.Equiv(b, l, r); got != NotEqual {
		t.Fatalf("stale-witness verdict = %v, want NotEqual", got)
	}
	if c2.Stats.BitBlasts != 0 {
		t.Fatalf("witness replay bit-blasted %d times, want 0", c2.Stats.BitBlasts)
	}

	// Strip the witness (and the screen's copy of it): the stale entry
	// must now be worthless and the checker must solve from scratch.
	e.Cex = nil
	memo.m[key] = e
	memo.wit = nil
	c3 := &Checker{Memo: memo, SpecFP: "spec-v3"}
	if got := c3.Equiv(b, l, r); got != NotEqual {
		t.Fatalf("witnessless verdict = %v, want NotEqual", got)
	}
	if c3.Stats.BitBlasts == 0 {
		t.Fatal("witnessless stale entry was trusted without re-solving")
	}
}

// TestMemoUnknownBudgetPolicy pins Unknown reuse: a timeout under
// budget B answers any query with budget <= B, but a larger budget must
// re-search; structural Unknowns (UnsupportedBudget) hold at any budget.
func TestMemoUnknownBudgetPolicy(t *testing.T) {
	c := &Checker{SpecFP: "fp"}
	goals := [][2]*term.Term{}

	small := MemoEntry{Verdict: Unknown, SpecFP: "fp", Budget: 100}
	if _, ok := c.memoTrusted(small, 1000, goals); ok {
		t.Fatal("Unknown under a smaller budget trusted for a larger search")
	}
	if v, ok := c.memoTrusted(small, 100, goals); !ok || v != Unknown {
		t.Fatalf("Unknown at equal budget: %v, %v", v, ok)
	}
	structural := MemoEntry{Verdict: Unknown, SpecFP: "fp", Budget: UnsupportedBudget}
	if v, ok := c.memoTrusted(structural, 1<<40, goals); !ok || v != Unknown {
		t.Fatalf("structural Unknown not trusted: %v, %v", v, ok)
	}
}
