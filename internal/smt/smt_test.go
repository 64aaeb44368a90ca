package smt

import (
	"testing"

	"iselgen/internal/term"
)

func TestEquivBasicIdentities(t *testing.T) {
	b := term.NewBuilder()
	x := b.Reg("x", 32)
	y := b.Reg("y", 32)
	c := &Checker{}

	cases := []struct {
		name     string
		lhs, rhs *term.Term
		want     Result
	}{
		{"sub-as-addnot", b.Sub(x, y), b.Add(b.Add(x, b.Not(y)), b.Const(32, 1)), Equal},
		{"sub-as-mulneg", b.Sub(x, y), b.Add(x, b.Mul(y, b.ConstInt(32, -1))), Equal},
		{"shl-as-mul", b.Shl(x, b.Const(32, 4)), b.Mul(x, b.Const(32, 16)), Equal},
		{"demorgan", b.Not(b.And(x, y)), b.Or(b.Not(x), b.Not(y)), Equal},
		{"xor-as-andor", b.Xor(x, y), b.And(b.Or(x, y), b.Not(b.And(x, y))), Equal},
		{"add-vs-sub", b.Add(x, y), b.Sub(x, y), NotEqual},
		{"add-vs-or", b.Add(x, y), b.Or(x, y), NotEqual},
		{"neg-not-same", b.Neg(x), b.Not(x), NotEqual},
		{"urem-pow2", b.URem(x, b.Const(32, 8)), b.And(x, b.Const(32, 7)), Equal},
		{"cmp-flip", b.Ult(x, y), b.Not(b.Not(b.Ult(x, y))), Equal},
		{"slt-via-sign", b.Slt(x, b.Const(32, 0)), b.Extract(31, 31, x), Equal},
	}
	for _, tc := range cases {
		if got := c.Equiv(b, tc.lhs, tc.rhs); got != tc.want {
			t.Errorf("%s: %v, want %v", tc.name, got, tc.want)
		}
	}
	if c.Stats.Queries != int64(len(cases)) {
		t.Errorf("queries = %d, want %d", c.Stats.Queries, len(cases))
	}
}

func TestEquivWidthMismatch(t *testing.T) {
	b := term.NewBuilder()
	x := b.Reg("x", 32)
	c := &Checker{}
	if got := c.Equiv(b, x, b.ZExt(64, x)); got != NotEqual {
		t.Errorf("width mismatch = %v", got)
	}
}

func TestEquivPointerEqualFastPath(t *testing.T) {
	b := term.NewBuilder()
	x := b.Reg("x", 32)
	y := b.Reg("y", 32)
	s := b.Add(x, y)
	c := &Checker{}
	if got := c.Equiv(b, s, b.Add(y, x)); got != Equal {
		t.Errorf("commuted add = %v", got)
	}
	if c.Stats.Conflicts != 0 {
		t.Error("fast path went to the solver")
	}
}

func TestEquivLoadsPaired(t *testing.T) {
	b := term.NewBuilder()
	base := b.Reg("base", 64)
	off := b.VarT("off", term.KindImm, 64)
	c := &Checker{}

	// load(base + off) == load(off + base): addresses provably equal.
	l1 := b.Load(32, b.Add(base, off))
	l2 := b.Load(32, b.Add(off, base))
	if got := c.Equiv(b, l1, l2); got != Equal {
		t.Errorf("commuted address loads = %v", got)
	}

	// load(base) vs load(base+8): addresses differ.
	l3 := b.Load(32, base)
	l4 := b.Load(32, b.Add(base, b.Const(64, 8)))
	if got := c.Equiv(b, l3, l4); got != NotEqual {
		t.Errorf("different address loads = %v", got)
	}

	// Load count mismatch: cannot be proven.
	if got := c.Equiv(b, b.Add(l3, l3), base); got == Equal {
		t.Errorf("load vs no-load proved equal")
	}
}

func TestEquivLoadValueFlows(t *testing.T) {
	// zext(load16(a)) + 1 on both sides, one written via arithmetic detour.
	b := term.NewBuilder()
	a := b.Reg("a", 64)
	l := b.Load(16, a)
	lhs := b.Add(b.ZExt(32, l), b.Const(32, 1))
	rhs := b.Sub(b.ZExt(32, b.Load(16, a)), b.ConstInt(32, -1))
	c := &Checker{}
	if got := c.Equiv(b, lhs, rhs); got != Equal {
		t.Errorf("load-value arithmetic = %v", got)
	}
	// Different uses of the load value must not be equal.
	rhs2 := b.Add(b.ZExt(32, l), b.Const(32, 2))
	if got := c.Equiv(b, lhs, rhs2); got != NotEqual {
		t.Errorf("off-by-one load arithmetic = %v", got)
	}
}

// TestEquivMixedWidthLoads: one builder and one checker answer an 8-bit
// paired-load query and then a 16-bit one, as a synthesis worker does
// across patterns. The variable each query substitutes for its i-th load
// pair must not collide with an earlier query's of another width.
func TestEquivMixedWidthLoads(t *testing.T) {
	b := term.NewBuilder()
	a := b.Reg("a", 64)
	c := &Checker{}
	for _, w := range []int{8, 16, 8} {
		lhs := b.Add(b.ZExt(32, b.Load(w, a)), b.Const(32, 1))
		rhs := b.Sub(b.ZExt(32, b.Load(w, a)), b.ConstInt(32, -1))
		if got := c.Equiv(b, lhs, rhs); got != Equal {
			t.Errorf("%d-bit load: %v, want equal", w, got)
		}
	}
}

func TestEquivStores(t *testing.T) {
	b := term.NewBuilder()
	addr := b.Reg("p", 64)
	v := b.Reg("v", 32)
	c := &Checker{}
	s1 := b.Store(addr, b.Add(v, v))
	s2 := b.Store(b.Add(addr, b.Const(64, 0)), b.Shl(v, b.Const(32, 1)))
	if got := c.Equiv(b, s1, s2); got != Equal {
		t.Errorf("equivalent stores = %v", got)
	}
	s3 := b.Store(b.Add(addr, b.Const(64, 4)), b.Add(v, v))
	if got := c.Equiv(b, s1, s3); got != NotEqual {
		t.Errorf("different-address stores = %v", got)
	}
	s4 := b.Store(addr, v)
	if got := c.Equiv(b, s1, s4); got != NotEqual {
		t.Errorf("different-value stores = %v", got)
	}
	// Store vs non-store.
	if got := c.Equiv(b, s1, b.Add(v, v)); got != NotEqual {
		t.Errorf("store vs value = %v", got)
	}
	// Store width mismatch.
	v16 := b.Reg("w", 16)
	if got := c.Equiv(b, b.Store(addr, v16), s4); got != NotEqual {
		t.Errorf("store width mismatch = %v", got)
	}
}

// TestCounterexample: a NotEqual verdict stores a witness binding every
// variable of both terms on which they concretely differ; a true
// identity stores none.
func TestCounterexample(t *testing.T) {
	b := term.NewBuilder()
	x := b.Reg("x", 16)
	y := b.Reg("y", 16)
	lhs := b.Add(x, y)
	rhs := b.Or(x, y)
	memo := newMapMemo()
	c := &Checker{Memo: memo}
	if got := c.Equiv(b, lhs, rhs); got != NotEqual {
		t.Fatalf("add vs or = %v, want NotEqual", got)
	}
	w := memo.Witnesses()
	if len(w) != 1 {
		t.Fatalf("memo holds %d witnesses, want 1", len(w))
	}
	env := term.NewEnv()
	for _, name := range []string{"x", "y"} {
		v, ok := w[0][name]
		if !ok {
			t.Fatalf("witness %v does not bind %s", w[0], name)
		}
		env.Bind(name, v)
	}
	if lhs.Eval(env) == rhs.Eval(env) {
		t.Errorf("bogus counterexample: %v", env.Vals)
	}
	// No counterexample for a true identity.
	if got := c.Equiv(b, b.Add(x, y), b.Xor(b.Xor(x, x), b.Add(y, x))); got != Equal {
		t.Fatalf("commutativity = %v, want Equal", got)
	}
	if n := len(memo.Witnesses()); n != 1 {
		t.Errorf("an Equal verdict added a witness: %d stored", n)
	}
}

func TestBudgetUnknown(t *testing.T) {
	// Multiplier equivalence (distributivity) is the textbook-hard case
	// for CDCL bit-blasting: with a tiny budget the checker must return
	// Unknown, never a wrong verdict; at a width the solver can settle,
	// it must prove the identity. (At production widths the synthesis
	// pipeline proves this structurally via canonicalization, mirroring
	// Z3's word-level rewriting — see package canon.)
	b := term.NewBuilder()
	x := b.Reg("x", 6)
	y := b.Reg("y", 6)
	z := b.Reg("z", 6)
	l2 := b.Mul(x, b.Add(y, z))
	r2 := b.Add(b.Mul(x, y), b.Mul(x, z))
	c := &Checker{MaxConflicts: 1}
	if got := c.Equiv(b, l2, r2); got == NotEqual {
		t.Errorf("budget run returned NotEqual for a true identity")
	}
	c2 := &Checker{}
	if got := c2.Equiv(b, l2, r2); got != Equal {
		t.Errorf("distributivity = %v, want equal", got)
	}
	if c2.Stats.TimedOut != 0 {
		t.Errorf("6-bit distributivity timed out")
	}
}
