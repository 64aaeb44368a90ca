package canon

import (
	"testing"

	"iselgen/internal/bv"
	"iselgen/internal/term"
)

func setup() (*term.Builder, *Ctx) {
	return term.NewBuilder(), NewCtx()
}

// TestFigure4 reproduces the paper's running example: the two
// syntactically different subtraction terms
//
//	(bvadd a (bvnot b) 1)   and   (bvadd a (bvmul #xffff b))
//
// must canonicalize to the same representation a + (-1)·b.
func TestFigure4(t *testing.T) {
	b, cx := setup()
	a := b.Reg("a", 16)
	bb := b.Reg("b", 16)
	t1 := b.Add(b.Add(a, b.Not(bb)), b.Const(16, 1))
	t2 := b.Add(a, b.Mul(b.ConstInt(16, -1), bb))
	c1 := cx.Canon(t1)
	c2 := cx.Canon(t2)
	if c1 != c2 {
		t.Fatalf("Figure 4 forms differ:\n  %s\n  %s", c1, c2)
	}
	if c1 != cx.Canon(b.Sub(a, bb)) {
		t.Errorf("bvsub canonical form differs: %s", c1)
	}
	if c1.Kind != Lin || len(c1.Addends) != 2 {
		t.Errorf("expected 2-addend linear combination, got %s", c1)
	}
}

func TestRuleI_AddMerging(t *testing.T) {
	b, cx := setup()
	x := b.Reg("x", 32)
	y := b.Reg("y", 32)
	// (x+y)+x == y+2x
	lhs := b.Add(b.Add(x, y), x)
	rhs := b.Add(y, b.Mul(b.Const(32, 2), x))
	if cx.Canon(lhs) != cx.Canon(rhs) {
		t.Errorf("x+y+x != y+2x: %s vs %s", cx.Canon(lhs), cx.Canon(rhs))
	}
	// Cancellation: (x+y)-y == x collapses to the atom itself.
	if got := cx.Canon(b.Sub(b.Add(x, y), y)); got != cx.Canon(x) {
		t.Errorf("x+y-y = %s, want atom x", got)
	}
}

func TestRuleII_Not(t *testing.T) {
	b, cx := setup()
	x := b.Reg("x", 8)
	// ¬x == -1 - x == 255 + 255·x mod 256
	got := cx.Canon(b.Not(x))
	want := cx.Canon(b.Sub(b.ConstInt(8, -1), x))
	if got != want {
		t.Errorf("¬x = %s, want %s", got, want)
	}
}

func TestRuleIII_Concat(t *testing.T) {
	b, cx := setup()
	x := b.Reg("x", 8)
	y := b.Reg("y", 8)
	// concat(x, y) == 256·x + y when y is atomic.
	got := cx.Canon(b.Concat(x, y))
	want := cx.Canon(b.Add(b.Mul(b.Const(16, 256), b.ZExt(16, x)), b.ZExt(16, y)))
	if got != want {
		t.Errorf("concat = %s, want %s", got, want)
	}
}

func TestRuleIV_V_MulDistribution(t *testing.T) {
	b, cx := setup()
	x := b.Reg("x", 32)
	y := b.Reg("y", 32)
	z := b.Reg("z", 32)
	// x*(y+z) == x*y + x*z — the identity that is hard for plain SAT.
	lhs := b.Mul(x, b.Add(y, z))
	rhs := b.Add(b.Mul(x, y), b.Mul(x, z))
	if cx.Canon(lhs) != cx.Canon(rhs) {
		t.Errorf("distributivity: %s vs %s", cx.Canon(lhs), cx.Canon(rhs))
	}
	// 3*(x+2) == 3x+6 (constants fold into K).
	l2 := b.Mul(b.Const(32, 3), b.Add(x, b.Const(32, 2)))
	r2 := b.Add(b.Mul(b.Const(32, 3), x), b.Const(32, 6))
	if cx.Canon(l2) != cx.Canon(r2) {
		t.Errorf("const distribution: %s vs %s", cx.Canon(l2), cx.Canon(r2))
	}
	// Commutativity of the opaque product.
	if cx.Canon(b.Mul(x, y)) != cx.Canon(b.Mul(y, x)) {
		t.Error("mul not commutative in canonical form")
	}
}

func TestRuleVI_ShlAsCoefficient(t *testing.T) {
	b, cx := setup()
	x := b.Reg("x", 32)
	// x<<3 == 8x == x*8
	forms := []*term.Term{
		b.Shl(x, b.Const(32, 3)),
		b.Mul(x, b.Const(32, 8)),
		b.Add(b.Mul(x, b.Const(32, 4)), b.Mul(x, b.Const(32, 4))),
	}
	c0 := cx.Canon(forms[0])
	for i, f := range forms[1:] {
		if cx.Canon(f) != c0 {
			t.Errorf("form %d: %s != %s", i+1, cx.Canon(f), c0)
		}
	}
	// Out-of-range constant shift folds to zero.
	if got := cx.Canon(b.Shl(x, b.Const(32, 40))); !got.IsConst() || !got.K.IsZero() {
		t.Errorf("x<<40 = %s, want 0", got)
	}
}

func TestRuleVII_URemPow2(t *testing.T) {
	b, cx := setup()
	x := b.Reg("x", 32)
	// x mod 8 == zext(extract[2:0](x))
	got := cx.Canon(b.URem(x, b.Const(32, 8)))
	want := cx.Canon(b.ZExt(32, b.Extract(2, 0, x)))
	if got != want {
		t.Errorf("urem pow2 = %s, want %s", got, want)
	}
}

func TestRuleVIII_IteZeroPlacement(t *testing.T) {
	b, cx := setup()
	x := b.Reg("x", 32)
	y := b.Reg("y", 32)
	cond := b.Ult(x, y)
	// ite(c, 0, x) must equal ite(¬c, x, 0).
	l := cx.Canon(b.Ite(cond, b.Const(32, 0), x))
	r := cx.Canon(b.Ite(b.Not(cond), x, b.Const(32, 0)))
	if l != r {
		t.Errorf("rule VIII: %s vs %s", l, r)
	}
	// Double negation of the condition normalizes away.
	l2 := cx.Canon(b.Ite(b.Not(b.Not(cond)), x, y))
	r2 := cx.Canon(b.Ite(cond, x, y))
	if l2 != r2 {
		t.Errorf("double-negated cond: %s vs %s", l2, r2)
	}
	// ite(¬c, y, x) == ite(c, x, y).
	l3 := cx.Canon(b.Ite(b.Not(cond), y, x))
	if l3 != r2 {
		t.Errorf("negated-cond swap: %s vs %s", l3, r2)
	}
}

func TestRuleIX_IteHoisting(t *testing.T) {
	b, cx := setup()
	x := b.Reg("x", 32)
	y := b.Reg("y", 32)
	z := b.Reg("z", 32)
	cond := b.Eq(x, b.Const(32, 0))
	// ite(c, z+x, z+y) == z + ite(c, x, y)
	lhs := b.Ite(cond, b.Add(z, x), b.Add(z, y))
	rhs := b.Add(z, b.Ite(cond, x, y))
	if cx.Canon(lhs) != cx.Canon(rhs) {
		t.Errorf("hoisting: %s vs %s", cx.Canon(lhs), cx.Canon(rhs))
	}
	// Common constants hoist as well: ite(c, x+5, 5) == 5 + ite(c, x, 0).
	l2 := b.Ite(cond, b.Add(x, b.Const(32, 5)), b.Const(32, 5))
	r2 := b.Add(b.Const(32, 5), b.Ite(cond, x, b.Const(32, 0)))
	if cx.Canon(l2) != cx.Canon(r2) {
		t.Errorf("const hoisting: %s vs %s", cx.Canon(l2), cx.Canon(r2))
	}
}

func TestSExtLinearized(t *testing.T) {
	b, cx := setup()
	x := b.Reg("x", 32)
	// sext(x) == zext(x) + (2^64-2^32)·signbit(x)
	got := cx.Canon(b.SExt(64, x))
	sign := b.Extract(31, 31, x)
	fill := bv.Ones(64).ShlN(32)
	want := cx.Canon(b.Add(b.ZExt(64, x), b.Mul(b.ConstBV(fill), b.ZExt(64, sign))))
	if got != want {
		t.Errorf("sext = %s, want %s", got, want)
	}
}

func TestZExtImplicit(t *testing.T) {
	b, cx := setup()
	x := b.Reg("x", 32)
	y := b.Reg("y", 32)
	// zext(x) + zext(y) at 64 is a lincomb over the 32-bit atoms.
	got := cx.Canon(b.Add(b.ZExt(64, x), b.ZExt(64, y)))
	if got.Kind != Lin || len(got.Addends) != 2 {
		t.Fatalf("got %s", got)
	}
	for _, a := range got.Addends {
		if a.T.Width != 32 {
			t.Errorf("addend width %d, want 32 (implicit zext)", a.T.Width)
		}
	}
	// But zext of a 32-bit SUM must NOT splice (wraparound differs).
	sum64 := cx.Canon(b.ZExt(64, b.Add(x, y)))
	flat64 := cx.Canon(b.Add(b.ZExt(64, x), b.ZExt(64, y)))
	if sum64 == flat64 {
		t.Error("zext(x+y) wrongly spliced into 64-bit x+y")
	}
}

func TestExtractLowPushthrough(t *testing.T) {
	b, cx := setup()
	x := b.Reg("x", 64)
	y := b.Reg("y", 64)
	// trunc32(x+y) == trunc32(x) + trunc32(y) — the W-form identity that
	// matters for RISC-V 32-bit arithmetic.
	lhs := b.Trunc(32, b.Add(x, y))
	rhs := b.Add(b.Trunc(32, x), b.Trunc(32, y))
	if cx.Canon(lhs) != cx.Canon(rhs) {
		t.Errorf("trunc pushthrough: %s vs %s", cx.Canon(lhs), cx.Canon(rhs))
	}
}

func TestInterningIDsStable(t *testing.T) {
	b, cx := setup()
	x := b.Reg("x", 32)
	y := b.Reg("y", 32)
	c1 := cx.Canon(b.Add(x, y))
	c2 := cx.Canon(b.Add(y, x))
	if c1.ID != c2.ID {
		t.Errorf("IDs differ: %d vs %d", c1.ID, c2.ID)
	}
	if cx.ByID(c1.ID) != c1 {
		t.Error("ByID roundtrip failed")
	}
	// Distinct terms get distinct IDs.
	c3 := cx.Canon(b.Sub(x, y))
	if c3.ID == c1.ID {
		t.Error("distinct terms share an ID")
	}
}

// randomTerm builds a random term over the given variables.
func randomTerm(b *term.Builder, rng *bv.RNG, vars []*term.Term, depth int) *term.Term {
	w := vars[0].W()
	if depth == 0 || rng.Intn(4) == 0 {
		if rng.Intn(4) == 0 {
			return b.ConstBV(rng.BV(w))
		}
		return vars[rng.Intn(len(vars))]
	}
	sub := func() *term.Term { return randomTerm(b, rng, vars, depth-1) }
	switch rng.Intn(14) {
	case 0:
		return b.Add(sub(), sub())
	case 1:
		return b.Sub(sub(), sub())
	case 2:
		return b.Mul(sub(), sub())
	case 3:
		return b.Not(sub())
	case 4:
		return b.Neg(sub())
	case 5:
		return b.And(sub(), sub())
	case 6:
		return b.Or(sub(), sub())
	case 7:
		return b.Xor(sub(), sub())
	case 8:
		return b.Shl(sub(), b.Const(w, uint64(rng.Intn(w))))
	case 9:
		return b.Ite(b.Ult(sub(), sub()), sub(), sub())
	case 10:
		return b.URem(sub(), b.Const(w, 1<<uint(1+rng.Intn(4))))
	case 11:
		hi := rng.Intn(w)
		lo := rng.Intn(hi + 1)
		inner := b.Extract(hi, lo, sub())
		return b.ZExt(w, inner)
	case 12:
		k := 1 + rng.Intn(w-1)
		return b.SExt(w, b.Trunc(k, sub()))
	default:
		lhs := b.Trunc(w/2, sub())
		rhs := b.Trunc(w-w/2, sub())
		return b.Concat(lhs, rhs)
	}
}

// TestPropertyCanonPreservesEval is invariant #1 of DESIGN.md: for random
// terms and random environments, the canonical form evaluates identically
// to the original term.
func TestPropertyCanonPreservesEval(t *testing.T) {
	rng := bv.NewRNG(555)
	for trial := 0; trial < 400; trial++ {
		b := term.NewBuilder()
		cx := NewCtx()
		w := []int{8, 16, 32, 64}[rng.Intn(4)]
		vars := []*term.Term{b.Reg("x", w), b.Reg("y", w), b.VarT("i", term.KindImm, w)}
		tt := randomTerm(b, rng, vars, 4)
		ct := cx.Canon(tt)
		for k := 0; k < 5; k++ {
			env := term.NewEnv()
			for _, v := range vars {
				env.Bind(v.Name, rng.BV(w))
			}
			want := tt.Eval(env)
			got := ct.Eval(env)
			if got != want {
				t.Fatalf("trial %d: canon eval mismatch\nterm:  %s\ncanon: %s\nenv: %v\ngot %v want %v",
					trial, tt, ct, env.Vals, got, want)
			}
		}
	}
}

// TestPropertyCanonEqualImpliesEval checks invariant #2 on pairs: when two
// random terms canonicalize identically, they must agree on random inputs.
func TestPropertyCanonEqualImpliesEval(t *testing.T) {
	rng := bv.NewRNG(777)
	matches := 0
	for trial := 0; trial < 1500; trial++ {
		b := term.NewBuilder()
		cx := NewCtx()
		const w = 16
		vars := []*term.Term{b.Reg("x", w), b.Reg("y", w)}
		t1 := randomTerm(b, rng, vars, 3)
		t2 := randomTerm(b, rng, vars, 3)
		if t1 == t2 || cx.Canon(t1) != cx.Canon(t2) {
			continue
		}
		matches++
		for k := 0; k < 20; k++ {
			env := term.NewEnv()
			for _, v := range vars {
				env.Bind(v.Name, rng.BV(w))
			}
			if t1.Eval(env) != t2.Eval(env) {
				t.Fatalf("canonical-equal terms disagree:\n  %s\n  %s\nenv %v",
					t1, t2, env.Vals)
			}
		}
	}
	if matches == 0 {
		t.Log("note: no non-trivial canonical matches in this run")
	}
}

func TestEvalOfOpaqueOps(t *testing.T) {
	b, cx := setup()
	x := b.Reg("x", 32)
	y := b.Reg("y", 32)
	env := term.NewEnv()
	env.Bind("x", bv.New(32, 0xdeadbeef))
	env.Bind("y", bv.New(32, 13))
	for _, tt := range []*term.Term{
		b.UDiv(x, y), b.SDiv(x, y), b.SRem(x, y), b.AShr(x, y),
		b.LShr(x, y), b.Popcount(x), b.Clz(x), b.Ctz(x), b.Rev(x),
		b.Slt(x, y), b.Load(32, b.ZExt(64, x)),
		b.Store(b.ZExt(64, x), y),
	} {
		if got, want := cx.Canon(tt).Eval(env), tt.Eval(env); got != want {
			t.Errorf("%s: canon eval %v, term eval %v", tt, got, want)
		}
	}
}

func TestAtomDomainInfoPreserved(t *testing.T) {
	b, cx := setup()
	imm := b.VarT("imm", term.KindImm, 12)
	reg := b.Reg("r", 12)
	ci := cx.Canon(imm)
	cr := cx.Canon(reg)
	if ci.AtomKind() != term.KindImm || cr.AtomKind() != term.KindReg {
		t.Error("atom kinds lost in canonicalization")
	}
	if ci == cr {
		t.Error("different-kind atoms merged")
	}
}

func TestMemoization(t *testing.T) {
	b, cx := setup()
	x := b.Reg("x", 32)
	tt := b.Add(x, b.Const(32, 1))
	c1 := cx.Canon(tt)
	before := cx.NumTerms()
	c2 := cx.Canon(tt)
	if c1 != c2 || cx.NumTerms() != before {
		t.Error("memoization failed")
	}
}
