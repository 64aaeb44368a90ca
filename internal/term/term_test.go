package term

import (
	"strings"
	"testing"

	"iselgen/internal/bv"
)

func TestHashConsing(t *testing.T) {
	b := NewBuilder()
	x := b.Reg("x", 32)
	y := b.Reg("y", 32)
	s1 := b.Add(x, y)
	s2 := b.Add(x, y)
	if s1 != s2 {
		t.Error("identical adds not pointer-equal")
	}
	if s3 := b.Add(y, x); s3 != s1 {
		t.Error("commutative operands not normalized")
	}
	if b.Sub(x, y) == b.Sub(y, x) {
		t.Error("non-commutative op wrongly normalized")
	}
	c1 := b.Const(32, 5)
	c2 := b.ConstBV(bv.New(32, 5))
	if c1 != c2 {
		t.Error("constants not interned")
	}
	if b.Const(32, 5) == b.Const(16, 5) {
		t.Error("constants of different widths interned together")
	}
}

func TestVarRedeclarePanics(t *testing.T) {
	b := NewBuilder()
	b.Reg("x", 32)
	defer func() {
		if recover() == nil {
			t.Error("no panic on redeclare with different width")
		}
	}()
	b.Reg("x", 64)
}

func TestConstFolding(t *testing.T) {
	b := NewBuilder()
	x := b.Reg("x", 16)
	if got := b.Add(b.Const(16, 3), b.Const(16, 4)); !got.IsConst() || got.CVal.Lo != 7 {
		t.Errorf("3+4 = %v", got)
	}
	if got := b.Add(x, b.Const(16, 0)); got != x {
		t.Errorf("x+0 = %v", got)
	}
	if got := b.Mul(x, b.Const(16, 1)); got != x {
		t.Errorf("x*1 = %v", got)
	}
	if got := b.Mul(x, b.Const(16, 0)); !got.IsConst() || !got.CVal.IsZero() {
		t.Errorf("x*0 = %v", got)
	}
	if got := b.And(x, b.ConstInt(16, -1)); got != x {
		t.Errorf("x&-1 = %v", got)
	}
	if got := b.Or(x, b.Const(16, 0)); got != x {
		t.Errorf("x|0 = %v", got)
	}
	if got := b.Xor(x, x); !got.IsConst() || !got.CVal.IsZero() {
		t.Errorf("x^x = %v", got)
	}
	if got := b.Not(b.Not(x)); got != x {
		t.Errorf("~~x = %v", got)
	}
	if got := b.Neg(b.Neg(x)); got != x {
		t.Errorf("--x = %v", got)
	}
	if got := b.Sub(x, x); !got.IsConst() || !got.CVal.IsZero() {
		t.Errorf("x-x = %v", got)
	}
	if got := b.Eq(x, x); !got.IsConst() || !got.CVal.Bool() {
		t.Errorf("x==x = %v", got)
	}
}

func TestExtractSimplifications(t *testing.T) {
	b := NewBuilder()
	x := b.Reg("x", 32)
	if got := b.Extract(31, 0, x); got != x {
		t.Error("full extract not identity")
	}
	// Extract of extract composes.
	e1 := b.Extract(23, 8, x)
	e2 := b.Extract(7, 4, e1)
	want := b.Extract(15, 12, x)
	if e2 != want {
		t.Errorf("nested extract = %v, want %v", e2, want)
	}
	// Extract of zext below the original width passes through.
	z := b.ZExt(64, x)
	if got := b.Extract(15, 0, z); got != b.Extract(15, 0, x) {
		t.Errorf("extract of zext = %v", got)
	}
	if got := b.Extract(63, 32, z); !got.IsConst() || !got.CVal.IsZero() {
		t.Errorf("high extract of zext = %v", got)
	}
	// Extract of concat selects one side.
	y := b.Reg("y", 32)
	c := b.Concat(x, y)
	if got := b.Extract(31, 0, c); got != y {
		t.Errorf("low extract of concat = %v", got)
	}
	if got := b.Extract(63, 32, c); got != x {
		t.Errorf("high extract of concat = %v", got)
	}
}

func TestIte(t *testing.T) {
	b := NewBuilder()
	x, y := b.Reg("x", 8), b.Reg("y", 8)
	cond := b.Eq(x, y)
	if got := b.Ite(b.Const(1, 1), x, y); got != x {
		t.Error("ite true")
	}
	if got := b.Ite(b.Const(1, 0), x, y); got != y {
		t.Error("ite false")
	}
	if got := b.Ite(cond, x, x); got != x {
		t.Error("ite same arms")
	}
}

func TestEvalBasic(t *testing.T) {
	b := NewBuilder()
	x, y := b.Reg("x", 32), b.Reg("y", 32)
	e := NewEnv()
	e.Bind("x", bv.New(32, 10))
	e.Bind("y", bv.New(32, 3))
	tt := b.Add(x, b.Shl(y, b.Const(32, 2)))
	if got := tt.Eval(e); got.Lo != 22 {
		t.Errorf("10 + (3<<2) = %d", got.Lo)
	}
	cmp := b.Ite(b.Slt(x, y), x, y)
	if got := cmp.Eval(e); got.Lo != 3 {
		t.Errorf("min = %d", got.Lo)
	}
}

func TestEvalUnboundPanics(t *testing.T) {
	b := NewBuilder()
	x := b.Reg("x", 8)
	defer func() {
		if recover() == nil {
			t.Error("no panic for unbound var")
		}
	}()
	x.Eval(NewEnv())
}

func TestEvalLoadDeterministic(t *testing.T) {
	b := NewBuilder()
	a1 := b.Reg("a", 64)
	l1 := b.Load(32, a1)
	l2 := b.Load(32, b.Add(a1, b.Const(64, 0))) // same address term after folding
	e := NewEnv()
	e.Bind("a", bv.New(64, 0x1000))
	if l1.Eval(e) != l2.Eval(e) {
		t.Error("same-address loads evaluate differently")
	}
	e2 := NewEnv()
	e2.Bind("a", bv.New(64, 0x2000))
	if l1.Eval(e) == l1.Eval(e2) {
		t.Error("different addresses loaded identical values (hash collision?)")
	}
	// Different width loads from the same address differ.
	l8 := b.Load(8, a1)
	if l8.Eval(e).ZExt(32) == l1.Eval(e) {
		t.Error("load widths not separated")
	}
}

func TestEvalStoreDigest(t *testing.T) {
	b := NewBuilder()
	a := b.Reg("a", 64)
	v := b.Reg("v", 32)
	s1 := b.Store(a, v)
	s2 := b.Store(a, b.Or(v, b.Const(32, 0)))
	e := NewEnv()
	e.Bind("a", bv.New(64, 64))
	e.Bind("v", bv.New(32, 9))
	if s1.Eval(e) != s2.Eval(e) {
		t.Error("equal stores evaluate differently")
	}
	s3 := b.Store(a, b.Add(v, b.Const(32, 1)))
	if s1.Eval(e) == s3.Eval(e) {
		t.Error("different stores evaluate equal")
	}
}

func TestVarsAndSize(t *testing.T) {
	b := NewBuilder()
	x, y := b.Reg("x", 32), b.VarT("i", KindImm, 32)
	tt := b.Add(b.Mul(x, y), b.Mul(x, y))
	vars := tt.Vars()
	if len(vars) != 2 {
		t.Errorf("vars = %d, want 2", len(vars))
	}
	// DAG sharing: add + mul + x + y = 4 nodes.
	if got := tt.Size(); got != 4 {
		t.Errorf("size = %d, want 4", got)
	}
}

func TestLoadsEnumeration(t *testing.T) {
	b := NewBuilder()
	a := b.Reg("a", 64)
	l := b.Load(64, a)
	tt := b.Add(l, b.Load(64, b.Add(a, b.Const(64, 8))))
	if got := len(tt.Loads()); got != 2 {
		t.Errorf("loads = %d, want 2", got)
	}
}

func TestString(t *testing.T) {
	b := NewBuilder()
	x, y := b.Reg("x", 32), b.Reg("y", 32)
	s := b.Add(x, b.Shl(y, b.Const(32, 4))).String()
	for _, want := range []string{"bvadd", "bvshl", "x", "y", "#x00000004"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
	ex := b.Extract(15, 8, x).String()
	if !strings.Contains(ex, "extract 15 8") {
		t.Errorf("extract string = %q", ex)
	}
}

func TestRebuildSubst(t *testing.T) {
	b := NewBuilder()
	x, y := b.Reg("x", 32), b.Reg("y", 32)
	tt := b.Add(x, b.Mul(y, b.Const(32, 3)))
	b2 := NewBuilder()
	p := b2.Reg("p", 32)
	q := b2.Reg("q", 32)
	got := b2.Rebuild(tt, map[*Term]*Term{x: p, y: q})
	want := b2.Add(p, b2.Mul(q, b2.Const(32, 3)))
	if got != want {
		t.Errorf("rebuild = %v, want %v", got, want)
	}
	// Substituting a constant triggers folding.
	got2 := b2.Rebuild(tt, map[*Term]*Term{x: b2.Const(32, 1), y: b2.Const(32, 2)})
	if !got2.IsConst() || got2.CVal.Lo != 7 {
		t.Errorf("folded rebuild = %v", got2)
	}
}

func TestApplyRoundTrip(t *testing.T) {
	b := NewBuilder()
	x, y := b.Reg("x", 16), b.Reg("y", 16)
	cases := []*Term{
		b.Add(x, y), b.Sub(x, y), b.Mul(x, y), b.UDiv(x, y), b.SDiv(x, y),
		b.URem(x, y), b.SRem(x, y), b.Neg(x), b.Not(x), b.And(x, y),
		b.Or(x, y), b.Xor(x, y), b.Shl(x, y), b.LShr(x, y), b.AShr(x, y),
		b.RotL(x, y), b.RotR(x, y), b.Eq(x, y), b.Ult(x, y), b.Slt(x, y),
		b.Concat(x, y), b.Extract(12, 3, x), b.ZExt(32, x), b.SExt(32, x),
		b.Ite(b.Eq(x, y), x, y), b.Popcount(x), b.Clz(x), b.Ctz(x), b.Rev(x),
		b.Load(16, b.ZExt(64, x)), b.Store(b.ZExt(64, x), y),
	}
	for _, c := range cases {
		got := b.Apply(c.Op, c.W(), int(c.Aux0), int(c.Aux1), c.Args)
		if got != c {
			t.Errorf("Apply(%v) = %v, want identical", c.Op, got)
		}
	}
}

func TestEvalMatchesBVOps(t *testing.T) {
	b := NewBuilder()
	rng := bv.NewRNG(99)
	x, y := b.Reg("x", 24), b.Reg("y", 24)
	terms := []*Term{
		b.Add(x, y), b.Sub(x, y), b.Mul(x, y), b.And(x, y), b.Or(x, y),
		b.Xor(x, y), b.Shl(x, b.URem(y, b.Const(24, 24))), b.AShr(x, b.URem(y, b.Const(24, 24))),
		b.Popcount(x), b.Clz(x), b.Ctz(x),
		b.SExt(48, x), b.Concat(x, y), b.Ite(b.Ult(x, y), x, y),
	}
	for trial := 0; trial < 100; trial++ {
		xv, yv := rng.BV(24), rng.BV(24)
		e := NewEnv()
		e.Bind("x", xv)
		e.Bind("y", yv)
		for _, tt := range terms {
			got := tt.Eval(e)
			if got.W() != tt.W() {
				t.Fatalf("%s: result width %d, term width %d", tt, got.W(), tt.W())
			}
		}
		if got := terms[0].Eval(e); got != xv.Add(yv) {
			t.Fatalf("add eval mismatch: %v vs %v", got, xv.Add(yv))
		}
		if got := terms[12].Eval(e); got != xv.Concat(yv) {
			t.Fatalf("concat eval mismatch")
		}
	}
}

// NumTerms returns the number of distinct interned terms.
func (b *Builder) NumTerms() int { return len(b.terms) + len(b.vars) }
