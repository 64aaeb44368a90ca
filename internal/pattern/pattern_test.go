package pattern

import (
	"strings"
	"testing"

	"iselgen/internal/bv"
	"iselgen/internal/gmir"
	"iselgen/internal/term"
)

func TestCompileShiftAdd(t *testing.T) {
	// (s64 G_ADD r:$p0, (s64 G_SHL r:$p1, i:$p2)) — the paper's example.
	p := New(Op(gmir.GAdd, gmir.S64,
		Leaf(gmir.S64),
		Op(gmir.GShl, gmir.S64, Leaf(gmir.S64), ImmLeaf(gmir.S64))))
	if p.Size() != 2 {
		t.Errorf("size = %d", p.Size())
	}
	if got := len(p.Leaves()); got != 3 {
		t.Errorf("leaves = %d", got)
	}
	b := term.NewBuilder()
	tt, err := p.Compile(b)
	if err != nil {
		t.Fatal(err)
	}
	env := term.NewEnv()
	env.Bind("p0.r64", bv.New(64, 5))
	env.Bind("p1.r64", bv.New(64, 3))
	env.Bind("p2.i64", bv.New(64, 2))
	if got := tt.Eval(env); got.Lo != 5+3<<2 {
		t.Errorf("eval = %d", got.Lo)
	}
	// Leaf kinds flow into variable kinds.
	vars := tt.Vars()
	kinds := map[string]term.VarKind{}
	for _, v := range vars {
		kinds[v.Name] = v.Kind
	}
	if kinds["p0.r64"] != term.KindReg || kinds["p2.i64"] != term.KindImm {
		t.Errorf("kinds = %v", kinds)
	}
}

func TestKeyAndString(t *testing.T) {
	p1 := New(Op(gmir.GAdd, gmir.S32, Leaf(gmir.S32), Leaf(gmir.S32)))
	p2 := New(Op(gmir.GAdd, gmir.S32, Leaf(gmir.S32), Leaf(gmir.S32)))
	p3 := New(Op(gmir.GAdd, gmir.S64, Leaf(gmir.S64), Leaf(gmir.S64)))
	if p1.Key() != p2.Key() {
		t.Error("identical patterns have different keys")
	}
	if p1.Key() == p3.Key() {
		t.Error("different-type patterns share a key")
	}
	s := New(Op(gmir.GAdd, gmir.S64, Leaf(gmir.S64),
		Op(gmir.GShl, gmir.S64, Leaf(gmir.S64), ImmLeaf(gmir.S64)))).String()
	for _, want := range []string{"G_ADD", "G_SHL", "r64:$p0", "i64:$p2"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
	// Predicates distinguish comparisons.
	c1 := New(Cmp(gmir.PredULT, Leaf(gmir.S64), Leaf(gmir.S64)))
	c2 := New(Cmp(gmir.PredSLT, Leaf(gmir.S64), Leaf(gmir.S64)))
	if c1.Key() == c2.Key() {
		t.Error("predicates not in key")
	}
}

func TestCompileStore(t *testing.T) {
	p := New(StoreOp(32, Op(gmir.GAdd, gmir.S32, Leaf(gmir.S32), Leaf(gmir.S32)),
		Leaf(gmir.P0)))
	if !p.IsStore() {
		t.Error("store pattern not recognized")
	}
	b := term.NewBuilder()
	tt, err := p.Compile(b)
	if err != nil {
		t.Fatal(err)
	}
	if tt.Op != term.Store {
		t.Errorf("compiled root = %v", tt.Op)
	}
}

// corpus builds a function with a hot shift-add and a cold xor.
func corpus(t *testing.T) *gmir.Function {
	t.Helper()
	fb := gmir.NewFunc("corpus")
	a := fb.Param(gmir.S64)
	b := fb.Param(gmir.S64)
	x := a
	for i := 0; i < 5; i++ {
		c := fb.Const(gmir.S64, uint64(i+1))
		sh := fb.Shl(b, c)
		x = fb.Add(x, sh)
	}
	y := fb.Xor(x, a)
	fb.Ret(y)
	return fb.MustFinish()
}

func TestExtractorCountsAndRanks(t *testing.T) {
	e := NewExtractor()
	e.AddFunction(corpus(t))
	ranked := e.Ranked()
	if len(ranked) == 0 {
		t.Fatal("no patterns extracted")
	}
	// The shift-with-imm subtree occurs 5 times; it must outrank the xor.
	shiftImm := New(Op(gmir.GShl, gmir.S64, Leaf(gmir.S64), ImmLeaf(gmir.S64)))
	if got := e.Count(shiftImm); got != 5 {
		t.Errorf("shift-imm count = %d, want 5", got)
	}
	xor := New(Op(gmir.GXor, gmir.S64, Leaf(gmir.S64), Leaf(gmir.S64)))
	if got := e.Count(xor); got != 1 {
		t.Errorf("xor count = %d, want 1", got)
	}
	// The add-of-shift fused tree must also be present.
	fused := New(Op(gmir.GAdd, gmir.S64, Leaf(gmir.S64),
		Op(gmir.GShl, gmir.S64, Leaf(gmir.S64), ImmLeaf(gmir.S64))))
	if got := e.Count(fused); got != 5 {
		t.Errorf("fused count = %d, want 5", got)
	}
	// Ranking is by frequency.
	if e.Count(ranked[0]) < e.Count(ranked[len(ranked)-1]) {
		t.Error("ranking not descending")
	}
}

func TestExtractorRespectsMultiUse(t *testing.T) {
	fb := gmir.NewFunc("multiuse")
	a := fb.Param(gmir.S64)
	b := fb.Param(gmir.S64)
	s := fb.Add(a, b) // used twice: must not be folded into consumers
	m := fb.Mul(s, s)
	fb.Ret(m)
	f := fb.MustFinish()
	e := NewExtractor()
	e.AddFunction(f)
	fused := New(Op(gmir.GMul, gmir.S64,
		Op(gmir.GAdd, gmir.S64, Leaf(gmir.S64), Leaf(gmir.S64)),
		Op(gmir.GAdd, gmir.S64, Leaf(gmir.S64), Leaf(gmir.S64))))
	if e.Count(fused) != 0 {
		t.Error("multi-use value was folded into a pattern")
	}
	plain := New(Op(gmir.GMul, gmir.S64, Leaf(gmir.S64), Leaf(gmir.S64)))
	if e.Count(plain) != 1 {
		t.Error("mul with leaf operands missing")
	}
}

func TestExtractorSizeLimit(t *testing.T) {
	// A deep chain: no extracted pattern may exceed MaxSize ops.
	fb := gmir.NewFunc("deep")
	x := fb.Param(gmir.S64)
	for i := 0; i < 12; i++ {
		x = fb.Add(x, x) // multi-use... make single-use chain instead
	}
	fb.Ret(x)
	f := fb.MustFinish()
	e := NewExtractor()
	e.MaxSize = 3
	e.AddFunction(f)
	for _, p := range e.Ranked() {
		if p.Size() > 3 {
			t.Errorf("pattern of size %d exceeds limit: %s", p.Size(), p)
		}
	}
}

// Count returns the occurrence count of a pattern.
func (e *Extractor) Count(p *Pattern) int {
	if ent, ok := e.counts[p.Key()]; ok {
		return ent.count
	}
	return 0
}

// Cmp builds a comparison node.
func Cmp(pred gmir.Pred, args ...*Node) *Node {
	return &Node{Op: gmir.GICmp, Ty: gmir.S1, Pred: pred, Args: args}
}
