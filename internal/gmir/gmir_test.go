package gmir

import (
	"strings"
	"testing"

	"iselgen/internal/bv"
	"iselgen/internal/term"
)

// buildShiftAdd builds the paper's Fig. 2 example: f(a, b) = a + (b << 4).
func buildShiftAdd(t *testing.T) *Function {
	t.Helper()
	fb := NewFunc("shift_add")
	a := fb.Param(S64)
	b := fb.Param(S64)
	c := fb.Const(S64, 4)
	sh := fb.Shl(b, c)
	sum := fb.Add(a, sh)
	fb.Ret(sum)
	return fb.MustFinish()
}

func TestBuildAndPrint(t *testing.T) {
	f := buildShiftAdd(t)
	s := f.String()
	for _, want := range []string{"G_CONSTANT", "G_SHL", "G_ADD", "G_RET"} {
		if !strings.Contains(s, want) {
			t.Errorf("printout missing %s:\n%s", want, s)
		}
	}
	if f.NumInsts() != 4 {
		t.Errorf("insts = %d", f.NumInsts())
	}
}

func TestInterpStraightLine(t *testing.T) {
	f := buildShiftAdd(t)
	ip := &Interp{}
	got, err := ip.Run(f, bv.New(64, 100), bv.New(64, 3))
	if err != nil {
		t.Fatal(err)
	}
	if got.Lo != 100+3<<4 {
		t.Errorf("result = %d", got.Lo)
	}
}

// buildSumLoop: sum of i for i in [0, n) — loop with phi.
func buildSumLoop(t *testing.T) *Function {
	t.Helper()
	fb := NewFunc("sum_loop")
	n := fb.Param(S64)
	entry := fb.Block()
	loop := fb.NewBlock()
	exit := fb.NewBlock()

	zero := fb.Const(S64, 0)
	fb.Br(loop)

	fb.SetBlock(loop)
	i := fb.Phi(S64, zero, entry)
	acc := fb.Phi(S64, zero, entry)
	acc2 := fb.Add(acc, i)
	one := fb.Const(S64, 1)
	i2 := fb.Add(i, one)
	fb.AddPhiIncoming(i, i2, loop)
	fb.AddPhiIncoming(acc, acc2, loop)
	done := fb.ICmp(PredUGE, i2, n)
	fb.BrCond(done, exit, loop)

	fb.SetBlock(exit)
	fb.Ret(acc2)
	return fb.MustFinish()
}

func TestInterpLoopWithPhi(t *testing.T) {
	f := buildSumLoop(t)
	ip := &Interp{}
	got, err := ip.Run(f, bv.New(64, 10))
	if err != nil {
		t.Fatal(err)
	}
	if got.Lo != 45 {
		t.Errorf("sum 0..9 = %d, want 45", got.Lo)
	}
}

func TestInterpMemory(t *testing.T) {
	fb := NewFunc("memtest")
	p := fb.Param(P0)
	v := fb.Load(S64, p, 64)
	two := fb.Const(S64, 2)
	dbl := fb.Mul(v, two)
	off := fb.Const(S64, 8)
	q := fb.PtrAdd(p, off)
	fb.Store(dbl, q, 64)
	r := fb.Load(S32, q, 16)
	fb.Ret(r)
	f := fb.MustFinish()

	ip := &Interp{Mem: NewMemory()}
	ip.Mem.Store(0x100, bv.New(64, 21), 64)
	got, err := ip.Run(f, bv.New(64, 0x100))
	if err != nil {
		t.Fatal(err)
	}
	if got.Lo != 42 {
		t.Errorf("result = %d", got.Lo)
	}
	if w := ip.Mem.Load(0x108, 64); w.Lo != 42 {
		t.Errorf("stored = %d", w.Lo)
	}
}

func TestMemoryLittleEndian(t *testing.T) {
	m := NewMemory()
	m.Store(0, bv.New(32, 0x12345678), 32)
	if got := m.Load(0, 8); got.Lo != 0x78 {
		t.Errorf("byte 0 = %#x", got.Lo)
	}
	if got := m.Load(3, 8); got.Lo != 0x12 {
		t.Errorf("byte 3 = %#x", got.Lo)
	}
	if got := m.Load(1, 16); got.Lo != 0x3456 {
		t.Errorf("mid halfword = %#x", got.Lo)
	}
	// 128-bit store/load roundtrip.
	w := bv.New128(128, 0xcafebabe, 0xdeadbeef)
	m.Store(0x40, w, 128)
	if got := m.Load(0x40, 128); got != w {
		t.Errorf("128-bit roundtrip = %v", got)
	}
}

func TestVerifyCatchesErrors(t *testing.T) {
	// Use of undefined value.
	f := &Function{Name: "bad", types: map[Value]Type{0: S64}, NumValues: 1}
	blk := &Block{ID: 0}
	blk.Insts = append(blk.Insts,
		&Inst{Op: GAdd, Ty: S64, Dst: 0, Args: []Value{5, 6}},
		&Inst{Op: GRet, Dst: -1})
	f.Blocks = []*Block{blk}
	if err := Verify(f); err == nil {
		t.Error("undefined use not caught")
	}
	// Terminator in the middle.
	f2 := &Function{Name: "bad2", types: map[Value]Type{}, NumValues: 0}
	b2 := &Block{ID: 0}
	b2.Insts = append(b2.Insts, &Inst{Op: GRet, Dst: -1}, &Inst{Op: GRet, Dst: -1})
	f2.Blocks = []*Block{b2}
	if err := Verify(f2); err == nil {
		t.Error("double terminator not caught")
	}
}

func TestInstTermSemanticsMatchInterp(t *testing.T) {
	// For each selectable opcode: term semantics and interpreter must
	// agree on random inputs.
	rng := bv.NewRNG(123)
	ops := []Opcode{GAdd, GSub, GMul, GUDiv, GSDiv, GURem, GSRem, GAnd,
		GOr, GXor, GShl, GLShr, GAShr, GCtpop, GCtlz, GCttz, GBSwap, GAbs,
		GSMin, GSMax, GUMin, GUMax}
	for _, op := range ops {
		in := &Inst{Op: op, Ty: S32, Dst: 2, Args: []Value{0, 1}}
		if op == GCtpop || op == GCtlz || op == GCttz || op == GBSwap || op == GAbs {
			in.Args = in.Args[:1]
		}
		tb := term.NewBuilder()
		var targs []*term.Term
		for i := range in.Args {
			targs = append(targs, tb.Reg([]string{"x", "y"}[i], 32))
		}
		tt, err := InstTerm(tb, in, targs)
		if err != nil {
			t.Fatalf("%v: %v", op, err)
		}
		for trial := 0; trial < 30; trial++ {
			vals := make([]bv.BV, 3)
			vals[0], vals[1] = rng.BV(32), rng.BV(32)
			env := term.NewEnv()
			env.Bind("x", vals[0])
			env.Bind("y", vals[1])
			want, err := evalInst(in, vals, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := tt.Eval(env); got != want {
				t.Errorf("%v: term %v, interp %v (x=%v y=%v)", op, got, want, vals[0], vals[1])
				break
			}
		}
	}
	// All predicates.
	for p := PredEQ; p <= PredSGE; p++ {
		in := &Inst{Op: GICmp, Ty: S1, Dst: 2, Pred: p, Args: []Value{0, 1}}
		tb := term.NewBuilder()
		tt, err := InstTerm(tb, in, []*term.Term{tb.Reg("x", 32), tb.Reg("y", 32)})
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 30; trial++ {
			vals := make([]bv.BV, 3)
			vals[0], vals[1] = rng.BV(32), rng.BV(32)
			env := term.NewEnv()
			env.Bind("x", vals[0])
			env.Bind("y", vals[1])
			want, _ := evalInst(in, vals, nil)
			if got := tt.Eval(env); got != want {
				t.Errorf("icmp %v: term %v, interp %v", p, got, want)
				break
			}
		}
	}
}

func TestLegalizeWidensNarrowArithmetic(t *testing.T) {
	fb := NewFunc("narrow")
	x := fb.Param(S8)
	y := fb.Param(S8)
	sum := fb.Add(x, y)
	cmp := fb.ICmp(PredSLT, sum, x)
	sel := fb.Select(cmp, sum, y)
	fb.Ret(sel)
	f := fb.MustFinish()

	// Reference behaviour before legalization.
	ref := func(xv, yv bv.BV) bv.BV {
		ip := &Interp{}
		r, err := ip.Run(f, xv, yv)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	rng := bv.NewRNG(9)
	type io struct{ x, y, r bv.BV }
	var cases []io
	for i := 0; i < 50; i++ {
		xv, yv := rng.BV(8), rng.BV(8)
		cases = append(cases, io{xv, yv, ref(xv, yv)})
	}

	if err := Legalize(f, 32); err != nil {
		t.Fatal(err)
	}
	// No narrow arithmetic remains.
	for _, b := range f.Blocks {
		for _, in := range b.Insts {
			if needsLegalization(in.Op) && in.Ty.Bits > 1 && in.Ty.Bits < 32 {
				t.Errorf("narrow %v survived legalization", in.Op)
			}
		}
	}
	// Semantics preserved.
	for _, c := range cases {
		ip := &Interp{}
		got, err := ip.Run(f, c.x, c.y)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.r {
			t.Errorf("legalized(%v,%v) = %v, want %v", c.x, c.y, got, c.r)
		}
	}
}

func TestLegalizeNarrowLoadsAndConstants(t *testing.T) {
	fb := NewFunc("narrowmem")
	p := fb.Param(P0)
	v := fb.Load(S16, p, 16)
	c := fb.Const(S16, 999)
	s := fb.Mul(v, c)
	fb.Store(s, p, 16)
	z := fb.ZExt(S64, s)
	fb.Ret(z)
	f := fb.MustFinish()

	run := func() bv.BV {
		ip := &Interp{Mem: NewMemory()}
		ip.Mem.Store(0x10, bv.New(16, 1234), 16)
		r, err := ip.Run(f, bv.New(64, 0x10))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	want := run()
	if err := Legalize(f, 32); err != nil {
		t.Fatal(err)
	}
	if got := run(); got != want {
		t.Errorf("legalized = %v, want %v", got, want)
	}
}

// NumInsts counts all instructions.
func (f *Function) NumInsts() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Insts)
	}
	return n
}
