package isel

import (
	"strings"
	"testing"

	"iselgen/internal/bv"
	"iselgen/internal/gmir"
	"iselgen/internal/isa"
	"iselgen/internal/isa/aarch64"
	"iselgen/internal/isa/riscv"
	"iselgen/internal/mir"
	"iselgen/internal/sim"
	"iselgen/internal/term"
)

var (
	a64Target *isa.Target
	a64Set    *A64Backends
	rvTarget  *isa.Target
	rvSet     *RVBackends
)

func init() {
	b := term.NewBuilder()
	var err error
	a64Target, err = aarch64.Load(b)
	if err != nil {
		panic(err)
	}
	a64Set = NewA64Backends(b, a64Target)
	b2 := term.NewBuilder()
	rvTarget, err = riscv.Load(b2)
	if err != nil {
		panic(err)
	}
	rvSet = NewRVBackends(b2, rvTarget)
}

// runBoth selects and simulates f on the backend, and cross-checks the
// result against the gMIR interpreter on the given inputs. Returns the
// simulation statistics of the last input.
func runBoth(t *testing.T, bk *Backend, f *gmir.Function, argSets [][]bv.BV,
	initMem func(*gmir.Memory)) sim.Result {
	t.Helper()
	mf, rep := bk.Select(f)
	if rep.Fallback {
		t.Fatalf("%s: fallback: %s", bk.Name, rep.FallbackReason)
	}
	var last sim.Result
	for _, args := range argSets {
		refMem := gmir.NewMemory()
		if initMem != nil {
			initMem(refMem)
		}
		ip := &gmir.Interp{Mem: refMem}
		want, err := ip.Run(f, args...)
		if err != nil {
			t.Fatal(err)
		}
		simMem := gmir.NewMemory()
		if initMem != nil {
			initMem(simMem)
		}
		m := &sim.Machine{Mem: simMem}
		got, err := m.Run(mf, args)
		if err != nil {
			t.Fatalf("%s: %v\n%s", bk.Name, err, mf)
		}
		if !got.HasRet || sim.Adjust(got.Ret, want.W()) != want {
			t.Fatalf("%s: result %v, want %v (args %v)\n%s", bk.Name, got.Ret, want, args, mf)
		}
		last = got
	}
	return last
}

func allA64() []*Backend {
	return []*Backend{a64Set.Handwritten, a64Set.DAG, a64Set.Naive}
}

func allRV() []*Backend {
	return []*Backend{rvSet.Handwritten, rvSet.DAG}
}

func TestStraightLineArith(t *testing.T) {
	fb := gmir.NewFunc("arith")
	a := fb.Param(gmir.S64)
	b := fb.Param(gmir.S64)
	c4 := fb.Const(gmir.S64, 4)
	sh := fb.Shl(b, c4)
	sum := fb.Add(a, sh)
	prod := fb.Mul(sum, b)
	diff := fb.Sub(prod, a)
	fb.Ret(diff)
	f := fb.MustFinish()

	rng := bv.NewRNG(1)
	var argSets [][]bv.BV
	for i := 0; i < 10; i++ {
		argSets = append(argSets, []bv.BV{rng.BV(64), rng.BV(64)})
	}
	for _, bk := range append(allA64(), allRV()...) {
		runBoth(t, bk, f, argSets, nil)
	}
}

func TestShiftAddFoldsOnHandwritten(t *testing.T) {
	// The handwritten backend must fold shl+add into ADDXrs_lsl; the
	// naive backend must not.
	fb := gmir.NewFunc("fold")
	a := fb.Param(gmir.S64)
	b := fb.Param(gmir.S64)
	sh := fb.Shl(b, fb.Const(gmir.S64, 4))
	fb.Ret(fb.Add(a, sh))
	f := fb.MustFinish()

	mf, rep := a64Set.Handwritten.Select(f)
	if rep.Fallback {
		t.Fatal(rep.FallbackReason)
	}
	s := mf.String()
	if !strings.Contains(s, "ADDXrs_lsl") {
		t.Errorf("handwritten did not fold:\n%s", s)
	}
	mfn, _ := a64Set.Naive.Select(f)
	if strings.Contains(mfn.String(), "ADDXrs_lsl") {
		t.Errorf("naive backend folded:\n%s", mfn.String())
	}
	// And the fold must be cheaper.
	if numInsts(mf) >= numInsts(mfn) {
		t.Errorf("fold not cheaper: %d vs %d", numInsts(mf), numInsts(mfn))
	}
}

func TestLoopWithBranchAndPhi(t *testing.T) {
	// sum of i*i for i in [0,n).
	fb := gmir.NewFunc("sumsq")
	n := fb.Param(gmir.S64)
	entry := fb.Block()
	loop := fb.NewBlock()
	exit := fb.NewBlock()
	zero := fb.Const(gmir.S64, 0)
	fb.Br(loop)
	fb.SetBlock(loop)
	i := fb.Phi(gmir.S64, zero, entry)
	acc := fb.Phi(gmir.S64, zero, entry)
	sq := fb.Mul(i, i)
	acc2 := fb.Add(acc, sq)
	i2 := fb.Add(i, fb.Const(gmir.S64, 1))
	fb.AddPhiIncoming(i, i2, loop)
	fb.AddPhiIncoming(acc, acc2, loop)
	done := fb.ICmp(gmir.PredUGE, i2, n)
	fb.BrCond(done, exit, loop)
	fb.SetBlock(exit)
	fb.Ret(acc2)
	f := fb.MustFinish()

	argSets := [][]bv.BV{{bv.New(64, 1)}, {bv.New(64, 7)}, {bv.New(64, 100)}}
	for _, bk := range append(allA64(), allRV()...) {
		res := runBoth(t, bk, f, argSets, nil)
		if res.Cycles == 0 {
			t.Errorf("%s: zero cycles", bk.Name)
		}
	}
}

func TestBranchFoldingQuality(t *testing.T) {
	// icmp+brcond must fuse into compare-and-branch on the fancy
	// backends: fewer dynamic instructions than the naive one.
	fb := gmir.NewFunc("brfold")
	n := fb.Param(gmir.S64)
	entry := fb.Block()
	loop := fb.NewBlock()
	exit := fb.NewBlock()
	zero := fb.Const(gmir.S64, 0)
	fb.Br(loop)
	fb.SetBlock(loop)
	i := fb.Phi(gmir.S64, zero, entry)
	i2 := fb.Add(i, fb.Const(gmir.S64, 1))
	fb.AddPhiIncoming(i, i2, loop)
	done := fb.ICmp(gmir.PredUGE, i2, n)
	fb.BrCond(done, exit, loop)
	fb.SetBlock(exit)
	fb.Ret(i2)
	f := fb.MustFinish()

	args := [][]bv.BV{{bv.New(64, 50)}}
	fancy := runBoth(t, a64Set.Handwritten, f, args, nil)
	naive := runBoth(t, a64Set.Naive, f, args, nil)
	if fancy.Insts >= naive.Insts {
		t.Errorf("branch folding did not reduce instructions: %d vs %d",
			fancy.Insts, naive.Insts)
	}
}

func TestMemoryKernel(t *testing.T) {
	// dst[i] = src[i]*3 + 1 over bytes; exercises extending loads,
	// truncating stores, and addressing folds.
	fb := gmir.NewFunc("bytes")
	src := fb.Param(gmir.P0)
	dst := fb.Param(gmir.P0)
	n := fb.Param(gmir.S64)
	entry := fb.Block()
	loop := fb.NewBlock()
	exit := fb.NewBlock()
	zero := fb.Const(gmir.S64, 0)
	fb.Br(loop)
	fb.SetBlock(loop)
	i := fb.Phi(gmir.S64, zero, entry)
	sp := fb.PtrAdd(src, i)
	v := fb.Load(gmir.S64, sp, 8)
	v3 := fb.Mul(v, fb.Const(gmir.S64, 3))
	v31 := fb.Add(v3, fb.Const(gmir.S64, 1))
	dp := fb.PtrAdd(dst, i)
	fb.Store(v31, dp, 8)
	i2 := fb.Add(i, fb.Const(gmir.S64, 1))
	fb.AddPhiIncoming(i, i2, loop)
	done := fb.ICmp(gmir.PredUGE, i2, n)
	fb.BrCond(done, exit, loop)
	fb.SetBlock(exit)
	v0 := fb.Load(gmir.S64, dst, 8)
	fb.Ret(v0)
	f := fb.MustFinish()

	init := func(m *gmir.Memory) {
		for i := 0; i < 64; i++ {
			m.Store(0x1000+uint64(i), bv.New(8, uint64(i*7%256)), 8)
		}
	}
	args := [][]bv.BV{{bv.New(64, 0x1000), bv.New(64, 0x2000), bv.New(64, 32)}}
	for _, bk := range append(allA64(), allRV()...) {
		runBoth(t, bk, f, args, init)
	}
}

func TestSelectAndCompare(t *testing.T) {
	// max3(a, b, c) via selects.
	fb := gmir.NewFunc("max3")
	a := fb.Param(gmir.S64)
	b := fb.Param(gmir.S64)
	c := fb.Param(gmir.S64)
	m1 := fb.Select(fb.ICmp(gmir.PredSGT, a, b), a, b)
	m2 := fb.Select(fb.ICmp(gmir.PredSGT, m1, c), m1, c)
	fb.Ret(m2)
	f := fb.MustFinish()

	rng := bv.NewRNG(3)
	var argSets [][]bv.BV
	for i := 0; i < 20; i++ {
		argSets = append(argSets, []bv.BV{rng.BV(64), rng.BV(64), rng.BV(64)})
	}
	for _, bk := range append(allA64(), allRV()...) {
		runBoth(t, bk, f, argSets, nil)
	}
}

func TestZextICmpChains(t *testing.T) {
	// count = zext(a<b) + zext(b==c) + zext(a>=c unsigned)
	fb := gmir.NewFunc("cmps")
	a := fb.Param(gmir.S64)
	b := fb.Param(gmir.S64)
	c := fb.Param(gmir.S64)
	z1 := fb.ZExt(gmir.S64, fb.ICmp(gmir.PredSLT, a, b))
	z2 := fb.ZExt(gmir.S64, fb.ICmp(gmir.PredEQ, b, c))
	z3 := fb.ZExt(gmir.S64, fb.ICmp(gmir.PredUGE, a, c))
	fb.Ret(fb.Add(fb.Add(z1, z2), z3))
	f := fb.MustFinish()
	rng := bv.NewRNG(4)
	var argSets [][]bv.BV
	for i := 0; i < 20; i++ {
		argSets = append(argSets, []bv.BV{rng.BV(64), rng.BV(64), rng.BV(64)})
	}
	for _, bk := range append(allA64(), allRV()...) {
		runBoth(t, bk, f, argSets, nil)
	}
}

func TestConstantsAllSizes(t *testing.T) {
	consts := []uint64{0, 1, 42, 4095, 4096, 0xffff, 0x12340000,
		0xffffffff, 0x1234567890abcdef, ^uint64(0), 0xbeef000000000000}
	for _, cv := range consts {
		fb := gmir.NewFunc("konst")
		a := fb.Param(gmir.S64)
		fb.Ret(fb.Add(a, fb.Const(gmir.S64, cv)))
		f := fb.MustFinish()
		args := [][]bv.BV{{bv.New(64, 17)}}
		for _, bk := range append(allA64(), allRV()...) {
			runBoth(t, bk, f, args, nil)
		}
	}
	// Smart materialization beats naive chunking on a value with only
	// high bits set (the paper's §VIII-C example).
	fb := gmir.NewFunc("hi16")
	a := fb.Param(gmir.S64)
	fb.Ret(fb.Or(a, fb.Const(gmir.S64, 0xbeef000000000000)))
	f := fb.MustFinish()
	smart, _ := a64Set.Handwritten.Select(f)
	fbn := gmir.NewFunc("hi16b")
	an := fbn.Param(gmir.S64)
	fbn.Ret(fbn.Or(an, fbn.Const(gmir.S64, 0xbeef000000000000)))
	fn := fbn.MustFinish()
	naive, _ := a64Set.Naive.Select(fn)
	if numInsts(smart) >= numInsts(naive) {
		t.Errorf("smart constants not smaller: %d vs %d\n%s", numInsts(smart), numInsts(naive), smart)
	}
}

func TestDivRem(t *testing.T) {
	fb := gmir.NewFunc("divrem")
	a := fb.Param(gmir.S64)
	b := fb.Param(gmir.S64)
	q := fb.UDiv(a, b)
	r := fb.Binary(gmir.GSRem, a, b)
	fb.Ret(fb.Xor(q, r))
	f := fb.MustFinish()
	// AArch64 lacks a remainder instruction: legalize rem away first.
	gmir.LowerRem(f)
	rng := bv.NewRNG(5)
	var argSets [][]bv.BV
	for i := 0; i < 10; i++ {
		argSets = append(argSets, []bv.BV{rng.BV(64), rng.BV(64)})
	}
	argSets = append(argSets, []bv.BV{bv.New(64, 5), bv.Zero(64)}) // div by zero
	for _, bk := range allA64() {
		runBoth(t, bk, f, argSets, nil)
	}
	// RISC-V has REM/REMU natively.
	fb2 := gmir.NewFunc("divrem2")
	a2 := fb2.Param(gmir.S64)
	b2 := fb2.Param(gmir.S64)
	fb2.Ret(fb2.Xor(fb2.UDiv(a2, b2), fb2.Binary(gmir.GSRem, a2, b2)))
	f2 := fb2.MustFinish()
	for _, bk := range allRV() {
		runBoth(t, bk, f2, argSets, nil)
	}
}

func TestFallbackReported(t *testing.T) {
	// A function using an op with no rule and no hook must report
	// fallback, not crash: the G_CTPOP hook expansion only handles the
	// legal 32/64-bit widths, and nothing covers a raw s16 popcount.
	fb := gmir.NewFunc("pop")
	a := fb.Param(gmir.S16)
	fb.Ret(fb.Unary(gmir.GCtpop, a))
	f := fb.MustFinish()
	_, rep := a64Set.Handwritten.Select(f)
	if !rep.Fallback {
		t.Error("expected fallback for ctpop")
	}
	if rep.FallbackReason == "" {
		t.Error("empty fallback reason")
	}
}

func TestReportCountsRules(t *testing.T) {
	fb := gmir.NewFunc("counts")
	a := fb.Param(gmir.S64)
	b := fb.Param(gmir.S64)
	fb.Ret(fb.Add(a, fb.Shl(b, fb.Const(gmir.S64, 2))))
	f := fb.MustFinish()
	_, rep := a64Set.Handwritten.Select(f)
	if rep.RuleInsts < 2 {
		t.Errorf("rule insts = %d", rep.RuleInsts)
	}
	if len(rep.RulesUsed) == 0 {
		t.Error("no rules recorded")
	}
}

// numInsts counts a machine function's instructions (pseudos included).
func numInsts(f *mir.Func) int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Insts)
	}
	return n
}
