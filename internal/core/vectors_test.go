package core

import (
	"fmt"
	"testing"
	"time"

	"iselgen/internal/bv"
	"iselgen/internal/gmir"
	"iselgen/internal/isa"
	"iselgen/internal/pattern"
	"iselgen/internal/spec"
	"iselgen/internal/term"
)

// programDigests evaluates t's compiled program on the first n test
// vectors: the reference the vector memos are checked against.
func programDigests(t *term.Term, ic *inputCache, n int) []uint64 {
	p := term.Compile(t)
	vals := make([]bv.BV, len(p.Vars()))
	var out []uint64
	for j := range n {
		for i, v := range p.Vars() {
			r := ic.vecs(nameHash(v.Name))[j]
			vals[i] = bv.New128(v.Width, r.Hi, r.Lo)
		}
		out = append(out, digest(p.Run(vals)))
	}
	return out
}

// TestVectorMemosNameAtTwoWidthsCompiles: an entry with a variable whose
// name the worker's memos already hold at another width compiles its
// program, and its digests are the ones the program gives. One builder
// declares a name at one width only, so the two entries come from two.
func TestVectorMemosNameAtTwoWidthsCompiles(t *testing.T) {
	b32, b64 := term.NewBuilder(), term.NewBuilder()
	narrow := &PoolEntry{evalN: 8, Effect: spec.Effect{T: b32.Add(b32.VarT("x", term.KindReg, 32), b32.Const(32, 1))}}
	wide := &PoolEntry{evalN: 8, Effect: spec.Effect{T: b64.Add(b64.VarT("x", term.KindReg, 64), b64.Const(64, 1))}}
	ic, vm := newInputCache(8), newVectorMemos()
	var d time.Duration
	narrow.digestsUpTo(memoVectors, ic, vm, &d)
	got := wide.digestsUpTo(memoVectors, ic, vm, &d)
	if narrow.prog != nil {
		t.Error("the first entry compiled a program, though its names were free")
	}
	if wide.prog == nil {
		t.Fatal("an entry whose name is bound at another width evaluated under the memos")
	}
	want := programDigests(wide.Effect.T, ic, memoVectors)
	for j := range want {
		if got[j] != want[j] {
			t.Errorf("vector %d: digest %x, compiled program gives %x", j, got[j], want[j])
		}
	}
}

// TestPrecheckPastMemoVectorsCompiles: a 16-bit immediate leaf bound to a
// 12-bit immediate input can use only the vectors whose value fits, and
// when none of the memoized vectors does, the precheck compares a later
// vector through the entry's compiled program and agrees with the probe.
func TestPrecheckPastMemoVectorsCompiles(t *testing.T) {
	s := &Synthesizer{Cfg: Config{TestInputs: 128}}
	w := s.newWorker()
	p := pattern.New(pattern.Op(gmir.GAdd, gmir.S16, pattern.Leaf(gmir.S16), pattern.ImmLeaf(gmir.S16)))
	tp, err := p.Compile(w.wb)
	if err != nil {
		t.Fatal(err)
	}
	leaves := p.Leaves()
	asg := []int{0, 1}
	b := term.NewBuilder()
	rs := b.VarT("rs", term.KindReg, 16)
	// The immediate's name picks its test vectors; take the first name
	// none of whose memoized vectors fits in 12 bits.
	for i := range 100 {
		imm := b.VarT(fmt.Sprintf("imm%d", i), term.KindImm, 12)
		seq := &isa.Sequence{Inputs: []isa.SeqOperand{
			{Var: rs, Op: spec.Operand{Name: "rs", Kind: spec.OpReg, Width: 16}},
			{Var: imm, Op: spec.Operand{Name: "imm", Kind: spec.OpImm, Width: 12}},
		}}
		entry := &PoolEntry{
			evalN:  s.Cfg.TestInputs,
			Seq:    seq,
			inHash: inputHashes(seq),
			Effect: spec.Effect{T: b.Add(rs, b.ZExt(16, imm))},
		}
		pp := newPatternProbe(tp, leaves)
		var d time.Duration
		passed := w.precheck(pp, entry, asg, &d)
		lv := pp.lead[inputKeyOf(entry, asg)]
		if lv.n == 0 || lv.j[0] < memoVectors {
			continue
		}
		if entry.prog == nil {
			t.Fatalf("vector %d compared without a compiled program", lv.j[0])
		}
		if !passed || !w.probeRun(pp, entry, asg, &d) {
			t.Fatalf("precheck %t on an entry that computes the pattern", passed)
		}
		return
	}
	t.Fatal("every immediate name had a usable memoized vector: the compile path was not exercised")
}
