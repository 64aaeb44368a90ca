// The paper's running example, end to end on the real AArch64 target:
// the gMIR function of Fig. 2 (add with a shifted operand), the canonical
// forms that make the term-index lookup succeed (Figs. 4 and 5), the
// generated TableGen-style rule (Listing 1), and the selected ADDXrs
// machine code — plus the Fig. 10 greedy-matching artifact.
//
//	go run ./examples/addshift
package main

import (
	"fmt"
	"log"

	"iselgen/internal/bv"
	"iselgen/internal/canon"
	"iselgen/internal/core"
	"iselgen/internal/gmir"
	"iselgen/internal/harness"
	"iselgen/internal/isel"
	"iselgen/internal/pattern"
	"iselgen/internal/rules"
	"iselgen/internal/sim"
	"iselgen/internal/solver"
	"iselgen/internal/term"
)

func main() {
	// --- Fig. 4: syntactically different subtraction terms share one
	// canonical form. ---
	tb := term.NewBuilder()
	cx := canon.NewCtx()
	a := tb.Reg("a", 16)
	b := tb.Reg("b", 16)
	t1 := tb.Add(tb.Add(a, tb.Not(b)), tb.Const(16, 1)) // a + ~b + 1
	t2 := tb.Add(a, tb.Mul(tb.ConstInt(16, -1), b))     // a + (-1)*b
	fmt.Println("Fig. 4 — canonicalization:")
	fmt.Printf("  I  : %s\n", t1)
	fmt.Printf("  II : %s\n", t2)
	fmt.Printf("  canonical (both): %s\n", cx.Canon(t1))
	if cx.Canon(t1) != cx.Canon(t2) {
		log.Fatal("canonical forms differ!")
	}

	// --- Load AArch64 and synthesize the shift-and-add rule. ---
	s, err := harness.New("aarch64")
	if err != nil {
		log.Fatal(err)
	}
	memo := solver.New(0)
	synth := core.New(s.B, s.ISA, core.Config{TestInputs: 64, Workers: 4, Verdicts: memo})
	synth.BuildPool()

	p := pattern.New(pattern.Op(gmir.GAdd, gmir.S64,
		pattern.Leaf(gmir.S64),
		pattern.Op(gmir.GShl, gmir.S64, pattern.Leaf(gmir.S64), pattern.ImmLeaf(gmir.S64))))
	rule := synth.SynthesizeOne(p)
	if rule == nil {
		log.Fatal("no rule synthesized for the shift-and-add pattern")
	}
	fmt.Printf("\nListing 1 — the synthesized rule (found via the %s path):\n%s\n",
		rule.Source, rule)

	// --- Fig. 2: lower the example function through the backend. ---
	lib := rules.NewLibrary("aarch64")
	lib.Add(rule)
	for _, extra := range []*pattern.Pattern{
		pattern.New(pattern.Op(gmir.GAdd, gmir.S64, pattern.Leaf(gmir.S64), pattern.Leaf(gmir.S64))),
		pattern.New(pattern.Op(gmir.GShl, gmir.S64, pattern.Leaf(gmir.S64), pattern.ImmLeaf(gmir.S64))),
	} {
		if r := synth.SynthesizeOne(extra); r != nil {
			lib.Add(r)
		}
	}
	backend := isel.NewA64Synth(s.ISA, lib)

	fb := gmir.NewFunc("fig2")
	x := fb.Param(gmir.S64)
	y := fb.Param(gmir.S64)
	c := fb.Const(gmir.S64, 4)
	sh := fb.Shl(y, c)
	fb.Ret(fb.Add(x, sh))
	f := fb.MustFinish()
	fmt.Printf("\nFig. 2 — gMIR input:\n%s", f)

	mf, rep := backend.Select(f)
	if rep.Fallback {
		log.Fatalf("fallback: %s", rep.FallbackReason)
	}
	fmt.Printf("\nFig. 2 — selected MIR (G_SHL and G_ADD folded into ADDXrs):\n%s", mf)

	m := &sim.Machine{}
	res, err := m.Run(mf, []bv.BV{bv.New(64, 100), bv.New(64, 3)})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nf(100, 3) = %v (want %d)\n", res.Ret.Lo, 100+3<<4)

	// --- Fig. 10: the greedy-matching artifact. ---
	fb2 := gmir.NewFunc("fig10")
	x10 := fb2.Param(gmir.S64)
	x11 := fb2.Param(gmir.S64)
	w1 := fb2.Param(gmir.S64)
	w2 := fb2.Param(gmir.S64)
	cmp := fb2.ICmp(gmir.PredEQ, x10, x11)
	selv := fb2.Select(cmp, w1, w2)
	zext := fb2.ZExt(gmir.S64, cmp)
	fb2.Ret(fb2.Xor(selv, zext))
	f2 := fb2.MustFinish()
	cfg := core.DefaultConfig()
	cfg.Verdicts = memo
	s.Synthesize(cfg, 0)
	mf2, rep2 := s.Synth.Select(f2)
	if rep2.Fallback {
		log.Fatalf("fig10 fallback: %s", rep2.FallbackReason)
	}
	fmt.Printf("\nFig. 10 — greedy matching re-derives the comparison for the\n"+
		"select (both the select and the zero-extension claim it):\n%s", mf2)
}
