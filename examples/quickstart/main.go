// Quickstart: synthesize an instruction selector for a five-instruction
// toy ISA, end to end — specification, synthesis, selection, simulation.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"iselgen/internal/bv"
	"iselgen/internal/core"
	"iselgen/internal/gmir"
	"iselgen/internal/isa"
	"iselgen/internal/isel"
	"iselgen/internal/mir"
	"iselgen/internal/pattern"
	"iselgen/internal/rules"
	"iselgen/internal/sim"
	"iselgen/internal/solver"
	"iselgen/internal/term"
)

// Step 1 — a formal ISA specification in the spec DSL. Each instruction
// declares operands and describes its effects; the framework symbolically
// executes the bodies into bitvector terms (the role SAIL + ISLA play in
// the paper).
const toySpec = `
inst ADD(a: reg64, b: reg64)   { rd = a + b; }
inst ADDI(a: reg64, imm: imm12){ rd = a + zext(imm, 64); }
inst SHL(a: reg64, sh: imm6)   { rd = a << zext(sh, 64); }
inst SHADD(a: reg64, b: reg64, sh: imm6) { rd = a + (b << zext(sh, 64)); }
inst LDR(a: reg64, imm: imm12) { rd = load(a + zext(imm, 64), 64); }
`

func main() {
	// Step 2 — load the target: parse + symbolically execute the spec.
	b := term.NewBuilder()
	target, err := isa.LoadTarget(b, "toy", toySpec, nil, 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %d instructions\n", len(target.Insts))

	// Step 3 — build the synthesis pool: enumerate instruction sequences,
	// canonicalize their effects, index them, cache test evaluations.
	// Verdicts is the SMT verdict memo; a later run handed the same store
	// reuses every proof this one settles.
	synth := core.New(b, target, core.Config{TestInputs: 64, Workers: 2, Verdicts: solver.New(0)})
	synth.BuildPool()
	fmt.Printf("pool: %d sequences, %d indexed\n",
		synth.Stats.Sequences, synth.Stats.IndexEntries)

	// Step 4 — ask for rules covering the IR patterns we care about.
	r64 := func() *pattern.Node { return pattern.Leaf(gmir.S64) }
	i64 := func() *pattern.Node { return pattern.ImmLeaf(gmir.S64) }
	patterns := []*pattern.Pattern{
		pattern.New(pattern.Op(gmir.GAdd, gmir.S64, r64(), r64())),
		pattern.New(pattern.Op(gmir.GAdd, gmir.S64, r64(), i64())),
		pattern.New(pattern.Op(gmir.GShl, gmir.S64, r64(), i64())),
		// The paper's running example: shift-and-add folds into SHADD.
		pattern.New(pattern.Op(gmir.GAdd, gmir.S64, r64(),
			pattern.Op(gmir.GShl, gmir.S64, r64(), i64()))),
		pattern.New(pattern.LoadOp(gmir.GLoad, gmir.S64, 64,
			pattern.Op(gmir.GPtrAdd, gmir.P0, r64(), i64()))),
		pattern.New(pattern.Op(gmir.GPtrAdd, gmir.P0, r64(), i64())),
		pattern.New(pattern.Op(gmir.GPtrAdd, gmir.P0, r64(), r64())),
	}
	lib := rules.NewLibrary("toy")
	synth.Synthesize(patterns, lib)
	fmt.Printf("synthesized %d rules:\n", lib.Len())
	for _, r := range lib.Rules {
		fmt.Printf("  %s\n", r)
	}

	// Step 5 — use the rules to select a function:
	//   f(p, x) = load(p+8) + (x << 4)
	fb := gmir.NewFunc("f")
	p := fb.Param(gmir.P0)
	x := fb.Param(gmir.S64)
	addr := fb.PtrAdd(p, fb.Const(gmir.S64, 8))
	v := fb.Load(gmir.S64, addr, 64)
	sh := fb.Shl(x, fb.Const(gmir.S64, 4))
	fb.Ret(fb.Add(v, sh))
	f := fb.MustFinish()

	backend := &isel.Backend{Name: "toy-synth", ISA: target, Lib: lib,
		Hooks: isel.Hooks{
			MatConst: func(c *isel.Ctx, v bv.BV) (mir.Reg, bool) {
				// Toy materializer: ADDI from an unwritten (zero) register.
				if v.W() > 64 || v.ZExt(64).Lo > 4095 {
					return 0, false
				}
				zero := c.NewReg()
				dst := c.NewReg()
				c.Emit(&mir.Inst{Meta: c.Inst("ADDI"), Dsts: []mir.Reg{dst},
					Args: []mir.Operand{mir.R(zero), mir.I(v.ZExt(64).Trunc(12))}})
				return dst, true
			},
		}}
	mf, report := backend.Select(f)
	if report.Fallback {
		log.Fatalf("selection fell back: %s", report.FallbackReason)
	}
	fmt.Printf("\nselected machine code:\n%s", mf)

	// Step 6 — run it on the simulator and cross-check the interpreter.
	mem := gmir.NewMemory()
	mem.Store(0x1008, bv.New(64, 100), 64)
	m := &sim.Machine{Mem: mem}
	res, err := m.Run(mf, []bv.BV{bv.New(64, 0x1000), bv.New(64, 3)})
	if err != nil {
		log.Fatal(err)
	}
	ipMem := gmir.NewMemory()
	ipMem.Store(0x1008, bv.New(64, 100), 64)
	ip := &gmir.Interp{Mem: ipMem}
	want, _ := ip.Run(f, bv.New(64, 0x1000), bv.New(64, 3))
	fmt.Printf("\nsimulated result: %v (cycles %d) — interpreter says %v\n",
		res.Ret, res.Cycles, want)
	if res.Ret != want {
		log.Fatal("MISMATCH")
	}
	fmt.Println("results agree ✓")
}
