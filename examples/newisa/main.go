// Retargeting (§VI-B): define a brand-new accumulator-flavored ISA in
// the spec DSL, synthesize its instruction selector from scratch, and
// run a real workload through it — the paper's claim that the synthesis
// is agnostic to the target and "can reduce the effort of backend
// development".
//
//	go run ./examples/newisa
package main

import (
	"fmt"
	"log"

	"iselgen/internal/bench"
	"iselgen/internal/bv"
	"iselgen/internal/core"
	"iselgen/internal/gmir"
	"iselgen/internal/harness"
	"iselgen/internal/isa"
	"iselgen/internal/isel"
	"iselgen/internal/mir"
	"iselgen/internal/rules"
	"iselgen/internal/sim"
	"iselgen/internal/solver"
	"iselgen/internal/term"
)

// The "ZetaCore" ISA: a fictional RISC with reverse-subtract, fused
// shift-or, compare-into-register, and auto-scaling loads. Nobody ever
// wrote an instruction selector for it — the synthesizer will.
const zetaSpec = `
inst zadd(a: reg64, b: reg64)    { rd = a + b; } enc(32) { [5:0]=0x01; [10:6]=rd; [15:11]=a; [20:16]=b; [31:21]=0; }
inst zaddk(a: reg64, k: imm16)   { rd = a + zext(k, 64); } enc(32) { [5:0]=0x02; [10:6]=rd; [15:11]=a; [31:16]=k; }
inst zrsub(a: reg64, b: reg64)   { rd = b - a; } enc(32) { [5:0]=0x03; [10:6]=rd; [15:11]=a; [20:16]=b; [31:21]=0; }
inst zmul(a: reg64, b: reg64)    { rd = a * b; } enc(32) { [5:0]=0x04; [10:6]=rd; [15:11]=a; [20:16]=b; [31:21]=0; }
inst zand(a: reg64, b: reg64)    { rd = a & b; } enc(32) { [5:0]=0x05; [10:6]=rd; [15:11]=a; [20:16]=b; [31:21]=0; }
inst zandk(a: reg64, k: imm16)   { rd = a & zext(k, 64); } enc(32) { [5:0]=0x06; [10:6]=rd; [15:11]=a; [31:16]=k; }
inst zor(a: reg64, b: reg64)     { rd = a | b; } enc(32) { [5:0]=0x07; [10:6]=rd; [15:11]=a; [20:16]=b; [31:21]=0; }
inst zxor(a: reg64, b: reg64)    { rd = a ^ b; } enc(32) { [5:0]=0x08; [10:6]=rd; [15:11]=a; [20:16]=b; [31:21]=0; }
inst zshl(a: reg64, s: imm6)     { rd = a << zext(s, 64); } enc(32) { [5:0]=0x09; [10:6]=rd; [15:11]=a; [21:16]=s; [31:22]=0; }
inst zshr(a: reg64, s: imm6)     { rd = a >> zext(s, 64); } enc(32) { [5:0]=0x0a; [10:6]=rd; [15:11]=a; [21:16]=s; [31:22]=0; }
inst zsar(a: reg64, s: imm6)     { rd = ashr(a, zext(s, 64)); } enc(32) { [5:0]=0x0b; [10:6]=rd; [15:11]=a; [21:16]=s; [31:22]=0; }
inst zshlv(a: reg64, b: reg64)   { rd = a << (b % 64:64); } enc(32) { [5:0]=0x0c; [10:6]=rd; [15:11]=a; [20:16]=b; [31:21]=0; }
inst zshrv(a: reg64, b: reg64)   { rd = a >> (b % 64:64); } enc(32) { [5:0]=0x0d; [10:6]=rd; [15:11]=a; [20:16]=b; [31:21]=0; }
inst zsarv(a: reg64, b: reg64)   { rd = ashr(a, b % 64:64); } enc(32) { [5:0]=0x0e; [10:6]=rd; [15:11]=a; [20:16]=b; [31:21]=0; }
inst zshor(a: reg64, b: reg64, s: imm6) { rd = a | (b << zext(s, 64)); } enc(32) { [5:0]=0x0f; [10:6]=rd; [15:11]=a; [20:16]=b; [26:21]=s; [31:27]=0; }
inst zshadd(a: reg64, b: reg64, s: imm6) { rd = a + (b << zext(s, 64)); } enc(32) { [5:0]=0x10; [10:6]=rd; [15:11]=a; [20:16]=b; [26:21]=s; [31:27]=0; }
inst zsetlt(a: reg64, b: reg64)  { rd = zext(slt(a, b), 64); } enc(32) { [5:0]=0x11; [10:6]=rd; [15:11]=a; [20:16]=b; [31:21]=0; }
inst zsetltu(a: reg64, b: reg64) { rd = zext(ult(a, b), 64); } enc(32) { [5:0]=0x12; [10:6]=rd; [15:11]=a; [20:16]=b; [31:21]=0; }
inst zsetnz(a: reg64)            { rd = zext(a != 0, 64); } enc(32) { [5:0]=0x13; [10:6]=rd; [15:11]=a; [31:16]=0; }
inst zsetz(a: reg64)             { rd = zext(a == 0, 64); } enc(32) { [5:0]=0x14; [10:6]=rd; [15:11]=a; [31:16]=0; }
inst zdiv(a: reg64, b: reg64)    { rd = udiv(a, b); } enc(32) { [5:0]=0x15; [10:6]=rd; [15:11]=a; [20:16]=b; [31:21]=0; }
inst zdivs(a: reg64, b: reg64)   { rd = sdiv(a, b); } enc(32) { [5:0]=0x16; [10:6]=rd; [15:11]=a; [20:16]=b; [31:21]=0; }
inst zld(a: reg64, k: imm12)     { rd = load(a + zext(k, 64), 64); } enc(32) { [5:0]=0x17; [10:6]=rd; [15:11]=a; [27:16]=k; [31:28]=0; }
inst zld1(a: reg64, k: imm12)    { rd = zext(load(a + zext(k, 64), 8), 64); } enc(32) { [5:0]=0x18; [10:6]=rd; [15:11]=a; [27:16]=k; [31:28]=0; }
inst zld1s(a: reg64, k: imm12)   { rd = sext(load(a + zext(k, 64), 8), 64); } enc(32) { [5:0]=0x19; [10:6]=rd; [15:11]=a; [27:16]=k; [31:28]=0; }
inst zldx(a: reg64, b: reg64)    { rd = load(a + b, 64); } enc(32) { [5:0]=0x1a; [10:6]=rd; [15:11]=a; [20:16]=b; [31:21]=0; }
inst zst(v: reg64, a: reg64, k: imm12)  { mem[a + zext(k, 64), 64] = v; } enc(32) { [5:0]=0x1b; [10:6]=v; [15:11]=a; [27:16]=k; [31:28]=0; }
inst zst1(v: reg64, a: reg64, k: imm12) { mem[a + zext(k, 64), 8] = trunc(v, 8); } enc(32) { [5:0]=0x1c; [10:6]=v; [15:11]=a; [27:16]=k; [31:28]=0; }
inst zjmp(off: imm20)            { pc = pc + sext(off, 64); } enc(32) { [5:0]=0x1d; [25:6]=off; [31:26]=0; }
inst zbnz(c: reg64, off: imm16)  { if (c != 0) { pc = pc + sext(off, 64); } } enc(32) { [5:0]=0x1e; [10:6]=c; [26:11]=off; [31:27]=0; }
inst zbz(c: reg64, off: imm16)   { if (c == 0) { pc = pc + sext(off, 64); } } enc(32) { [5:0]=0x1f; [10:6]=c; [26:11]=off; [31:27]=0; }
`

func main() {
	b := term.NewBuilder()
	target, err := isa.LoadTarget(b, "zeta", zetaSpec, map[string]int{
		"zld": 3, "zld1": 3, "zld1s": 3, "zldx": 3, "zmul": 3, "zdiv": 14, "zdivs": 14,
	}, 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ZetaCore: %d instructions specified, zero selector code written\n",
		len(target.Insts))

	// Synthesize the rule library against the standard pattern corpus.
	synth := core.New(b, target, core.Config{TestInputs: 96, Workers: 4, Verdicts: solver.New(0)})
	synth.BuildPool()
	lib := rules.NewLibrary("zeta")
	synth.Synthesize(harness.CorpusPatterns("zeta", 0), lib)
	fmt.Printf("pool: %d sequences; synthesized %d rules (index %d, SMT %d)\n",
		synth.Stats.Sequences, lib.Len(), synth.Stats.IndexRules, synth.Stats.SMTRules)

	// Backend hooks: constants and branches still need the usual manual
	// glue (§VI-B: "a complete backend still requires additional
	// components").
	backend := &isel.Backend{Name: "zeta-synth", ISA: target, Lib: lib, Hooks: isel.Hooks{
		MatConst:    zetaMatConst,
		LowerBrCond: zetaBrCond,
		LowerInst:   zetaLowerInst,
	}}

	// Run the whole SPEC-analog suite on the brand-new backend.
	fmt.Println("\nworkload results (validated against the gMIR interpreter):")
	for _, w := range bench.Suite(1) {
		refMem := gmir.NewMemory()
		if w.InitMem != nil {
			w.InitMem(refMem)
		}
		ip := &gmir.Interp{Mem: refMem}
		want, err := ip.Run(w.Build(), w.Args...)
		if err != nil {
			log.Fatal(err)
		}
		f := w.Build()
		gmir.CSEConstants(f)
		gmir.LowerRem(f)
		gmir.LowerAbs(f)
		mf, rep := backend.Select(f)
		if rep.Fallback {
			fmt.Printf("  %-18s FALLBACK (%s)\n", w.Name, rep.FallbackReason)
			continue
		}
		mem := gmir.NewMemory()
		if w.InitMem != nil {
			w.InitMem(mem)
		}
		m := &sim.Machine{Mem: mem}
		res, err := m.Run(mf, w.Args)
		if err != nil {
			log.Fatal(err)
		}
		status := "✓"
		if sim.Adjust(res.Ret, 64) != want {
			status = "MISMATCH"
		}
		fmt.Printf("  %-18s %10d cycles  %6d bytes  %s\n",
			w.Name, res.Cycles, mf.BinarySize(), status)
	}
}

// zetaMatConst materializes constants with zaddk/zshl chains.
func zetaMatConst(c *isel.Ctx, v bv.BV) (mir.Reg, bool) {
	if v.W() > 64 {
		return 0, false
	}
	val := v.ZExt(64).Lo
	zero := c.NewReg() // never-written registers read as zero
	dst := c.NewReg()
	c.Emit(&mir.Inst{Meta: c.Inst("zaddk"), Dsts: []mir.Reg{dst},
		Args: []mir.Operand{mir.R(zero), mir.I(bv.New(16, val>>48))}})
	for _, sh := range []uint64{32, 16, 0} {
		chunk := val >> sh & 0xffff
		c.Emit(&mir.Inst{Meta: c.Inst("zshl"), Dsts: []mir.Reg{dst},
			Args: []mir.Operand{mir.R(dst), mir.I(bv.New(6, 16))}})
		if chunk != 0 {
			c.Emit(&mir.Inst{Meta: c.Inst("zaddk"), Dsts: []mir.Reg{dst},
				Args: []mir.Operand{mir.R(dst), mir.I(bv.New(16, chunk))}})
		}
	}
	return dst, true
}

// zetaBrCond branches on the boolean register.
func zetaBrCond(c *isel.Ctx, cond gmir.Value, taken int, invert bool) bool {
	name := "zbnz"
	if invert {
		name = "zbz"
	}
	c.Emit(&mir.Inst{Meta: c.Inst(name),
		Args:  []mir.Operand{mir.R(c.ValueReg(cond)), mir.I(bv.Zero(16))},
		Succs: []int{taken}})
	return true
}

// zetaLowerInst expands select via the mask idiom (ZetaCore has no
// conditional move either).
func zetaLowerInst(c *isel.Ctx, in *gmir.Inst) bool {
	pick := func(cond, x, y mir.Reg, dst mir.Reg) {
		mask := c.NewReg()
		xorv := c.NewReg()
		andv := c.NewReg()
		zero := c.NewReg()
		c.Emit(&mir.Inst{Meta: c.Inst("zrsub"), Dsts: []mir.Reg{mask},
			Args: []mir.Operand{mir.R(cond), mir.R(zero)}}) // 0 - cond
		c.Emit(&mir.Inst{Meta: c.Inst("zxor"), Dsts: []mir.Reg{xorv},
			Args: []mir.Operand{mir.R(x), mir.R(y)}})
		c.Emit(&mir.Inst{Meta: c.Inst("zand"), Dsts: []mir.Reg{andv},
			Args: []mir.Operand{mir.R(xorv), mir.R(mask)}})
		c.Emit(&mir.Inst{Meta: c.Inst("zxor"), Dsts: []mir.Reg{dst},
			Args: []mir.Operand{mir.R(y), mir.R(andv)}})
	}
	switch in.Op {
	case gmir.GSelect:
		pick(c.ValueReg(in.Args[0]), c.ValueReg(in.Args[1]), c.ValueReg(in.Args[2]),
			c.EnsureReg(in.Dst))
		return true
	case gmir.GUMin, gmir.GUMax, gmir.GSMin, gmir.GSMax:
		a, bb := c.ValueReg(in.Args[0]), c.ValueReg(in.Args[1])
		cond := c.NewReg()
		cmp := "zsetltu"
		if in.Op == gmir.GSMin || in.Op == gmir.GSMax {
			cmp = "zsetlt"
		}
		c.Emit(&mir.Inst{Meta: c.Inst(cmp), Dsts: []mir.Reg{cond},
			Args: []mir.Operand{mir.R(a), mir.R(bb)}})
		x, y := a, bb
		if in.Op == gmir.GUMax || in.Op == gmir.GSMax {
			x, y = bb, a
		}
		pick(cond, x, y, c.EnsureReg(in.Dst))
		return true
	}
	return false
}
