package enc

import (
	"fmt"

	"iselgen/internal/bv"
	"iselgen/internal/gmir"
	"iselgen/internal/isa"
	"iselgen/internal/spec"
)

// Emulator executes machine code at the byte level: fetch, decode
// through the trie, bind the decoded fields to the instruction's input
// layout, and run the very effect terms the synthesis consumed, as the
// programs the target compiled at load (isa.Instruction.Exec) — the
// MIR simulator's executor, with pc bound to the real PC. Where the MIR
// simulator trusts the instruction stream, the emulator trusts only the
// bytes — which is what makes it the far side of the round-trip oracle.
type Emulator struct {
	Codec *Codec
	Mem   *gmir.Memory
	// MaxSteps bounds execution (default 200M instructions).
	MaxSteps int64

	frame isa.Frame
}

// EmuResult reports one machine-code execution.
type EmuResult struct {
	Ret    bv.BV
	HasRet bool
	Insts  int64
	Flags  map[string]bv.BV
}

// Run executes an image with the given arguments until the PC reaches
// the end of the code.
func (e *Emulator) Run(img *Image, args []bv.BV) (EmuResult, error) {
	if e.Mem == nil {
		e.Mem = gmir.NewMemory()
	}
	maxSteps := e.MaxSteps
	if maxSteps == 0 {
		maxSteps = 200_000_000
	}
	if len(args) != len(img.ParamRegs) {
		return EmuResult{}, fmt.Errorf("enc: image takes %d args, got %d", len(img.ParamRegs), len(args))
	}
	regs := make([]bv.BV, 1<<uint(e.Codec.Target.RegNumBits))
	for i, p := range img.ParamRegs {
		regs[p] = args[i]
	}
	e.frame.Reset()

	res := EmuResult{}
	pc := img.Base
	end := img.End()
	for pc != end {
		if pc < img.Base || pc > end {
			return res, fmt.Errorf("enc: pc %#x outside image [%#x,%#x)", pc, img.Base, end)
		}
		if res.Insts++; res.Insts > maxSteps {
			return res, fmt.Errorf("enc: step limit exceeded at pc %#x", pc)
		}
		ic, ops, size, err := e.Codec.DecodeAt(img.Code, int(pc-img.Base))
		if err != nil {
			return res, fmt.Errorf("enc: fetch at pc %#x: %w", pc, err)
		}
		nextPC, err := e.step(ic, ops, regs, pc, uint64(size))
		if err != nil {
			return res, fmt.Errorf("enc: pc %#x (%s): %w", pc, ic.Inst.Name, err)
		}
		pc = nextPC
	}
	res.Flags = e.frame.FlagMap()
	if img.RetReg >= 0 {
		res.Ret = regs[img.RetReg]
		res.HasRet = true
	}
	return res, nil
}

// step executes one decoded instruction and returns the next PC.
func (e *Emulator) step(ic *InstCodec, ops Operands, regs []bv.BV, pc, size uint64) (uint64, error) {
	in := ic.Inst
	vals := e.frame.Begin(in, pc)
	for i, op := range in.Operands {
		if op.Kind == spec.OpImm {
			vals[i] = ops.Imms[op.Name]
		} else {
			vals[i] = adjust(regs[ops.Regs[op.Name]], op.Width)
		}
	}

	next := pc + size
	for k, eff := range in.Effects {
		x := &in.Exec[k]
		switch eff.Kind {
		case spec.EffReg:
			dst := ops.Rd
			if eff.Dest == "rd2" {
				dst = ops.Rd2
			}
			if dst < 0 {
				return 0, fmt.Errorf("no %s field", eff.Dest)
			}
			regs[dst] = e.frame.Run(x.Val, e.Mem)
		case spec.EffWB:
			dst, ok := ops.Regs[eff.Dest]
			if !ok {
				return 0, fmt.Errorf("write-back to unknown operand %s", eff.Dest)
			}
			regs[dst] = e.frame.Run(x.Val, e.Mem)
		case spec.EffFlag:
			e.frame.Flags[x.Flag] = e.frame.Run(x.Val, e.Mem)
		case spec.EffMem:
			addr := e.frame.Run(x.Addr, e.Mem)
			val := e.frame.Run(x.Val, e.Mem)
			e.Mem.Store(addr.Uint64(), val, int(eff.T.Aux0))
		case spec.EffPC:
			// The effect term already folds the not-taken arm (pc plus
			// the encoding-derived size), so evaluating it concretely
			// decides taken-ness with no displacement probing.
			next = e.frame.Run(x.Val, e.Mem).Uint64()
		}
	}
	return next, nil
}
