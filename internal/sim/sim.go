// Package sim executes machine IR by evaluating each instruction's
// formal effect terms — the same terms the synthesis consumed — against
// a concrete register file, flag state, and memory. It is the
// reproduction's stand-in for the paper's hardware evaluation platforms
// (Apple M2, Milk-V SG2042): simulated cycle counts (per-instruction
// latencies from the ISA metadata) play the role of measured runtime,
// and static code bytes the role of binary size (§VIII-C).
//
// The effect terms run as the programs isa.LoadTarget compiled for each
// instruction (isa.Instruction.Exec): a step fills the instruction's
// input layout once and runs every effect over it, so a step allocates
// nothing.
package sim

import (
	"fmt"

	"iselgen/internal/bv"
	"iselgen/internal/cost"
	"iselgen/internal/gmir"
	"iselgen/internal/isa"
	"iselgen/internal/mir"
	"iselgen/internal/spec"
)

// Result reports one execution.
type Result struct {
	Ret    bv.BV
	HasRet bool
	Cycles int64
	Insts  int64
	// Flags is the final condition-flag state (N/Z/C/V), exposed so
	// differential harnesses can assert run-to-run determinism of the
	// effect evaluation, not just the returned value.
	Flags map[string]bv.BV
}

// Machine executes machine functions. A Machine runs one function at a
// time.
type Machine struct {
	Mem *gmir.Memory
	// MaxSteps bounds execution (default 200M instructions).
	MaxSteps int64
	// Model overrides per-instruction cycle charging. Nil keeps the ISA
	// metadata latencies, which the target-derived table (cost.FromTarget)
	// reproduces exactly.
	//
	// Deprecated: only the frozen benchmark's replay (cmd/iselperf) sets
	// it; the benchmark change of ROADMAP item 2 deletes it.
	Model *cost.Table

	frame isa.Frame
}

// pcBase is the PC every instruction sees: the MIR stream has no
// addresses, so branches are decided by displacement sensitivity.
const pcBase = 0x100000

// Adjust converts a register-file value to an operand width: the file
// behaves like physical 64-bit registers, so narrower reads truncate and
// wider reads zero-extend.
func Adjust(v bv.BV, w int) bv.BV {
	switch {
	case v.Width == 0:
		return bv.Zero(w) // never-written register
	case v.W() == w:
		return v
	case v.W() < w:
		return v.ZExt(w)
	default:
		return v.Trunc(w)
	}
}

// Run executes f with the given arguments.
func (m *Machine) Run(f *mir.Func, args []bv.BV) (Result, error) {
	if m.Mem == nil {
		m.Mem = gmir.NewMemory()
	}
	maxSteps := m.MaxSteps
	if maxSteps == 0 {
		maxSteps = 200_000_000
	}
	if len(args) != len(f.Params) {
		return Result{}, fmt.Errorf("sim: %s takes %d args, got %d", f.Name, len(f.Params), len(args))
	}
	regs := make([]bv.BV, f.NumRegs)
	for i, p := range f.Params {
		regs[p] = args[i]
	}
	m.frame.Reset()

	layout := map[int]int{} // block ID -> layout index
	for i, b := range f.Blocks {
		layout[b.ID] = i
	}

	res := Result{}
	bi := 0
	for bi < len(f.Blocks) {
		blk := f.Blocks[bi]
		taken := -1
		for _, in := range blk.Insts {
			if res.Insts++; res.Insts > maxSteps {
				return res, fmt.Errorf("sim: %s: step limit exceeded", f.Name)
			}
			if m.Model != nil {
				res.Cycles += m.Model.InstVector(in).Latency
			} else {
				res.Cycles += int64(in.Latency())
			}
			switch {
			case in.Pseudo == mir.PCopy:
				regs[in.Dsts[0]] = regs[in.Args[0].Reg]
				continue
			case in.Pseudo == mir.PRet:
				if len(in.Args) == 1 {
					res.Ret = regs[in.Args[0].Reg]
					res.HasRet = true
				}
				res.Flags = m.frame.FlagMap()
				return res, nil
			}
			t, err := m.step(in, regs)
			if err != nil {
				return res, fmt.Errorf("sim: %s: %s: %w", f.Name, in, err)
			}
			if t {
				taken = in.Succs[0]
				break
			}
		}
		if taken >= 0 {
			ni, ok := layout[taken]
			if !ok {
				return res, fmt.Errorf("sim: %s: branch to unknown bb%d", f.Name, taken)
			}
			bi = ni
		} else {
			bi++
		}
	}
	return res, fmt.Errorf("sim: %s: fell off the end", f.Name)
}

// step executes one ISA instruction; reports whether a branch was taken.
func (m *Machine) step(in *mir.Inst, regs []bv.BV) (bool, error) {
	meta := in.Meta
	if meta == nil {
		return false, fmt.Errorf("unexpected pseudo")
	}
	if len(in.Args) != len(meta.Operands) {
		return false, fmt.Errorf("operand count %d, want %d", len(in.Args), len(meta.Operands))
	}
	vals := m.frame.Begin(meta, pcBase)
	labelImm := -1
	for i, op := range meta.Operands {
		a := in.Args[i]
		if a.IsImm {
			vals[i] = Adjust(a.Imm, op.Width)
			if len(in.Succs) > 0 && op.Kind == spec.OpImm && labelImm < 0 {
				labelImm = i
			}
		} else {
			vals[i] = Adjust(regs[a.Reg], op.Width)
		}
	}

	branchTaken := false
	dstIdx := 0
	for k, e := range meta.Effects {
		x := &meta.Exec[k]
		switch e.Kind {
		case spec.EffReg, spec.EffWB:
			if dstIdx >= len(in.Dsts) {
				return false, fmt.Errorf("missing destination register for %s effect", e.Kind)
			}
			regs[in.Dsts[dstIdx]] = m.frame.Run(x.Val, m.Mem)
			dstIdx++
		case spec.EffFlag:
			m.frame.Flags[x.Flag] = m.frame.Run(x.Val, m.Mem)
		case spec.EffMem:
			addr := m.frame.Run(x.Addr, m.Mem)
			val := m.frame.Run(x.Val, m.Mem)
			m.Mem.Store(addr.Uint64(), val, int(e.T.Aux0))
		case spec.EffPC:
			// Decide taken-ness by displacement sensitivity: evaluate the
			// PC effect under two label values; if the results differ the
			// target depends on the displacement (branch taken); if both
			// equal fall-through (pc+4), the branch is not taken.
			if len(in.Succs) == 0 {
				return false, fmt.Errorf("PC effect without successor")
			}
			if labelImm < 0 {
				return false, fmt.Errorf("branch without label immediate")
			}
			label, labelW := vals[labelImm], meta.Operands[labelImm].Width
			vals[labelImm] = bv.New(labelW, 2)
			r1 := m.frame.Run(x.Val, m.Mem)
			vals[labelImm] = bv.New(labelW, 3)
			r2 := m.frame.Run(x.Val, m.Mem)
			vals[labelImm] = label
			if r1 != r2 {
				branchTaken = true
			} else if r1.Lo != pcBase+uint64(in.Size()) {
				branchTaken = true // displacement-independent jump (e.g. JALR)
			}
		}
	}
	return branchTaken, nil
}
