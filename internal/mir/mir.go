// Package mir is the target machine IR produced by instruction
// selection: virtual-register machine instructions referencing the ISA
// instruction definitions whose effect terms also drive the simulator.
// It plays the role of LLVM's MIR (paper Fig. 2, stage III).
package mir

import (
	"fmt"
	"strings"

	"iselgen/internal/bv"
	"iselgen/internal/isa"
)

// Reg is a virtual register number.
type Reg int

// Operand is one instruction operand: a register or an immediate.
type Operand struct {
	IsImm bool
	Reg   Reg
	Imm   bv.BV
}

// R makes a register operand.
func R(r Reg) Operand { return Operand{Reg: r} }

// I makes an immediate operand.
func I(v bv.BV) Operand { return Operand{IsImm: true, Imm: v} }

// Pseudo identifies non-ISA instructions the backend needs.
type Pseudo int

// Pseudo opcodes.
const (
	PNone Pseudo = iota
	PCopy        // Dsts[0] := Args[0]
	PRet         // return Args[0] (optional)
)

// Inst is one machine instruction.
type Inst struct {
	// Meta is the ISA instruction; nil for pseudos.
	Meta   *isa.Instruction
	Pseudo Pseudo
	// Dsts are the written registers: the primary result first, then any
	// write-back destination.
	Dsts []Reg
	// Args parallel Meta.Operands (or the pseudo's convention).
	Args []Operand
	// Succs: for PC-effect instructions, the taken-branch target block
	// (unconditional branches have exactly one successor; conditional
	// ones fall through to the next block in layout otherwise).
	Succs []int
}

// Size returns the encoded size in bytes (pseudos count like a move).
func (in *Inst) Size() int {
	if in.Meta != nil {
		return in.Meta.Size
	}
	if in.Pseudo == PRet {
		return 4
	}
	return 4
}

// Latency returns the simulator cycle cost.
func (in *Inst) Latency() int {
	if in.Meta != nil {
		return in.Meta.Latency
	}
	return 1
}

func (in *Inst) String() string {
	var sb strings.Builder
	switch {
	case in.Pseudo == PCopy:
		fmt.Fprintf(&sb, "%%%d = COPY", in.Dsts[0])
	case in.Pseudo == PRet:
		sb.WriteString("RET")
	default:
		if len(in.Dsts) > 0 {
			for i, d := range in.Dsts {
				if i > 0 {
					sb.WriteString(", ")
				}
				fmt.Fprintf(&sb, "%%%d", d)
			}
			sb.WriteString(" = ")
		}
		sb.WriteString(in.Meta.Name)
	}
	for _, a := range in.Args {
		if a.IsImm {
			fmt.Fprintf(&sb, " %s", a.Imm)
		} else {
			fmt.Fprintf(&sb, " %%%d", a.Reg)
		}
	}
	for _, s := range in.Succs {
		fmt.Fprintf(&sb, " ->bb%d", s)
	}
	return sb.String()
}

// Block is a basic block of machine instructions. Layout order is the
// slice order in Func.Blocks; conditional branches fall through to the
// next block in layout.
type Block struct {
	ID    int
	Insts []*Inst
}

// Func is a machine function.
type Func struct {
	Name    string
	Params  []Reg
	Blocks  []*Block
	NumRegs int
}

// NewReg allocates a fresh virtual register.
func (f *Func) NewReg() Reg {
	r := Reg(f.NumRegs)
	f.NumRegs++
	return r
}

// BinarySize returns the total encoded size in bytes — the §VIII-C
// binary-size metric.
func (f *Func) BinarySize() int {
	n := 0
	for _, b := range f.Blocks {
		for _, in := range b.Insts {
			n += in.Size()
		}
	}
	return n
}

func (f *Func) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "machine function %s\n", f.Name)
	for _, b := range f.Blocks {
		fmt.Fprintf(&sb, "bb%d:\n", b.ID)
		for _, in := range b.Insts {
			sb.WriteString("  ")
			sb.WriteString(in.String())
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}
