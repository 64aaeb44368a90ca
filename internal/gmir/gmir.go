// Package gmir implements the reproduction's analog of LLVM's Generic
// Machine IR (gMIR) — the typed, register-based representation that
// GlobalISel's instruction selector consumes (paper §II-B). It provides
// the instruction set, SSA functions over basic blocks, a builder, a
// verifier, a reference interpreter (the semantics oracle for end-to-end
// checks), and per-opcode bitvector term semantics (the manually defined
// symbolic specifications of §IV-B).
package gmir

import (
	"fmt"
	"strings"

	"iselgen/internal/bv"
)

// Type is a value type: sN for N-bit scalars. Pointers are s64.
type Type struct{ Bits int }

// Common types.
var (
	S1  = Type{1}
	S8  = Type{8}
	S16 = Type{16}
	S32 = Type{32}
	S64 = Type{64}
	P0  = Type{64} // pointer
)

func (t Type) String() string { return fmt.Sprintf("s%d", t.Bits) }

// Opcode is a gMIR operation.
type Opcode int

// gMIR opcodes (the integer subset the paper synthesizes for, plus the
// control-flow and pseudo ops every function needs).
const (
	OpInvalid Opcode = iota
	// Pure value operations (selectable).
	GConstant
	GAdd
	GSub
	GMul
	GUDiv
	GSDiv
	GURem
	GSRem
	GAnd
	GOr
	GXor
	GShl
	GLShr
	GAShr
	GICmp
	GSelect
	GZExt
	GSExt
	GTrunc
	GCtpop
	GCtlz
	GCttz
	GBSwap
	GAbs
	GSMin
	GSMax
	GUMin
	GUMax
	GPtrAdd
	GLoad  // MemBits-sized load, zero-extended to the result type
	GSLoad // sign-extending load
	GStore // MemBits-sized truncating store
	// Control flow and pseudo operations (not pattern roots).
	GBr
	GBrCond
	GPhi
	GCopy
	GRet
	numOpcodes
)

var opcodeNames = [numOpcodes]string{
	GConstant: "G_CONSTANT", GAdd: "G_ADD", GSub: "G_SUB", GMul: "G_MUL",
	GUDiv: "G_UDIV", GSDiv: "G_SDIV", GURem: "G_UREM", GSRem: "G_SREM",
	GAnd: "G_AND", GOr: "G_OR", GXor: "G_XOR", GShl: "G_SHL",
	GLShr: "G_LSHR", GAShr: "G_ASHR", GICmp: "G_ICMP", GSelect: "G_SELECT",
	GZExt: "G_ZEXT", GSExt: "G_SEXT", GTrunc: "G_TRUNC",
	GCtpop: "G_CTPOP", GCtlz: "G_CTLZ", GCttz: "G_CTTZ", GBSwap: "G_BSWAP",
	GAbs: "G_ABS", GSMin: "G_SMIN", GSMax: "G_SMAX", GUMin: "G_UMIN",
	GUMax: "G_UMAX", GPtrAdd: "G_PTR_ADD", GLoad: "G_LOAD", GSLoad: "G_SEXTLOAD",
	GStore: "G_STORE", GBr: "G_BR", GBrCond: "G_BRCOND", GPhi: "G_PHI",
	GCopy: "COPY", GRet: "G_RET",
}

func (o Opcode) String() string {
	if o > 0 && int(o) < len(opcodeNames) {
		return opcodeNames[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// IsSelectable reports whether the opcode is a pure value operation that
// instruction selection rules can match.
func (o Opcode) IsSelectable() bool { return o >= GConstant && o <= GStore }

// Pred is an integer comparison predicate.
type Pred int

// Comparison predicates.
const (
	PredEQ Pred = iota
	PredNE
	PredULT
	PredULE
	PredUGT
	PredUGE
	PredSLT
	PredSLE
	PredSGT
	PredSGE
	numPreds
)

var predNames = [numPreds]string{"eq", "ne", "ult", "ule", "ugt", "uge", "slt", "sle", "sgt", "sge"}

func (p Pred) String() string {
	if p >= 0 && int(p) < len(predNames) {
		return predNames[p]
	}
	return fmt.Sprintf("pred(%d)", int(p))
}

// Value is a virtual register number.
type Value int

// Inst is one gMIR instruction.
type Inst struct {
	Op      Opcode
	Ty      Type  // result type (meaningful when Dst is used)
	Dst     Value // -1 when no result
	Args    []Value
	Pred    Pred  // GICmp
	Imm     bv.BV // GConstant
	MemBits int   // GLoad/GSLoad/GStore access size
	// Succs are successor block IDs (GBr: 1 entry; GBrCond: taken,
	// fallthrough).
	Succs []int
	// PhiBlocks parallels Args for GPhi: the predecessor block each
	// incoming value arrives from.
	PhiBlocks []int
}

// Block is a basic block.
type Block struct {
	ID    int
	Insts []*Inst
}

// Param declares a function parameter.
type Param struct {
	Val Value
	Ty  Type
}

// Function is a gMIR function in SSA form.
type Function struct {
	Name      string
	Params    []Param
	Blocks    []*Block
	NumValues int
	// RetTy is the return type (zero Type when the function returns
	// nothing).
	RetTy Type
	// types records the result type of each value.
	types map[Value]Type
}

// TypeOf returns the type of a value.
func (f *Function) TypeOf(v Value) Type { return f.types[v] }

// BlockByID returns the block with the given ID.
func (f *Function) BlockByID(id int) *Block {
	for _, b := range f.Blocks {
		if b.ID == id {
			return b
		}
	}
	return nil
}

// String renders the function in a gMIR-like textual form.
func (f *Function) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "function %s(", f.Name)
	for i, p := range f.Params {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%%%d:%s", p.Val, p.Ty)
	}
	sb.WriteString(")\n")
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

func (in *Inst) String() string {
	var sb strings.Builder
	if in.Dst >= 0 {
		fmt.Fprintf(&sb, "%%%d:%s = ", in.Dst, in.Ty)
	}
	sb.WriteString(in.Op.String())
	switch in.Op {
	case GConstant:
		fmt.Fprintf(&sb, " %s", in.Imm)
	case GICmp:
		fmt.Fprintf(&sb, " intpred(%s)", in.Pred)
	case GLoad, GSLoad, GStore:
		fmt.Fprintf(&sb, " (%d bits)", in.MemBits)
	}
	for _, a := range in.Args {
		fmt.Fprintf(&sb, " %%%d", a)
	}
	for _, s := range in.Succs {
		fmt.Fprintf(&sb, " bb%d", s)
	}
	return sb.String()
}
