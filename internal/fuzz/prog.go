// Package fuzz is the deterministic differential fuzzing subsystem: it
// generates random well-typed gMIR programs, perturbed ISA
// specifications, and random term pairs, and cross-checks the whole
// pipeline — legalize → greedy selection → machine simulation against
// the gMIR interpreter, synthesis against its own soundness contract,
// and the SMT equivalence checker against concrete evaluation. Every
// failure is delta-debugged to a minimal reproducer and written in a
// self-contained corpus format that doubles as a regression suite.
package fuzz

import (
	"fmt"
	"strconv"
	"strings"

	"iselgen/internal/bv"
	"iselgen/internal/gmir"
)

// PInst is one instruction of the flat, serializable program form. A
// program is a straight-line SSA block: instruction i defines value i
// (stores and the final ret define nothing, but still occupy an index so
// that text lines and value ids stay in lockstep).
type PInst struct {
	Op      string // param, const, add, ..., icmp, select, zext, sext, trunc, load, sload, store, ret
	Bits    int    // result width; for icmp the operand width; for store the value width
	Pred    string // icmp predicate name
	Imm     bv.BV  // const payload
	MemBits int    // load/sload/store access size
	Args    []int  // operand value ids
}

// Prog is a straight-line gMIR program in the corpus format.
type Prog struct {
	Insts []PInst
}

// binOps maps text names to gMIR binary opcodes.
var binOps = map[string]gmir.Opcode{
	"add": gmir.GAdd, "sub": gmir.GSub, "mul": gmir.GMul,
	"udiv": gmir.GUDiv, "sdiv": gmir.GSDiv, "urem": gmir.GURem, "srem": gmir.GSRem,
	"and": gmir.GAnd, "or": gmir.GOr, "xor": gmir.GXor,
	"shl": gmir.GShl, "lshr": gmir.GLShr, "ashr": gmir.GAShr,
	"smin": gmir.GSMin, "smax": gmir.GSMax, "umin": gmir.GUMin, "umax": gmir.GUMax,
}

// unOps maps text names to gMIR unary opcodes.
var unOps = map[string]gmir.Opcode{
	"ctpop": gmir.GCtpop, "ctlz": gmir.GCtlz, "cttz": gmir.GCttz,
	"bswap": gmir.GBSwap, "abs": gmir.GAbs,
}

// predOf maps predicate names to gmir predicates.
var predOf = map[string]gmir.Pred{
	"eq": gmir.PredEQ, "ne": gmir.PredNE,
	"ult": gmir.PredULT, "ule": gmir.PredULE, "ugt": gmir.PredUGT, "uge": gmir.PredUGE,
	"slt": gmir.PredSLT, "sle": gmir.PredSLE, "sgt": gmir.PredSGT, "sge": gmir.PredSGE,
}

// NumOps counts the operation instructions: everything except params and
// the final ret — the size metric shrinking minimizes.
func (p *Prog) NumOps() int {
	n := 0
	for _, in := range p.Insts {
		if in.Op != "param" && in.Op != "ret" {
			n++
		}
	}
	return n
}

// ParamWidths returns the widths of the program's parameters.
func (p *Prog) ParamWidths() []int {
	var out []int
	for _, in := range p.Insts {
		if in.Op == "param" {
			out = append(out, in.Bits)
		}
	}
	return out
}

// Format renders the program in its corpus text form.
func (p *Prog) Format() string {
	var sb strings.Builder
	for i, in := range p.Insts {
		switch in.Op {
		case "store":
			fmt.Fprintf(&sb, "store %d v%d v%d\n", in.MemBits, in.Args[0], in.Args[1])
		case "ret":
			fmt.Fprintf(&sb, "ret v%d\n", in.Args[0])
		case "param":
			fmt.Fprintf(&sb, "v%d = param %d\n", i, in.Bits)
		case "const":
			fmt.Fprintf(&sb, "v%d = const %d 0x%x:%x\n", i, in.Bits, in.Imm.Hi, in.Imm.Lo)
		case "icmp":
			fmt.Fprintf(&sb, "v%d = icmp %s %d v%d v%d\n", i, in.Pred, in.Bits, in.Args[0], in.Args[1])
		case "select":
			fmt.Fprintf(&sb, "v%d = select %d v%d v%d v%d\n", i, in.Bits, in.Args[0], in.Args[1], in.Args[2])
		case "zext", "sext", "trunc":
			fmt.Fprintf(&sb, "v%d = %s %d v%d\n", i, in.Op, in.Bits, in.Args[0])
		case "load", "sload":
			fmt.Fprintf(&sb, "v%d = %s %d %d v%d\n", i, in.Op, in.Bits, in.MemBits, in.Args[0])
		default:
			fmt.Fprintf(&sb, "v%d = %s %d", i, in.Op, in.Bits)
			for _, a := range in.Args {
				fmt.Fprintf(&sb, " v%d", a)
			}
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// ParseProg parses the corpus text form. It returns an error — never
// panics — on malformed input, so it can sit behind a native fuzz target.
func ParseProg(src string) (*Prog, error) {
	p := &Prog{}
	for ln, line := range strings.Split(src, "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fs := strings.Fields(line)
		if len(fs) == 0 {
			continue
		}
		errf := func(format string, args ...any) error {
			return fmt.Errorf("prog:%d: %s", ln+1, fmt.Sprintf(format, args...))
		}
		id := len(p.Insts)
		// Value-defining lines start "v<id> =".
		if strings.HasPrefix(fs[0], "v") && len(fs) >= 2 && fs[1] == "=" {
			n, err := strconv.Atoi(fs[0][1:])
			if err != nil || n != id {
				return nil, errf("expected v%d on the left-hand side", id)
			}
			fs = fs[2:]
			if len(fs) == 0 {
				return nil, errf("missing operation")
			}
		}
		in := PInst{Op: fs[0]}
		rest := fs[1:]
		num := func(i int) (int, error) {
			if i >= len(rest) {
				return 0, errf("%s: missing field %d", in.Op, i)
			}
			return strconv.Atoi(rest[i])
		}
		val := func(i int) (int, error) {
			if i >= len(rest) || !strings.HasPrefix(rest[i], "v") {
				return 0, errf("%s: expected value reference at field %d", in.Op, i)
			}
			return strconv.Atoi(rest[i][1:])
		}
		var err error
		switch in.Op {
		case "param":
			if in.Bits, err = num(0); err != nil {
				return nil, errf("param: bad width")
			}
		case "const":
			if in.Bits, err = num(0); err != nil {
				return nil, errf("const: bad width")
			}
			if in.Bits < 1 || in.Bits > 64 {
				return nil, errf("const: width %d out of range", in.Bits)
			}
			if len(rest) < 2 {
				return nil, errf("const: missing value")
			}
			parts := strings.SplitN(strings.TrimPrefix(rest[1], "0x"), ":", 2)
			if len(parts) != 2 {
				return nil, errf("const: value must be 0xHI:LO")
			}
			hi, err1 := strconv.ParseUint(parts[0], 16, 64)
			lo, err2 := strconv.ParseUint(parts[1], 16, 64)
			if err1 != nil || err2 != nil {
				return nil, errf("const: bad hex value")
			}
			in.Imm = bv.New128(in.Bits, hi, lo)
		case "icmp":
			if len(rest) < 4 {
				return nil, errf("icmp: want pred width a b")
			}
			in.Pred = rest[0]
			rest = rest[1:]
			if in.Bits, err = num(0); err != nil {
				return nil, errf("icmp: bad width")
			}
			a, err1 := val(1)
			b, err2 := val(2)
			if err1 != nil || err2 != nil {
				return nil, errf("icmp: bad operands")
			}
			in.Args = []int{a, b}
		case "select":
			if in.Bits, err = num(0); err != nil {
				return nil, errf("select: bad width")
			}
			c, err1 := val(1)
			x, err2 := val(2)
			y, err3 := val(3)
			if err1 != nil || err2 != nil || err3 != nil {
				return nil, errf("select: bad operands")
			}
			in.Args = []int{c, x, y}
		case "zext", "sext", "trunc":
			if in.Bits, err = num(0); err != nil {
				return nil, errf("%s: bad width", in.Op)
			}
			x, err1 := val(1)
			if err1 != nil {
				return nil, errf("%s: bad operand", in.Op)
			}
			in.Args = []int{x}
		case "load", "sload":
			if in.Bits, err = num(0); err != nil {
				return nil, errf("%s: bad width", in.Op)
			}
			if in.MemBits, err = num(1); err != nil {
				return nil, errf("%s: bad access size", in.Op)
			}
			a, err1 := val(2)
			if err1 != nil {
				return nil, errf("%s: bad address", in.Op)
			}
			in.Args = []int{a}
		case "store":
			if in.MemBits, err = num(0); err != nil {
				return nil, errf("store: bad access size")
			}
			v, err1 := val(1)
			a, err2 := val(2)
			if err1 != nil || err2 != nil {
				return nil, errf("store: bad operands")
			}
			in.Args = []int{v, a}
		case "ret":
			v, err1 := val(0)
			if err1 != nil {
				return nil, errf("ret: bad operand")
			}
			in.Args = []int{v}
		default:
			if _, ok := binOps[in.Op]; ok {
				if in.Bits, err = num(0); err != nil {
					return nil, errf("%s: bad width", in.Op)
				}
				a, err1 := val(1)
				b, err2 := val(2)
				if err1 != nil || err2 != nil {
					return nil, errf("%s: bad operands", in.Op)
				}
				in.Args = []int{a, b}
			} else if _, ok := unOps[in.Op]; ok {
				if in.Bits, err = num(0); err != nil {
					return nil, errf("%s: bad width", in.Op)
				}
				x, err1 := val(1)
				if err1 != nil {
					return nil, errf("%s: bad operand", in.Op)
				}
				in.Args = []int{x}
			} else {
				return nil, errf("unknown operation %q", in.Op)
			}
		}
		p.Insts = append(p.Insts, in)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// widthOf returns the result width of value id (0 for non-value insts).
func (p *Prog) widthOf(id int) int {
	in := p.Insts[id]
	switch in.Op {
	case "store", "ret":
		return 0
	case "icmp":
		return 1
	default:
		return in.Bits
	}
}

// Validate checks the structural and type rules the gMIR builder would
// otherwise enforce by panicking: SSA order, matching operand widths,
// legal extension directions, and memory access sizing. A valid program
// is guaranteed to Build without panicking.
func (p *Prog) Validate() error {
	if len(p.Insts) == 0 {
		return fmt.Errorf("prog: empty program")
	}
	okWidth := func(w int) bool {
		switch w {
		case 1, 8, 16, 32, 64:
			return true
		}
		return false
	}
	paramsDone := false
	for i, in := range p.Insts {
		errf := func(format string, args ...any) error {
			return fmt.Errorf("prog: v%d (%s): %s", i, in.Op, fmt.Sprintf(format, args...))
		}
		for _, a := range in.Args {
			if a < 0 || a >= i {
				return errf("operand v%d out of SSA order", a)
			}
			if p.widthOf(a) == 0 {
				return errf("operand v%d is not a value", a)
			}
		}
		if in.Op == "param" {
			if paramsDone {
				return errf("params must precede all operations")
			}
			if !okWidth(in.Bits) || in.Bits == 1 {
				return errf("bad param width %d", in.Bits)
			}
			continue
		}
		paramsDone = true
		if in.Op == "ret" {
			if i != len(p.Insts)-1 {
				return errf("ret must be the last instruction")
			}
			continue
		}
		switch in.Op {
		case "const":
			if !okWidth(in.Bits) || in.Imm.W() != in.Bits {
				return errf("const width %d / payload width %d", in.Bits, in.Imm.W())
			}
		case "icmp":
			if _, ok := predOf[in.Pred]; !ok {
				return errf("unknown predicate %q", in.Pred)
			}
			if !okWidth(in.Bits) || p.widthOf(in.Args[0]) != in.Bits || p.widthOf(in.Args[1]) != in.Bits {
				return errf("operand widths %d/%d, want %d",
					p.widthOf(in.Args[0]), p.widthOf(in.Args[1]), in.Bits)
			}
		case "select":
			if p.widthOf(in.Args[0]) != 1 {
				return errf("condition must be 1 bit")
			}
			if !okWidth(in.Bits) || in.Bits == 1 ||
				p.widthOf(in.Args[1]) != in.Bits || p.widthOf(in.Args[2]) != in.Bits {
				return errf("arm widths %d/%d, want %d",
					p.widthOf(in.Args[1]), p.widthOf(in.Args[2]), in.Bits)
			}
		case "zext", "sext":
			if !okWidth(in.Bits) || in.Bits <= p.widthOf(in.Args[0]) {
				return errf("extension %d -> %d does not widen", p.widthOf(in.Args[0]), in.Bits)
			}
		case "trunc":
			if !okWidth(in.Bits) || in.Bits >= p.widthOf(in.Args[0]) {
				return errf("truncation %d -> %d does not narrow", p.widthOf(in.Args[0]), in.Bits)
			}
		case "load", "sload":
			if !okWidth(in.Bits) || in.Bits == 1 {
				return errf("bad load type width %d", in.Bits)
			}
			if in.MemBits%8 != 0 || in.MemBits < 8 || in.MemBits > in.Bits {
				return errf("bad access size %d for %d-bit load", in.MemBits, in.Bits)
			}
			if in.Op == "sload" && in.MemBits == in.Bits {
				return errf("sload access size must be narrower than the type")
			}
			if p.widthOf(in.Args[0]) != 64 {
				return errf("address must be 64 bits")
			}
		case "store":
			if in.MemBits%8 != 0 || in.MemBits < 8 || in.MemBits > p.widthOf(in.Args[0]) {
				return errf("bad access size %d for %d-bit value", in.MemBits, p.widthOf(in.Args[0]))
			}
			if p.widthOf(in.Args[1]) != 64 {
				return errf("address must be 64 bits")
			}
		default:
			if _, ok := binOps[in.Op]; ok {
				if !okWidth(in.Bits) || in.Bits == 1 ||
					p.widthOf(in.Args[0]) != in.Bits || p.widthOf(in.Args[1]) != in.Bits {
					return errf("operand widths %d/%d, want %d",
						p.widthOf(in.Args[0]), p.widthOf(in.Args[1]), in.Bits)
				}
			} else if _, ok := unOps[in.Op]; ok {
				if !okWidth(in.Bits) || in.Bits == 1 || p.widthOf(in.Args[0]) != in.Bits {
					return errf("operand width %d, want %d", p.widthOf(in.Args[0]), in.Bits)
				}
			} else {
				return errf("unknown operation")
			}
		}
	}
	last := p.Insts[len(p.Insts)-1]
	if last.Op != "ret" {
		return fmt.Errorf("prog: missing final ret")
	}
	if p.widthOf(last.Args[0]) != 64 {
		return fmt.Errorf("prog: ret value must be 64 bits")
	}
	return nil
}

// Build constructs the gMIR function. The program must be Valid; Build
// then cannot panic (the builder's invariants are a subset of Validate's).
func (p *Prog) Build() (*gmir.Function, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	fb := gmir.NewFunc("fuzz")
	vals := make([]gmir.Value, len(p.Insts))
	for i, in := range p.Insts {
		ty := gmir.Type{Bits: in.Bits}
		switch in.Op {
		case "param":
			vals[i] = fb.Param(ty)
		case "const":
			vals[i] = fb.ConstBV(in.Imm)
		case "icmp":
			vals[i] = fb.ICmp(predOf[in.Pred], vals[in.Args[0]], vals[in.Args[1]])
		case "select":
			vals[i] = fb.Select(vals[in.Args[0]], vals[in.Args[1]], vals[in.Args[2]])
		case "zext":
			vals[i] = fb.ZExt(ty, vals[in.Args[0]])
		case "sext":
			vals[i] = fb.SExt(ty, vals[in.Args[0]])
		case "trunc":
			vals[i] = fb.Trunc(ty, vals[in.Args[0]])
		case "load":
			vals[i] = fb.Load(ty, vals[in.Args[0]], in.MemBits)
		case "sload":
			vals[i] = fb.SLoad(ty, vals[in.Args[0]], in.MemBits)
		case "store":
			fb.Store(vals[in.Args[0]], vals[in.Args[1]], in.MemBits)
		case "ret":
			fb.Ret(vals[in.Args[0]])
		default:
			if op, ok := binOps[in.Op]; ok {
				vals[i] = fb.Binary(op, vals[in.Args[0]], vals[in.Args[1]])
			} else {
				vals[i] = fb.Unary(unOps[in.Op], vals[in.Args[0]])
			}
		}
	}
	return fb.Finish()
}
