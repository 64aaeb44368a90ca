package term

import (
	"fmt"

	"iselgen/internal/bv"
)

// Program is a term compiled into a flat postorder register machine for
// repeated evaluation. Term.Eval allocates a memoization map per call,
// which is fine for one-shot evaluation but dominates the profile when
// the same term is evaluated on hundreds of test vectors (§V-C sample
// evaluation, the SMT-fallback probe, and the counterexample screen all
// do exactly that) or once per simulated instruction. Compile walks the
// DAG once; evaluation then allocates nothing.
//
// There are two ways to run a Program:
//   - Run binds vals[i] to Vars()[i] and evaluates in the Program's own
//     scratch registers, so a Program compiled by Compile must not be Run
//     from two goroutines at once; each worker compiles its own
//     (compilation is two orders of magnitude cheaper than the
//     evaluations it amortizes).
//   - RunIn evaluates in scratch the caller supplies and reads loads from
//     a caller-supplied memory. It never writes the Program, so one
//     Program may be shared by any number of goroutines as long as they
//     run it only through RunIn, each with its own scratch. CompileLayout
//     builds such shared programs (the per-instruction effect programs a
//     loaded target carries).
type Program struct {
	code []pinst
	vars []PVar
	regs []bv.BV // scratch for Run; nil for CompileLayout programs
}

// PVar describes one variable slot of a compiled term, in the same
// first-occurrence order Term.Vars returns.
type PVar struct {
	Name  string
	Kind  VarKind
	Width int
}

type pinst struct {
	op         Op
	a0, a1, a2 int32 // argument registers (result register is the index)
	aux0, aux1 int32
	width      int32
	slot       int32 // Var: index into the vals argument of Run/RunIn
	cval       bv.BV // Const: the value
}

// Compile flattens t into a Program. Shared DAG nodes are evaluated
// once, like Term.Eval's memoization. Variables get slots in
// first-occurrence order (Vars).
func Compile(t *Term) *Program {
	p := &Program{}
	slots := map[string]int32{}
	p.compile(t, func(u *Term) int32 {
		s, ok := slots[u.Name]
		if !ok {
			s = int32(len(p.vars))
			slots[u.Name] = s
			p.vars = append(p.vars, PVar{Name: u.Name, Kind: u.Kind, Width: u.W()})
		}
		return s
	})
	p.regs = make([]bv.BV, len(p.code))
	return p
}

// CompileLayout flattens t against an input layout the caller fixes:
// variable v reads vals[slot(v)] in RunIn. slot returns a negative index
// for a variable outside the layout, which fails the compilation. The
// result has no Vars and no scratch of its own; run it only with RunIn.
func CompileLayout(t *Term, slot func(v *Term) int) (*Program, error) {
	p := &Program{}
	var bad *Term
	p.compile(t, func(u *Term) int32 {
		s := slot(u)
		if s < 0 && bad == nil {
			bad = u
		}
		return int32(s)
	})
	if bad != nil {
		return nil, fmt.Errorf("term: variable %q (%s, %d bits) is outside the input layout", bad.Name, bad.Kind, bad.W())
	}
	return p, nil
}

func (p *Program) compile(t *Term, slotOf func(v *Term) int32) {
	regOf := map[*Term]int32{}
	var walk func(u *Term) int32
	walk = func(u *Term) int32 {
		if r, ok := regOf[u]; ok {
			return r
		}
		in := pinst{op: u.Op, a0: -1, a1: -1, a2: -1,
			aux0: u.Aux0, aux1: u.Aux1, width: int32(u.W())}
		switch u.Op {
		case Const:
			in.cval = u.CVal
		case Var:
			in.slot = slotOf(u)
		default:
			for i, a := range u.Args {
				r := walk(a)
				switch i {
				case 0:
					in.a0 = r
				case 1:
					in.a1 = r
				case 2:
					in.a2 = r
				default:
					panic("term: compile: >3 args")
				}
			}
		}
		r := int32(len(p.code))
		p.code = append(p.code, in)
		regOf[u] = r
		return r
	}
	walk(t)
}

// Len is the number of scratch registers RunIn needs.
func (p *Program) Len() int { return len(p.code) }

// Vars returns the variable slots, in first-occurrence order. The slice
// is shared; callers must not modify it.
func (p *Program) Vars() []PVar { return p.vars }

// Run evaluates the program with vals[i] bound to Vars()[i]. Loads read
// the deterministic hash memory model (MemValue), exactly like
// Term.Eval under an Env with no Mem. Widths of vals must match the
// slots'; Run does not re-check them.
func (p *Program) Run(vals []bv.BV) bv.BV { return p.RunIn(vals, p.regs, nil) }

// RunIn evaluates the program with each variable reading its slot of
// vals, using scratch (at least Len() entries) for intermediate values.
// Loads read mem, or the hash memory model (MemValue) when mem is nil —
// Term.Eval under an Env with that Mem. Unlike Term.Eval, both arms of
// an Ite are evaluated; every operation is pure, so only the cost
// differs. RunIn only reads the Program.
func (p *Program) RunIn(vals, scratch []bv.BV, mem MemModel) bv.BV {
	regs := scratch[:len(p.code)]
	for i := range p.code {
		in := &p.code[i]
		var r bv.BV
		switch in.op {
		case Const:
			r = in.cval
		case Var:
			r = vals[in.slot]
		case Add:
			r = regs[in.a0].Add(regs[in.a1])
		case Sub:
			r = regs[in.a0].Sub(regs[in.a1])
		case Mul:
			r = regs[in.a0].Mul(regs[in.a1])
		case UDiv:
			r = regs[in.a0].UDiv(regs[in.a1])
		case SDiv:
			r = regs[in.a0].SDiv(regs[in.a1])
		case URem:
			r = regs[in.a0].URem(regs[in.a1])
		case SRem:
			r = regs[in.a0].SRem(regs[in.a1])
		case Neg:
			r = regs[in.a0].Neg()
		case Not:
			r = regs[in.a0].Not()
		case And:
			r = regs[in.a0].And(regs[in.a1])
		case Or:
			r = regs[in.a0].Or(regs[in.a1])
		case Xor:
			r = regs[in.a0].Xor(regs[in.a1])
		case Shl:
			r = regs[in.a0].Shl(regs[in.a1])
		case LShr:
			r = regs[in.a0].LShr(regs[in.a1])
		case AShr:
			r = regs[in.a0].AShr(regs[in.a1])
		case RotL:
			r = regs[in.a0].RotL(regs[in.a1])
		case RotR:
			r = regs[in.a0].RotR(regs[in.a1])
		case Eq:
			r = bv.NewBool(regs[in.a0].Eq(regs[in.a1]))
		case Ult:
			r = bv.NewBool(regs[in.a0].Ult(regs[in.a1]))
		case Slt:
			r = bv.NewBool(regs[in.a0].Slt(regs[in.a1]))
		case Concat:
			r = regs[in.a0].Concat(regs[in.a1])
		case Extract:
			r = regs[in.a0].Extract(int(in.aux0), int(in.aux1))
		case ZExt:
			r = regs[in.a0].ZExt(int(in.width))
		case SExt:
			r = regs[in.a0].SExt(int(in.width))
		case Ite:
			if regs[in.a0].Bool() {
				r = regs[in.a1]
			} else {
				r = regs[in.a2]
			}
		case Load:
			if mem != nil {
				r = mem.Load(regs[in.a0].Uint64(), int(in.width))
			} else {
				r = MemValue(regs[in.a0].Uint64(), int(in.width))
			}
		case Store:
			r = StoreDigest(regs[in.a0].Uint64(), regs[in.a1], int(in.width))
		case Popcount:
			r = regs[in.a0].Popcount()
		case Clz:
			r = regs[in.a0].Clz()
		case Ctz:
			r = regs[in.a0].Ctz()
		case Rev:
			r = regs[in.a0].Rev()
		default:
			panic(fmt.Sprintf("term: program: eval of %v", in.op))
		}
		regs[i] = r
	}
	return regs[len(regs)-1]
}
