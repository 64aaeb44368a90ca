// Package term implements hash-consed bitvector terms — the common
// semantic representation shared by ISA instruction effects and IR
// operation patterns (paper §IV).
//
// The operation set is the QF_BV fragment of SMT-LIB extended with the
// symbolic functions the paper introduces on top of it: load and store
// for memory effects (§IV-A) and popcount / count-leading-zeros /
// count-trailing-zeros as opaque complex operations (§V-B1).
//
// Terms are immutable and interned per Builder: two structurally equal
// terms built by the same Builder are pointer-equal, which makes
// structural comparison, memoized traversal, and map keys cheap.
package term

import (
	"fmt"
	"strings"
	"sync/atomic"

	"iselgen/internal/bv"
)

// Op identifies a term operation.
type Op uint8

// Term operations. Comparison ops yield 1-bit results; Load yields a
// value of its Aux0 width; Store is only legal as the root of a memory
// effect.
const (
	Const Op = iota
	Var
	Add
	Sub
	Mul
	UDiv
	SDiv
	URem
	SRem
	Neg
	Not
	And
	Or
	Xor
	Shl
	LShr
	AShr
	RotL
	RotR
	Eq
	Ult
	Slt
	Concat  // Args[0] is the high part
	Extract // bits Aux0..Aux1 (hi..lo)
	ZExt
	SExt
	Ite // Args: cond (1 bit), then, else
	Load
	Store // Args: addr, value
	Popcount
	Clz
	Ctz
	Rev // byte reverse
	numOps
)

var opNames = [numOps]string{
	Const: "const", Var: "var", Add: "bvadd", Sub: "bvsub", Mul: "bvmul",
	UDiv: "bvudiv", SDiv: "bvsdiv", URem: "bvurem", SRem: "bvsrem",
	Neg: "bvneg", Not: "bvnot", And: "bvand", Or: "bvor", Xor: "bvxor",
	Shl: "bvshl", LShr: "bvlshr", AShr: "bvashr", RotL: "rotl", RotR: "rotr",
	Eq: "=", Ult: "bvult", Slt: "bvslt", Concat: "concat",
	Extract: "extract", ZExt: "zext", SExt: "sext", Ite: "ite",
	Load: "load", Store: "store", Popcount: "popcount", Clz: "clz",
	Ctz: "ctz", Rev: "rev",
}

// String returns the SMT-LIB-style operation name.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// IsCommutative reports whether the operation's first two operands commute.
func (o Op) IsCommutative() bool {
	switch o {
	case Add, Mul, And, Or, Xor, Eq:
		return true
	}
	return false
}

// VarKind carries the domain information an atom needs during
// canonicalization and unification (paper §V-B1): whether a symbolic
// variable denotes a general-purpose register, a vector register, an
// immediate operand, the program counter, or a condition flag.
type VarKind uint8

// Variable kinds.
const (
	KindReg VarKind = iota
	KindVecReg
	KindImm
	KindPC
	KindFlag
)

var kindNames = [...]string{KindReg: "reg", KindVecReg: "vec", KindImm: "imm", KindPC: "pc", KindFlag: "flag"}

func (k VarKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Term is one node of a hash-consed term DAG. Do not construct Terms
// directly; use a Builder so interning invariants hold.
type Term struct {
	ID    uint32 // unique, dense, per Builder
	Op    Op
	Width uint8 // result width in bits
	// Aux0/Aux1 carry per-op attributes: Extract hi/lo, Load value width,
	// Store value width.
	Aux0, Aux1 int32
	Args       []*Term
	CVal       bv.BV   // valid when Op == Const
	Name       string  // valid when Op == Var
	Kind       VarKind // valid when Op == Var

	// varsCache and loadsCache memoize Vars() and Loads(). Terms are
	// immutable once interned, so neither set ever changes; sequence
	// composition and the SMT fallback re-walk the same embedded effect
	// DAGs thousands of times. Concurrent first calls may each compute
	// and store — the results are identical, so whichever pointer wins
	// is correct.
	varsCache  atomic.Pointer[[]*Term]
	loadsCache atomic.Pointer[[]*Term]
}

// W returns the result width in bits.
func (t *Term) W() int { return int(t.Width) }

// IsConst reports whether the term is a constant.
func (t *Term) IsConst() bool { return t.Op == Const }

// Size returns the number of distinct DAG nodes reachable from t.
func (t *Term) Size() int {
	seen := map[*Term]bool{}
	var walk func(*Term)
	walk = func(u *Term) {
		if seen[u] {
			return
		}
		seen[u] = true
		for _, a := range u.Args {
			walk(a)
		}
	}
	walk(t)
	return len(seen)
}

// Vars returns the distinct variables of t in first-occurrence order
// (deterministic because Args order is deterministic).
func (t *Term) Vars() []*Term {
	if p := t.varsCache.Load(); p != nil {
		return *p
	}
	var out []*Term
	var buf [visitSmall]*Term
	seen := visited{list: buf[:0]}
	var walk func(*Term)
	walk = func(u *Term) {
		var fresh bool
		if seen, fresh = seen.add(u); !fresh {
			return
		}
		if u.Op == Var {
			out = append(out, u)
			return
		}
		// A cached subterm contributes its variables without re-walking.
		if p := u.varsCache.Load(); p != nil {
			for _, v := range *p {
				if seen, fresh = seen.add(v); fresh {
					out = append(out, v)
				}
			}
			return
		}
		for _, a := range u.Args {
			walk(a)
		}
	}
	walk(t)
	t.varsCache.Store(&out)
	return out
}

// visitSmall is how many terms a visited set scans linearly before it
// builds a map. Most of the walks Vars and Loads make stop at cached
// subterms within a few dozen nodes, and a map per walk was most of what
// they allocated.
const visitSmall = 32

// visited is the set of terms one walk has seen.
type visited struct {
	list []*Term
	m    map[*Term]struct{}
}

// add returns the set with u added, and whether u was new. It takes and
// returns the set by value: appending through a pointer would move the
// caller's stack buffer to the heap.
func (v visited) add(u *Term) (visited, bool) {
	if v.m == nil {
		for _, x := range v.list {
			if x == u {
				return v, false
			}
		}
		if len(v.list) < visitSmall {
			v.list = append(v.list, u)
			return v, true
		}
		v.m = make(map[*Term]struct{}, 2*visitSmall)
		for _, x := range v.list {
			v.m[x] = struct{}{}
		}
	}
	if _, ok := v.m[u]; ok {
		return v, false
	}
	v.m[u] = struct{}{}
	return v, true
}

// CountOp returns the number of distinct nodes with the given op.
func (t *Term) CountOp(op Op) int {
	n := 0
	seen := map[*Term]bool{}
	var walk func(*Term)
	walk = func(u *Term) {
		if seen[u] {
			return
		}
		seen[u] = true
		if u.Op == op {
			n++
		}
		for _, a := range u.Args {
			walk(a)
		}
	}
	walk(t)
	return n
}

// Loads returns all distinct Load nodes in t.
func (t *Term) Loads() []*Term {
	if p := t.loadsCache.Load(); p != nil {
		return *p
	}
	var out []*Term
	var buf [visitSmall]*Term
	seen := visited{list: buf[:0]}
	var walk func(*Term)
	walk = func(u *Term) {
		var fresh bool
		if seen, fresh = seen.add(u); !fresh {
			return
		}
		if u.Op == Load {
			out = append(out, u)
		}
		// Note: unlike Vars, a Load may contain further Loads in its
		// address, so cached subterm results are still merged via the
		// seen set rather than cutting the walk short.
		if p := u.loadsCache.Load(); p != nil {
			for _, l := range *p {
				if seen, fresh = seen.add(l); fresh {
					out = append(out, l)
				}
			}
			return
		}
		for _, a := range u.Args {
			walk(a)
		}
	}
	walk(t)
	t.loadsCache.Store(&out)
	return out
}

// String renders the term as an SMT-LIB-flavoured s-expression.
func (t *Term) String() string {
	var sb strings.Builder
	t.write(&sb)
	return sb.String()
}

func (t *Term) write(sb *strings.Builder) {
	switch t.Op {
	case Const:
		sb.WriteString(t.CVal.String())
	case Var:
		sb.WriteString(t.Name)
	case Extract:
		fmt.Fprintf(sb, "((_ extract %d %d) ", t.Aux0, t.Aux1)
		t.Args[0].write(sb)
		sb.WriteByte(')')
	case ZExt, SExt:
		fmt.Fprintf(sb, "((_ %s %d) ", t.Op, t.W()-t.Args[0].W())
		t.Args[0].write(sb)
		sb.WriteByte(')')
	case Load:
		fmt.Fprintf(sb, "(load%d ", t.Aux0)
		t.Args[0].write(sb)
		sb.WriteByte(')')
	case Store:
		fmt.Fprintf(sb, "(store%d ", t.Aux0)
		t.Args[0].write(sb)
		sb.WriteByte(' ')
		t.Args[1].write(sb)
		sb.WriteByte(')')
	default:
		sb.WriteByte('(')
		sb.WriteString(t.Op.String())
		for _, a := range t.Args {
			sb.WriteByte(' ')
			a.write(sb)
		}
		sb.WriteByte(')')
	}
}
