package term

import (
	"fmt"

	"iselgen/internal/bv"
)

// Builder interns terms. All terms that may be compared for pointer
// equality, stored in the same trie, or checked by the same SMT context
// must come from the same Builder.
//
// Builders perform light constant folding and a handful of local
// simplifications at construction time (x+0, x*1, x^x, double negation,
// ...). Deeper normalization — linear combinations, coefficient
// extraction, operand ordering — is the job of package canon.
// isa.AppendCache.MustRead mirrors these folds to predict, without
// building, which variables a composition keeps: a new fold that can
// drop an argument must be mirrored there.
type Builder struct {
	terms map[key]*Term
	vars  map[string]*Term
	next  uint32
}

// key is the hash-cons key of a constant or operation term; variables
// are interned by name in vars. It holds no pointer, so the table costs
// the collector nothing beyond its values.
type key struct {
	op         Op
	width      uint8
	aux0, aux1 int32
	// x0 and x1 hold a constant's Lo and Hi, or an operation's argument
	// IDs + 1 (0 means absent): the first two in x0, the third in x1.
	x0, x1 uint64
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{terms: make(map[key]*Term), vars: make(map[string]*Term)}
}

// NumTerms returns the number of distinct interned terms.
func (b *Builder) NumTerms() int { return len(b.terms) + len(b.vars) }

// node returns the interned op(args...) term. It looks the hash-cons key
// up first and allocates the term, with its Args in the same object, only
// on a miss: stage 1 rebuilds many subterms it already holds, and a
// term allocated before the lookup would be garbage on every hit.
func (b *Builder) node(op Op, width uint8, aux0, aux1 int32, args ...*Term) *Term {
	k := key{op: op, width: width, aux0: aux0, aux1: aux1}
	switch len(args) {
	case 3:
		k.x1 = uint64(args[2].ID) + 1
		fallthrough
	case 2:
		k.x0 = (uint64(args[1].ID) + 1) << 32
		fallthrough
	case 1:
		k.x0 |= uint64(args[0].ID) + 1
	default:
		panic("term: arity must be 1..3")
	}
	if old, ok := b.terms[k]; ok {
		return old
	}
	var t *Term
	switch len(args) {
	case 1:
		n := &struct {
			t Term
			a [1]*Term
		}{}
		n.a[0] = args[0]
		t = &n.t
		t.Args = n.a[:]
	case 2:
		n := &struct {
			t Term
			a [2]*Term
		}{}
		n.a[0], n.a[1] = args[0], args[1]
		t = &n.t
		t.Args = n.a[:]
	default:
		n := &struct {
			t Term
			a [3]*Term
		}{}
		n.a[0], n.a[1], n.a[2] = args[0], args[1], args[2]
		t = &n.t
		t.Args = n.a[:]
	}
	t.Op, t.Width, t.Aux0, t.Aux1 = op, width, aux0, aux1
	return b.add(k, t)
}

// add interns t, a term new to the builder, under k. IDs count misses,
// so they follow first-construction order.
func (b *Builder) add(k key, t *Term) *Term {
	t.ID = b.next
	b.next++
	b.terms[k] = t
	return t
}

// ConstBV returns the constant term for v.
func (b *Builder) ConstBV(v bv.BV) *Term {
	k := key{op: Const, width: v.Width, x0: v.Lo, x1: v.Hi}
	if old, ok := b.terms[k]; ok {
		return old
	}
	return b.add(k, &Term{Op: Const, Width: v.Width, CVal: v})
}

// Const returns the constant term of the given width and value.
func (b *Builder) Const(width int, v uint64) *Term {
	return b.ConstBV(bv.New(width, v))
}

// ConstInt returns a constant from a signed value.
func (b *Builder) ConstInt(width int, v int64) *Term {
	return b.ConstBV(bv.NewInt(width, v))
}

// VarT returns the variable term with the given name, kind, and width.
// The same (name) must always be used with the same kind and width.
func (b *Builder) VarT(name string, kind VarKind, width int) *Term {
	if old, ok := b.vars[name]; ok {
		if old.Kind != kind || old.W() != width {
			panic(fmt.Sprintf("term: variable %q redeclared as %v/%d (was %v/%d)",
				name, kind, width, old.Kind, old.W()))
		}
		return old
	}
	t := &Term{ID: b.next, Op: Var, Width: uint8(width), Name: name, Kind: kind}
	b.next++
	b.vars[name] = t
	return t
}

// Reg returns a register variable.
func (b *Builder) Reg(name string, width int) *Term { return b.VarT(name, KindReg, width) }

// Imm returns an immediate variable.
func (b *Builder) Imm(name string, width int) *Term { return b.VarT(name, KindImm, width) }

func checkSameWidth(op Op, x, y *Term) {
	if x.Width != y.Width {
		panic(fmt.Sprintf("term: %v width mismatch %d vs %d (%s vs %s)",
			op, x.Width, y.Width, x, y))
	}
}

func (b *Builder) binary(op Op, x, y *Term) *Term {
	checkSameWidth(op, x, y)
	w := x.Width
	if op == Eq || op == Ult || op == Slt {
		w = 1
	}
	// Order commutative operands by ID for a normal form at build time.
	if op.IsCommutative() && y.ID < x.ID {
		x, y = y, x
	}
	return b.node(op, w, 0, 0, x, y)
}

// Add returns x + y, folding constants and dropping zero addends.
func (b *Builder) Add(x, y *Term) *Term {
	checkSameWidth(Add, x, y)
	if x.IsConst() && y.IsConst() {
		return b.ConstBV(x.CVal.Add(y.CVal))
	}
	if x.IsConst() && x.CVal.IsZero() {
		return y
	}
	if y.IsConst() && y.CVal.IsZero() {
		return x
	}
	return b.binary(Add, x, y)
}

// Sub returns x - y.
func (b *Builder) Sub(x, y *Term) *Term {
	checkSameWidth(Sub, x, y)
	if x.IsConst() && y.IsConst() {
		return b.ConstBV(x.CVal.Sub(y.CVal))
	}
	if y.IsConst() && y.CVal.IsZero() {
		return x
	}
	if x == y {
		return b.Const(x.W(), 0)
	}
	return b.binary(Sub, x, y)
}

// Mul returns x * y.
func (b *Builder) Mul(x, y *Term) *Term {
	checkSameWidth(Mul, x, y)
	if x.IsConst() && y.IsConst() {
		return b.ConstBV(x.CVal.Mul(y.CVal))
	}
	for _, p := range [2][2]*Term{{x, y}, {y, x}} {
		c, o := p[0], p[1]
		if c.IsConst() {
			if c.CVal.IsZero() {
				return c
			}
			if c.CVal.Lo == 1 && c.CVal.Hi == 0 {
				return o
			}
			if c.CVal.IsOnes() {
				return b.Neg(o)
			}
			if n, ok := c.CVal.IsPow2(); ok {
				return b.Shl(o, b.Const(o.W(), uint64(n)))
			}
		}
	}
	return b.binary(Mul, x, y)
}

// UDiv returns x / y (unsigned, SMT-LIB semantics).
func (b *Builder) UDiv(x, y *Term) *Term {
	if x.IsConst() && y.IsConst() {
		return b.ConstBV(x.CVal.UDiv(y.CVal))
	}
	return b.binary(UDiv, x, y)
}

// SDiv returns x / y (signed).
func (b *Builder) SDiv(x, y *Term) *Term {
	if x.IsConst() && y.IsConst() {
		return b.ConstBV(x.CVal.SDiv(y.CVal))
	}
	return b.binary(SDiv, x, y)
}

// URem returns x mod y (unsigned).
func (b *Builder) URem(x, y *Term) *Term {
	if x.IsConst() && y.IsConst() {
		return b.ConstBV(x.CVal.URem(y.CVal))
	}
	return b.binary(URem, x, y)
}

// SRem returns the signed remainder.
func (b *Builder) SRem(x, y *Term) *Term {
	if x.IsConst() && y.IsConst() {
		return b.ConstBV(x.CVal.SRem(y.CVal))
	}
	return b.binary(SRem, x, y)
}

// Neg returns -x.
func (b *Builder) Neg(x *Term) *Term {
	if x.IsConst() {
		return b.ConstBV(x.CVal.Neg())
	}
	if x.Op == Neg {
		return x.Args[0]
	}
	return b.node(Neg, x.Width, 0, 0, x)
}

// Not returns the bitwise complement of x.
func (b *Builder) Not(x *Term) *Term {
	if x.IsConst() {
		return b.ConstBV(x.CVal.Not())
	}
	if x.Op == Not {
		return x.Args[0]
	}
	return b.node(Not, x.Width, 0, 0, x)
}

// And returns x & y.
func (b *Builder) And(x, y *Term) *Term {
	checkSameWidth(And, x, y)
	if x.IsConst() && y.IsConst() {
		return b.ConstBV(x.CVal.And(y.CVal))
	}
	if x == y {
		return x
	}
	for _, p := range [2][2]*Term{{x, y}, {y, x}} {
		c, o := p[0], p[1]
		if c.IsConst() {
			if c.CVal.IsZero() {
				return c
			}
			if c.CVal.IsOnes() {
				return o
			}
		}
	}
	return b.binary(And, x, y)
}

// Or returns x | y.
func (b *Builder) Or(x, y *Term) *Term {
	checkSameWidth(Or, x, y)
	if x.IsConst() && y.IsConst() {
		return b.ConstBV(x.CVal.Or(y.CVal))
	}
	if x == y {
		return x
	}
	for _, p := range [2][2]*Term{{x, y}, {y, x}} {
		c, o := p[0], p[1]
		if c.IsConst() {
			if c.CVal.IsZero() {
				return o
			}
			if c.CVal.IsOnes() {
				return c
			}
		}
	}
	return b.binary(Or, x, y)
}

// Xor returns x ^ y.
func (b *Builder) Xor(x, y *Term) *Term {
	checkSameWidth(Xor, x, y)
	if x.IsConst() && y.IsConst() {
		return b.ConstBV(x.CVal.Xor(y.CVal))
	}
	if x == y {
		return b.Const(x.W(), 0)
	}
	for _, p := range [2][2]*Term{{x, y}, {y, x}} {
		c, o := p[0], p[1]
		if c.IsConst() {
			if c.CVal.IsZero() {
				return o
			}
			if c.CVal.IsOnes() {
				return b.Not(o)
			}
		}
	}
	return b.binary(Xor, x, y)
}

// Shl returns x << y.
func (b *Builder) Shl(x, y *Term) *Term {
	if x.IsConst() && y.IsConst() {
		return b.ConstBV(x.CVal.Shl(y.CVal))
	}
	if y.IsConst() && y.CVal.IsZero() {
		return x
	}
	return b.binary(Shl, x, y)
}

// LShr returns x >> y (logical).
func (b *Builder) LShr(x, y *Term) *Term {
	if x.IsConst() && y.IsConst() {
		return b.ConstBV(x.CVal.LShr(y.CVal))
	}
	if y.IsConst() && y.CVal.IsZero() {
		return x
	}
	return b.binary(LShr, x, y)
}

// AShr returns x >> y (arithmetic).
func (b *Builder) AShr(x, y *Term) *Term {
	if x.IsConst() && y.IsConst() {
		return b.ConstBV(x.CVal.AShr(y.CVal))
	}
	if y.IsConst() && y.CVal.IsZero() {
		return x
	}
	return b.binary(AShr, x, y)
}

// RotL returns x rotated left by y.
func (b *Builder) RotL(x, y *Term) *Term {
	if x.IsConst() && y.IsConst() {
		return b.ConstBV(x.CVal.RotL(y.CVal))
	}
	return b.binary(RotL, x, y)
}

// RotR returns x rotated right by y.
func (b *Builder) RotR(x, y *Term) *Term {
	if x.IsConst() && y.IsConst() {
		return b.ConstBV(x.CVal.RotR(y.CVal))
	}
	return b.binary(RotR, x, y)
}

// Eq returns the 1-bit comparison x == y.
func (b *Builder) Eq(x, y *Term) *Term {
	if x.IsConst() && y.IsConst() {
		return b.ConstBV(bv.NewBool(x.CVal.Eq(y.CVal)))
	}
	if x == y {
		return b.Const(1, 1)
	}
	return b.binary(Eq, x, y)
}

// Ne returns the 1-bit comparison x != y (encoded as bvnot (= x y)).
func (b *Builder) Ne(x, y *Term) *Term { return b.Not(b.Eq(x, y)) }

// Ult returns the 1-bit comparison x < y (unsigned).
func (b *Builder) Ult(x, y *Term) *Term {
	if x.IsConst() && y.IsConst() {
		return b.ConstBV(bv.NewBool(x.CVal.Ult(y.CVal)))
	}
	if x == y {
		return b.Const(1, 0)
	}
	return b.binary(Ult, x, y)
}

// Slt returns the 1-bit comparison x < y (signed).
func (b *Builder) Slt(x, y *Term) *Term {
	if x.IsConst() && y.IsConst() {
		return b.ConstBV(bv.NewBool(x.CVal.Slt(y.CVal)))
	}
	if x == y {
		return b.Const(1, 0)
	}
	return b.binary(Slt, x, y)
}

// Ule returns x <= y unsigned, encoded as not(y < x).
func (b *Builder) Ule(x, y *Term) *Term { return b.Not(b.Ult(y, x)) }

// Sle returns x <= y signed, encoded as not(y < x).
func (b *Builder) Sle(x, y *Term) *Term { return b.Not(b.Slt(y, x)) }

// Ugt returns x > y unsigned.
func (b *Builder) Ugt(x, y *Term) *Term { return b.Ult(y, x) }

// Sgt returns x > y signed.
func (b *Builder) Sgt(x, y *Term) *Term { return b.Slt(y, x) }

// Concat returns x ++ y with x as the high part.
func (b *Builder) Concat(x, y *Term) *Term {
	if x.IsConst() && y.IsConst() {
		return b.ConstBV(x.CVal.Concat(y.CVal))
	}
	w := x.W() + y.W()
	if w > bv.MaxWidth {
		panic("term: concat exceeds max width")
	}
	return b.node(Concat, uint8(w), 0, 0, x, y)
}

// Extract returns bits hi..lo of x.
func (b *Builder) Extract(hi, lo int, x *Term) *Term {
	if hi < lo || lo < 0 || hi >= x.W() {
		panic(fmt.Sprintf("term: bad extract [%d:%d] of width %d", hi, lo, x.W()))
	}
	if lo == 0 && hi == x.W()-1 {
		return x
	}
	if x.IsConst() {
		return b.ConstBV(x.CVal.Extract(hi, lo))
	}
	if x.Op == Extract {
		return b.Extract(int(x.Aux1)+hi, int(x.Aux1)+lo, x.Args[0])
	}
	if x.Op == ZExt && hi < x.Args[0].W() {
		return b.Extract(hi, lo, x.Args[0])
	}
	if x.Op == ZExt && lo >= x.Args[0].W() {
		return b.Const(hi-lo+1, 0)
	}
	if x.Op == Concat {
		loW := x.Args[1].W()
		if lo >= loW {
			return b.Extract(hi-loW, lo-loW, x.Args[0])
		}
		if hi < loW {
			return b.Extract(hi, lo, x.Args[1])
		}
	}
	return b.node(Extract, uint8(hi-lo+1), int32(hi), int32(lo), x)
}

// ZExt zero-extends x to the given width.
func (b *Builder) ZExt(width int, x *Term) *Term {
	if width == x.W() {
		return x
	}
	if width < x.W() {
		panic(fmt.Sprintf("term: zext %d -> %d shrinks", x.W(), width))
	}
	if x.IsConst() {
		return b.ConstBV(x.CVal.ZExt(width))
	}
	if x.Op == ZExt {
		return b.ZExt(width, x.Args[0])
	}
	return b.node(ZExt, uint8(width), 0, 0, x)
}

// SExt sign-extends x to the given width.
func (b *Builder) SExt(width int, x *Term) *Term {
	if width == x.W() {
		return x
	}
	if width < x.W() {
		panic(fmt.Sprintf("term: sext %d -> %d shrinks", x.W(), width))
	}
	if x.IsConst() {
		return b.ConstBV(x.CVal.SExt(width))
	}
	if x.Op == SExt {
		return b.SExt(width, x.Args[0])
	}
	return b.node(SExt, uint8(width), 0, 0, x)
}

// Trunc truncates x to the given width (an extract of the low bits).
func (b *Builder) Trunc(width int, x *Term) *Term {
	if width == x.W() {
		return x
	}
	return b.Extract(width-1, 0, x)
}

// Ite returns if cond != 0 then x else y. cond must be 1 bit wide.
func (b *Builder) Ite(cond, x, y *Term) *Term {
	if cond.W() != 1 {
		panic("term: ite condition must be 1 bit")
	}
	checkSameWidth(Ite, x, y)
	if cond.IsConst() {
		if cond.CVal.Bool() {
			return x
		}
		return y
	}
	if x == y {
		return x
	}
	return b.node(Ite, x.Width, 0, 0, cond, x, y)
}

// Bool converts a term to a 1-bit condition: x != 0.
func (b *Builder) Bool(x *Term) *Term {
	if x.W() == 1 {
		return x
	}
	return b.Ne(x, b.Const(x.W(), 0))
}

// Load returns the symbolic load of `width` bits from the 64-bit address
// term addr.
func (b *Builder) Load(width int, addr *Term) *Term {
	if addr.W() != 64 {
		panic("term: load address must be 64 bits")
	}
	return b.node(Load, uint8(width), int32(width), 0, addr)
}

// Store returns the symbolic store effect of val to the 64-bit address
// term addr. Store terms may only appear as the root of a memory effect.
func (b *Builder) Store(addr, val *Term) *Term {
	if addr.W() != 64 {
		panic("term: store address must be 64 bits")
	}
	return b.node(Store, val.Width, int32(val.W()), 0, addr, val)
}

// Popcount returns the population count of x.
func (b *Builder) Popcount(x *Term) *Term {
	if x.IsConst() {
		return b.ConstBV(x.CVal.Popcount())
	}
	return b.node(Popcount, x.Width, 0, 0, x)
}

// Clz returns the count of leading zeros of x.
func (b *Builder) Clz(x *Term) *Term {
	if x.IsConst() {
		return b.ConstBV(x.CVal.Clz())
	}
	return b.node(Clz, x.Width, 0, 0, x)
}

// Ctz returns the count of trailing zeros of x.
func (b *Builder) Ctz(x *Term) *Term {
	if x.IsConst() {
		return b.ConstBV(x.CVal.Ctz())
	}
	return b.node(Ctz, x.Width, 0, 0, x)
}

// Rev returns the byte-reverse of x.
func (b *Builder) Rev(x *Term) *Term {
	if x.IsConst() {
		return b.ConstBV(x.CVal.Rev())
	}
	if x.Op == Rev {
		return x.Args[0]
	}
	return b.node(Rev, x.Width, 0, 0, x)
}

// Rebuild re-creates t inside this builder, applying subst to variables.
// Variables not present in subst are re-interned unchanged. The result
// of substitution must be width-compatible with the variable it replaces.
func (b *Builder) Rebuild(t *Term, subst map[*Term]*Term) *Term {
	// subst doubles as the memo table: every visited node's rewrite is
	// recorded in it (u -> rebuilt-u is itself a valid, idempotent
	// substitution entry). Callers that rebuild several effect terms of
	// one instruction with the same map therefore share the walk over
	// common subterms instead of re-deriving them per effect.
	var walk func(*Term) *Term
	walk = func(u *Term) *Term {
		if s, ok := subst[u]; ok {
			if s.W() != u.W() {
				panic(fmt.Sprintf("term: substitution width mismatch for %s: %d vs %d", u, u.W(), s.W()))
			}
			return s
		}
		var r *Term
		switch u.Op {
		case Const:
			r = b.ConstBV(u.CVal)
		case Var:
			r = b.VarT(u.Name, u.Kind, u.W())
		default:
			args := make([]*Term, len(u.Args))
			for i, a := range u.Args {
				args[i] = walk(a)
			}
			r = b.Apply(u.Op, u.W(), int(u.Aux0), int(u.Aux1), args)
		}
		subst[u] = r
		return r
	}
	return walk(t)
}

// RebuildOverlay is Rebuild with the substitution split into a read-only
// base and a mutable overlay: lookups consult the overlay first, then
// the base; every rewrite is recorded in the overlay only. Calling
// Rebuild on a clone of base pre-seeded with the overlay's entries gives
// identical results — this variant just spares the clone when the base
// is a large shared memo and only a few entries differ per call.
func (b *Builder) RebuildOverlay(t *Term, base, overlay map[*Term]*Term) *Term {
	var walk func(*Term) *Term
	walk = func(u *Term) *Term {
		s, ok := overlay[u]
		if !ok {
			s, ok = base[u]
		}
		if ok {
			if s.W() != u.W() {
				panic(fmt.Sprintf("term: substitution width mismatch for %s: %d vs %d", u, u.W(), s.W()))
			}
			return s
		}
		var r *Term
		switch u.Op {
		case Const:
			r = b.ConstBV(u.CVal)
		case Var:
			r = b.VarT(u.Name, u.Kind, u.W())
		default:
			args := make([]*Term, len(u.Args))
			for i, a := range u.Args {
				args[i] = walk(a)
			}
			r = b.Apply(u.Op, u.W(), int(u.Aux0), int(u.Aux1), args)
		}
		overlay[u] = r
		return r
	}
	return walk(t)
}

// Apply constructs a term of the given op from already-built arguments,
// dispatching to the simplifying constructors.
func (b *Builder) Apply(op Op, width, aux0, aux1 int, args []*Term) *Term {
	switch op {
	case Add:
		return b.Add(args[0], args[1])
	case Sub:
		return b.Sub(args[0], args[1])
	case Mul:
		return b.Mul(args[0], args[1])
	case UDiv:
		return b.UDiv(args[0], args[1])
	case SDiv:
		return b.SDiv(args[0], args[1])
	case URem:
		return b.URem(args[0], args[1])
	case SRem:
		return b.SRem(args[0], args[1])
	case Neg:
		return b.Neg(args[0])
	case Not:
		return b.Not(args[0])
	case And:
		return b.And(args[0], args[1])
	case Or:
		return b.Or(args[0], args[1])
	case Xor:
		return b.Xor(args[0], args[1])
	case Shl:
		return b.Shl(args[0], args[1])
	case LShr:
		return b.LShr(args[0], args[1])
	case AShr:
		return b.AShr(args[0], args[1])
	case RotL:
		return b.RotL(args[0], args[1])
	case RotR:
		return b.RotR(args[0], args[1])
	case Eq:
		return b.Eq(args[0], args[1])
	case Ult:
		return b.Ult(args[0], args[1])
	case Slt:
		return b.Slt(args[0], args[1])
	case Concat:
		return b.Concat(args[0], args[1])
	case Extract:
		return b.Extract(aux0, aux1, args[0])
	case ZExt:
		return b.ZExt(width, args[0])
	case SExt:
		return b.SExt(width, args[0])
	case Ite:
		return b.Ite(args[0], args[1], args[2])
	case Load:
		return b.Load(aux0, args[0])
	case Store:
		return b.Store(args[0], args[1])
	case Popcount:
		return b.Popcount(args[0])
	case Clz:
		return b.Clz(args[0])
	case Ctz:
		return b.Ctz(args[0])
	case Rev:
		return b.Rev(args[0])
	default:
		panic(fmt.Sprintf("term: Apply of %v", op))
	}
}
