// Package bitblast lowers bitvector terms to CNF via Tseitin encoding,
// turning the sat package into a decision procedure for QF_BV — the
// reproduction's substitute for Z3's bitvector engine.
//
// Each term maps to one SAT literal per bit. Gates are deduplicated
// through a structural cache, constants are propagated eagerly, and
// word-level structure (ripple-carry adders, shift-and-add multipliers,
// barrel shifters, long-division circuits, priority encoders) is encoded
// with the textbook circuits.
//
// Load and Store terms are not handled here: the smt package substitutes
// paired loads with shared fresh variables before blasting (see
// smt.Equiv), so a Load reaching the blaster is allocated fresh
// unconstrained bits, and a Store is rejected.
package bitblast

import (
	"errors"
	"fmt"

	"iselgen/internal/sat"
	"iselgen/internal/term"
)

// ErrUnsupported reports a term that cannot be bit-blasted (Store roots
// and variable rotates of non-power-of-two widths).
var ErrUnsupported = errors.New("bitblast: unsupported operation")

// Blaster encodes terms into a sat.Solver.
type Blaster struct {
	S *sat.Solver

	lTrue  sat.Lit // literal constrained to true
	lFalse sat.Lit

	bits  map[*term.Term][]sat.Lit
	vars  map[string][]sat.Lit
	gates map[gateKey]sat.Lit
}

type gateKey struct {
	op   uint8
	x, y sat.Lit
	z    sat.Lit
}

const (
	gAnd uint8 = iota
	gOr
	gXor
	gIte
)

// New returns a Blaster over the given solver.
func New(s *sat.Solver) *Blaster {
	b := &Blaster{
		S:     s,
		bits:  make(map[*term.Term][]sat.Lit),
		vars:  make(map[string][]sat.Lit),
		gates: make(map[gateKey]sat.Lit),
	}
	v := s.NewVar()
	b.lTrue = sat.LitOf(v, false)
	b.lFalse = b.lTrue.Flip()
	s.AddClause(b.lTrue)
	return b
}

// constLit returns the literal for a constant bit.
func (b *Blaster) constLit(v bool) sat.Lit {
	if v {
		return b.lTrue
	}
	return b.lFalse
}

func (b *Blaster) isTrue(l sat.Lit) bool  { return l == b.lTrue }
func (b *Blaster) isFalse(l sat.Lit) bool { return l == b.lFalse }

// fresh allocates an unconstrained literal.
func (b *Blaster) fresh() sat.Lit { return sat.LitOf(b.S.NewVar(), false) }

// VarBits returns (allocating on first use) the bit literals of the named
// variable. The same name always yields the same literals, which is how
// the two sides of an equivalence query share their inputs.
func (b *Blaster) VarBits(name string, width int) []sat.Lit {
	if ls, ok := b.vars[name]; ok {
		if len(ls) != width {
			panic(fmt.Sprintf("bitblast: variable %q used at widths %d and %d",
				name, len(ls), width))
		}
		return ls
	}
	ls := make([]sat.Lit, width)
	for i := range ls {
		ls[i] = b.fresh()
	}
	b.vars[name] = ls
	return ls
}

// --- gate constructors with constant propagation and caching ---

func (b *Blaster) and2(x, y sat.Lit) sat.Lit {
	if b.isFalse(x) || b.isFalse(y) {
		return b.lFalse
	}
	if b.isTrue(x) {
		return y
	}
	if b.isTrue(y) {
		return x
	}
	if x == y {
		return x
	}
	if x == y.Flip() {
		return b.lFalse
	}
	if y < x {
		x, y = y, x
	}
	k := gateKey{op: gAnd, x: x, y: y}
	if g, ok := b.gates[k]; ok {
		return g
	}
	g := b.fresh()
	// g <-> x & y
	b.S.AddClause(g.Flip(), x)
	b.S.AddClause(g.Flip(), y)
	b.S.AddClause(g, x.Flip(), y.Flip())
	b.gates[k] = g
	return g
}

func (b *Blaster) or2(x, y sat.Lit) sat.Lit {
	return b.and2(x.Flip(), y.Flip()).Flip()
}

func (b *Blaster) xor2(x, y sat.Lit) sat.Lit {
	if b.isFalse(x) {
		return y
	}
	if b.isFalse(y) {
		return x
	}
	if b.isTrue(x) {
		return y.Flip()
	}
	if b.isTrue(y) {
		return x.Flip()
	}
	if x == y {
		return b.lFalse
	}
	if x == y.Flip() {
		return b.lTrue
	}
	// Normalize: strip negations into a parity flip for better caching.
	flip := false
	if x.Neg() {
		x, flip = x.Flip(), !flip
	}
	if y.Neg() {
		y, flip = y.Flip(), !flip
	}
	if y < x {
		x, y = y, x
	}
	k := gateKey{op: gXor, x: x, y: y}
	g, ok := b.gates[k]
	if !ok {
		g = b.fresh()
		b.S.AddClause(g.Flip(), x, y)
		b.S.AddClause(g.Flip(), x.Flip(), y.Flip())
		b.S.AddClause(g, x, y.Flip())
		b.S.AddClause(g, x.Flip(), y)
		b.gates[k] = g
	}
	if flip {
		return g.Flip()
	}
	return g
}

// mux returns c ? x : y.
func (b *Blaster) mux(c, x, y sat.Lit) sat.Lit {
	if b.isTrue(c) {
		return x
	}
	if b.isFalse(c) {
		return y
	}
	if x == y {
		return x
	}
	if b.isTrue(x) && b.isFalse(y) {
		return c
	}
	if b.isFalse(x) && b.isTrue(y) {
		return c.Flip()
	}
	k := gateKey{op: gIte, x: c, y: x, z: y}
	if g, ok := b.gates[k]; ok {
		return g
	}
	g := b.fresh()
	// g <-> (c ? x : y)
	b.S.AddClause(g.Flip(), c.Flip(), x)
	b.S.AddClause(g, c.Flip(), x.Flip())
	b.S.AddClause(g.Flip(), c, y)
	b.S.AddClause(g, c, y.Flip())
	b.gates[k] = g
	return g
}

// fullAdder returns (sum, carry) of x + y + cin.
func (b *Blaster) fullAdder(x, y, cin sat.Lit) (sum, cout sat.Lit) {
	sum = b.xor2(b.xor2(x, y), cin)
	cout = b.or2(b.and2(x, y), b.and2(cin, b.xor2(x, y)))
	return
}

// addBits returns x + y (+1 if cin) truncated to len(x) bits.
func (b *Blaster) addBits(x, y []sat.Lit, cin sat.Lit) []sat.Lit {
	out := make([]sat.Lit, len(x))
	c := cin
	for i := range x {
		out[i], c = b.fullAdder(x[i], y[i], c)
	}
	return out
}

func (b *Blaster) negBits(x []sat.Lit) []sat.Lit {
	inv := make([]sat.Lit, len(x))
	for i := range x {
		inv[i] = x[i].Flip()
	}
	zero := make([]sat.Lit, len(x))
	for i := range zero {
		zero[i] = b.lFalse
	}
	return b.addBits(inv, zero, b.lTrue)
}

// ultBits returns the literal for x < y (unsigned).
func (b *Blaster) ultBits(x, y []sat.Lit) sat.Lit {
	lt := b.lFalse
	for i := 0; i < len(x); i++ {
		// From LSB to MSB: lt = (¬x_i ∧ y_i) ∨ (x_i == y_i ∧ lt)
		eq := b.xor2(x[i], y[i]).Flip()
		lt = b.or2(b.and2(x[i].Flip(), y[i]), b.and2(eq, lt))
	}
	return lt
}

func (b *Blaster) eqBits(x, y []sat.Lit) sat.Lit {
	acc := b.lTrue
	for i := range x {
		acc = b.and2(acc, b.xor2(x[i], y[i]).Flip())
	}
	return acc
}

// muxBits returns c ? x : y elementwise.
func (b *Blaster) muxBits(c sat.Lit, x, y []sat.Lit) []sat.Lit {
	out := make([]sat.Lit, len(x))
	for i := range x {
		out[i] = b.mux(c, x[i], y[i])
	}
	return out
}

func (b *Blaster) constBits(width int, get func(i int) bool) []sat.Lit {
	out := make([]sat.Lit, width)
	for i := range out {
		out[i] = b.constLit(get(i))
	}
	return out
}

// Blast returns the bit literals (LSB first) of t, encoding any needed
// gates into the solver.
func (b *Blaster) Blast(t *term.Term) ([]sat.Lit, error) {
	if ls, ok := b.bits[t]; ok {
		return ls, nil
	}
	ls, err := b.blast(t)
	if err != nil {
		return nil, err
	}
	if len(ls) != t.W() {
		panic(fmt.Sprintf("bitblast: %v produced %d bits, want %d", t.Op, len(ls), t.W()))
	}
	b.bits[t] = ls
	return ls, nil
}

func (b *Blaster) blast(t *term.Term) ([]sat.Lit, error) {
	w := t.W()
	args := make([][]sat.Lit, len(t.Args))
	if t.Op != term.Store { // stores are rejected below without recursing
		for i, a := range t.Args {
			ls, err := b.Blast(a)
			if err != nil {
				return nil, err
			}
			args[i] = ls
		}
	}
	switch t.Op {
	case term.Const:
		return b.constBits(w, func(i int) bool { return t.CVal.Bit(i) == 1 }), nil

	case term.Var:
		return b.VarBits(t.Name, w), nil

	case term.Load:
		// Fresh unconstrained bits per (hash-consed) load node. The smt
		// layer pre-substitutes paired loads with shared variables, so
		// this path is only reached for loads that need no pairing.
		out := make([]sat.Lit, w)
		for i := range out {
			out[i] = b.fresh()
		}
		return out, nil

	case term.Store:
		return nil, fmt.Errorf("%w: store", ErrUnsupported)

	case term.Add:
		return b.addBits(args[0], args[1], b.lFalse), nil

	case term.Sub:
		inv := make([]sat.Lit, w)
		for i := range inv {
			inv[i] = args[1][i].Flip()
		}
		return b.addBits(args[0], inv, b.lTrue), nil

	case term.Neg:
		return b.negBits(args[0]), nil

	case term.Not:
		out := make([]sat.Lit, w)
		for i := range out {
			out[i] = args[0][i].Flip()
		}
		return out, nil

	case term.And, term.Or, term.Xor:
		out := make([]sat.Lit, w)
		for i := range out {
			switch t.Op {
			case term.And:
				out[i] = b.and2(args[0][i], args[1][i])
			case term.Or:
				out[i] = b.or2(args[0][i], args[1][i])
			default:
				out[i] = b.xor2(args[0][i], args[1][i])
			}
		}
		return out, nil

	case term.Mul:
		// Shift-and-add: acc += y_j ? (x << j) : 0. If one operand has
		// constant bits (e.g. a folded immediate), prefer it as the
		// multiplier so zero partial products can be skipped entirely.
		xs, ys := args[0], args[1]
		if countConst(b, xs) > countConst(b, ys) {
			xs, ys = ys, xs
		}
		acc := b.constBits(w, func(int) bool { return false })
		for j := 0; j < w; j++ {
			if b.isFalse(ys[j]) {
				continue
			}
			partial := make([]sat.Lit, w)
			for i := 0; i < w; i++ {
				if i < j {
					partial[i] = b.lFalse
				} else {
					partial[i] = b.and2(xs[i-j], ys[j])
				}
			}
			acc = b.addBits(acc, partial, b.lFalse)
		}
		return acc, nil

	case term.UDiv:
		q, _ := b.divCircuit(args[0], args[1])
		return q, nil

	case term.URem:
		_, r := b.divCircuit(args[0], args[1])
		return r, nil

	case term.SDiv, term.SRem:
		return b.signedDiv(t.Op, args[0], args[1]), nil

	case term.Shl, term.LShr, term.AShr:
		return b.shift(t.Op, args[0], args[1]), nil

	case term.RotL, term.RotR:
		if w&(w-1) != 0 {
			return nil, fmt.Errorf("%w: variable rotate at width %d", ErrUnsupported, w)
		}
		return b.rotate(t.Op == term.RotL, args[0], args[1]), nil

	case term.Eq:
		return []sat.Lit{b.eqBits(args[0], args[1])}, nil

	case term.Ult:
		return []sat.Lit{b.ultBits(args[0], args[1])}, nil

	case term.Slt:
		x := append([]sat.Lit(nil), args[0]...)
		y := append([]sat.Lit(nil), args[1]...)
		n := len(x) - 1
		x[n], y[n] = x[n].Flip(), y[n].Flip()
		return []sat.Lit{b.ultBits(x, y)}, nil

	case term.Concat:
		out := make([]sat.Lit, 0, w)
		out = append(out, args[1]...) // low part
		out = append(out, args[0]...) // high part
		return out, nil

	case term.Extract:
		return append([]sat.Lit(nil), args[0][t.Aux1:t.Aux0+1]...), nil

	case term.ZExt:
		out := append([]sat.Lit(nil), args[0]...)
		for len(out) < w {
			out = append(out, b.lFalse)
		}
		return out, nil

	case term.SExt:
		out := append([]sat.Lit(nil), args[0]...)
		sign := out[len(out)-1]
		for len(out) < w {
			out = append(out, sign)
		}
		return out, nil

	case term.Ite:
		return b.muxBits(args[0][0], args[1], args[2]), nil

	case term.Popcount:
		return b.popcount(args[0]), nil

	case term.Clz:
		return b.countZeros(args[0], true), nil

	case term.Ctz:
		return b.countZeros(args[0], false), nil

	case term.Rev:
		if w%8 != 0 {
			return nil, fmt.Errorf("%w: rev at width %d", ErrUnsupported, w)
		}
		out := make([]sat.Lit, w)
		nb := w / 8
		for i := 0; i < nb; i++ {
			copy(out[i*8:], args[0][(nb-1-i)*8:(nb-i)*8])
		}
		return out, nil

	default:
		return nil, fmt.Errorf("%w: %v", ErrUnsupported, t.Op)
	}
}

// shift builds a barrel shifter with SMT-LIB out-of-range semantics.
func (b *Blaster) shift(op term.Op, x, dist []sat.Lit) []sat.Lit {
	w := len(x)
	fill := b.lFalse
	if op == term.AShr {
		fill = x[w-1]
	}
	// Number of stage bits needed to cover shifts 0..w-1.
	stages := 0
	for 1<<stages < w {
		stages++
	}
	cur := append([]sat.Lit(nil), x...)
	for s := 0; s < stages && s < len(dist); s++ {
		k := 1 << s
		shifted := make([]sat.Lit, w)
		for i := 0; i < w; i++ {
			var src sat.Lit
			if op == term.Shl {
				if i-k >= 0 {
					src = cur[i-k]
				} else {
					src = b.lFalse
				}
			} else {
				if i+k < w {
					src = cur[i+k]
				} else {
					src = fill
				}
			}
			shifted[i] = b.mux(dist[s], src, cur[i])
		}
		cur = shifted
	}
	// Out of range: dist >= w.
	wBits := b.constBits(len(dist), func(i int) bool {
		return uint64(w)>>uint(i)&1 == 1
	})
	ge := b.ultBits(dist, wBits).Flip()
	out := make([]sat.Lit, w)
	for i := range out {
		out[i] = b.mux(ge, fill, cur[i])
	}
	return out
}

// rotate builds a barrel rotator (width must be a power of two, so the
// rotate distance is mod-w automatically via the low stage bits).
func (b *Blaster) rotate(left bool, x, dist []sat.Lit) []sat.Lit {
	w := len(x)
	stages := 0
	for 1<<stages < w {
		stages++
	}
	cur := append([]sat.Lit(nil), x...)
	for s := 0; s < stages && s < len(dist); s++ {
		k := 1 << s
		shifted := make([]sat.Lit, w)
		for i := 0; i < w; i++ {
			var src int
			if left {
				src = ((i-k)%w + w) % w
			} else {
				src = (i + k) % w
			}
			shifted[i] = b.mux(dist[s], cur[src], cur[i])
		}
		cur = shifted
	}
	return cur
}

// divCircuit implements restoring long division on w+1-bit remainders.
// For a zero divisor it naturally produces the SMT-LIB results
// (quotient all-ones, remainder = dividend).
func (b *Blaster) divCircuit(a, d []sat.Lit) (q, r []sat.Lit) {
	w := len(a)
	// Extended remainder and divisor (w+1 bits) to avoid overflow.
	rem := make([]sat.Lit, w+1)
	for i := range rem {
		rem[i] = b.lFalse
	}
	dExt := append(append([]sat.Lit(nil), d...), b.lFalse)
	q = make([]sat.Lit, w)
	for i := w - 1; i >= 0; i-- {
		// rem = rem<<1 | a[i]
		copy(rem[1:], rem[:w])
		rem[0] = a[i]
		ge := b.ultBits(rem, dExt).Flip()
		q[i] = ge
		sub := b.addBits(rem, flipAll(dExt), b.lTrue)
		rem = b.muxBits(ge, sub, rem)
	}
	return q, rem[:w]
}

// countConst counts how many of the literals are the constant literals.
func countConst(b *Blaster, ls []sat.Lit) int {
	n := 0
	for _, l := range ls {
		if b.isTrue(l) || b.isFalse(l) {
			n++
		}
	}
	return n
}

func flipAll(x []sat.Lit) []sat.Lit {
	out := make([]sat.Lit, len(x))
	for i := range x {
		out[i] = x[i].Flip()
	}
	return out
}

// signedDiv lowers SDiv/SRem to the unsigned circuit with sign fixups,
// mirroring bv.BV.SDiv/SRem (and SMT-LIB) semantics including division
// by zero.
func (b *Blaster) signedDiv(op term.Op, x, y []sat.Lit) []sat.Lit {
	w := len(x)
	sx, sy := x[w-1], y[w-1]
	ax := b.muxBits(sx, b.negBits(x), x)
	ay := b.muxBits(sy, b.negBits(y), y)
	q, r := b.divCircuit(ax, ay)
	if op == term.SDiv {
		negQ := b.xor2(sx, sy)
		out := b.muxBits(negQ, b.negBits(q), q)
		// Division by zero: result must be ones (positive x) or 1
		// (negative x); the circuit yields q=ones for |x| div 0, then the
		// sign fixup handles it: for x<0, negQ = ¬sy ⊕ sx = 1, -ones = 1. OK.
		return out
	}
	// SRem: sign follows the dividend. For y = 0 the circuit gives
	// r = |x|, and the fixup restores x's sign: r = x as required.
	return b.muxBits(sx, b.negBits(r), r)
}

// popcount sums the bits of x into a len(x)-bit result.
func (b *Blaster) popcount(x []sat.Lit) []sat.Lit {
	w := len(x)
	acc := b.constBits(w, func(int) bool { return false })
	for i := 0; i < w; i++ {
		one := make([]sat.Lit, w)
		one[0] = x[i]
		for j := 1; j < w; j++ {
			one[j] = b.lFalse
		}
		acc = b.addBits(acc, one, b.lFalse)
	}
	return acc
}

// countZeros counts leading (msbFirst) or trailing zeros.
func (b *Blaster) countZeros(x []sat.Lit, msbFirst bool) []sat.Lit {
	w := len(x)
	acc := b.constBits(w, func(int) bool { return false })
	run := b.lTrue // still in the zero run
	for i := 0; i < w; i++ {
		idx := i
		if msbFirst {
			idx = w - 1 - i
		}
		run = b.and2(run, x[idx].Flip())
		one := make([]sat.Lit, w)
		one[0] = run
		for j := 1; j < w; j++ {
			one[j] = b.lFalse
		}
		acc = b.addBits(acc, one, b.lFalse)
	}
	return acc
}

// DistinctLit returns a literal that is true iff x != y, without
// asserting it.
func (b *Blaster) DistinctLit(x, y []sat.Lit) sat.Lit {
	return b.eqBits(x, y).Flip()
}

// ModelValue extracts the value of blasted bits from a SAT model.
func ModelValue(model []bool, ls []sat.Lit) uint64 {
	var v uint64
	for i, l := range ls {
		if i >= 64 {
			break
		}
		bit := model[l.Var()]
		if l.Neg() {
			bit = !bit
		}
		if bit {
			v |= 1 << uint(i)
		}
	}
	return v
}
