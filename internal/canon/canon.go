// Package canon implements the paper's canonical representation for
// bitvector terms (§V-B1): every term is rewritten into a hierarchy of
// modulo-2ⁿ linear combinations with explicit coefficients, over atoms
// (symbolic variables carrying domain information) and opaque operation
// nodes. The canonicalization rules are exactly Table I of the paper:
//
//	(I)    bvadd            → merged linear combination
//	(II)   bvnot a          → -1 + (-1)·a
//	(III)  concat a b       → 2^m·a + b - 2^m·extract(b)  (overflow fixup)
//	(IV)   bvmul over +     → distributed products
//	(V)    bvmul by const   → coefficient
//	(VI)   bvshl by const   → coefficient 2^d
//	(VII)  bvurem by 2^k    → low-bit extract
//	(VIII) ite c 0 b        → ite (c+1) b 0
//	(IX)   ite hoisting     → common addends pulled out of both arms
//
// plus constant folding, implicit zero-extension of narrower subterms
// inside wider linear combinations, linearized sign-extension
// (sext(x) = x + (2^w − 2^n)·signbit(x)), and low-bit extracts pushed
// through linear combinations.
//
// The guaranteed property is one-sided (paper §V-B1): if two terms have
// the same canonical form they are semantically equal; inequivalent
// canonical forms prove nothing. Canonical terms are interned in a Ctx,
// so equality is pointer (or ID) comparison — the basis of the term
// index in package trie.
package canon

import (
	"fmt"
	"slices"
	"strings"

	"iselgen/internal/bv"
	"iselgen/internal/term"
)

// CKind discriminates canonical term shapes.
type CKind uint8

// Canonical term shapes.
const (
	Atom   CKind = iota // a symbolic variable
	OpNode              // an uninterpreted operation over canonical operands
	Lin                 // constant + Σ coefficient·subterm (mod 2^Width)
)

// CTerm is an interned canonical term. Width is the bit width of the
// value; subterms of a Lin may be narrower than the Lin itself, in which
// case they are implicitly zero-extended.
type CTerm struct {
	ID    int
	Kind  CKind
	Width int

	// Hash is a structural (Merkle) hash of the term's content. Unlike
	// ID — which is assigned in Ctx insertion order and therefore depends
	// on canonicalization history — the hash is identical for the same
	// term in every Ctx. All canonical orderings (commutative operand
	// order, Lin addend order) go through content comparison so that two
	// contexts always agree on the shape of a canonical term; this is
	// what makes index lookups worker-history-independent.
	Hash uint64

	// Atom fields.
	Var *term.Term

	// OpNode fields. For Mul produced by distribution the operands may be
	// narrower than Width and are implicitly zero-extended.
	Op         term.Op
	Aux0, Aux1 int32
	Args       []*CTerm

	// Lin fields.
	K       bv.BV    // constant part, width Width
	Addends []Addend // sorted by (kind rank, content), no zero coefficients
}

// Addend is one coefficient·subterm component of a linear combination.
type Addend struct {
	Coef bv.BV // width = enclosing Lin's width
	T    *CTerm
}

// IsConst reports whether the canonical term is a pure constant.
func (c *CTerm) IsConst() bool { return c.Kind == Lin && len(c.Addends) == 0 }

// IsAtom reports whether the canonical term is a variable.
func (c *CTerm) IsAtom() bool { return c.Kind == Atom }

// AtomKind returns the variable kind of an atom.
func (c *CTerm) AtomKind() term.VarKind { return c.Var.Kind }

// rank orders addend classes inside a linear combination. PC atoms sort
// before every other class: the trie's PC-relative matching (option D)
// absorbs an unmatched PC edge into a *later* immediate edge, so the pc
// addend must precede immediates on every trie path. The rank is pure
// content (kind and atom kind), never Ctx state, so all contexts agree.
func rank(c *CTerm) int {
	switch c.Kind {
	case Atom:
		if c.Var.Kind == term.KindPC {
			return 0
		}
		return 1
	case OpNode:
		return 2
	default:
		return 3
	}
}

// Ctx interns canonical terms and assigns dense IDs in insertion order
// (the paper's increasing term numbering: two canonicalized terms are
// equal iff their IDs are equal).
//
// Terms are looked up by content hash. A candidate is compared with the
// stored term shallowly: children are interned, so they compare by
// pointer. Stage 1 interns tens of thousands of terms, so the table keeps
// no key string per term, and a term that is already interned costs no
// allocation at all (see intern).
type Ctx struct {
	byHash map[uint64]*CTerm   // the first term interned under each hash
	more   map[uint64][]*CTerm // later terms whose hash was taken
	terms  []*CTerm
	memo   map[*term.Term]*CTerm
	// free holds addend scratch that built linBuilders handed back.
	free [][]Addend
	// ref, when set, interns in place of the hash tables. Tests install
	// the key-string interning the tables replaced, as a reference.
	ref func(cx *Ctx, c *CTerm) *CTerm
}

// NewCtx returns an empty canonicalization context.
func NewCtx() *Ctx {
	return &Ctx{byHash: make(map[uint64]*CTerm), more: make(map[uint64][]*CTerm),
		memo: make(map[*term.Term]*CTerm)}
}

// NumTerms returns the number of distinct canonical terms interned.
func (cx *Ctx) NumTerms() int { return len(cx.terms) }

// ByID returns the canonical term with the given ID.
func (cx *Ctx) ByID(id int) *CTerm { return cx.terms[id] }

// intern returns the interned term with the content of template p, an
// operation node or linear combination whose Args or Addends may be
// caller scratch. Only a miss allocates: the interned copy gets Args and
// Addends of its own.
func (cx *Ctx) intern(p *CTerm) *CTerm {
	if cx.ref != nil {
		return cx.ref(cx, p.own())
	}
	p.Hash = contentHash(p)
	if c := cx.lookup(p, p.Hash); c != nil {
		return c
	}
	return cx.insert(p.own(), p.Hash)
}

// own returns a heap copy of template p that shares no slice with it. It
// never copies Var, so intern's templates stay on their callers' stacks.
func (p *CTerm) own() *CTerm {
	c := &CTerm{Kind: p.Kind, Width: p.Width, Hash: p.Hash, Op: p.Op, Aux0: p.Aux0, Aux1: p.Aux1, K: p.K}
	if len(p.Args) > 0 {
		c.Args = append(make([]*CTerm, 0, len(p.Args)), p.Args...)
	}
	if len(p.Addends) > 0 {
		c.Addends = append(make([]Addend, 0, len(p.Addends)), p.Addends...)
	}
	return c
}

// lookup returns the term filed under key with p's content, or nil.
func (cx *Ctx) lookup(p *CTerm, key uint64) *CTerm {
	c, ok := cx.byHash[key]
	if !ok {
		return nil
	}
	if sameNode(c, p) {
		return c
	}
	for _, c := range cx.more[key] {
		if sameNode(c, p) {
			return c
		}
	}
	return nil
}

// insert files c, a term new to the context, under key and numbers it.
func (cx *Ctx) insert(c *CTerm, key uint64) *CTerm {
	c.ID = len(cx.terms)
	cx.terms = append(cx.terms, c)
	if _, taken := cx.byHash[key]; taken {
		cx.more[key] = append(cx.more[key], c)
	} else {
		cx.byHash[key] = c
	}
	return c
}

// sameNode reports whether c and p have the same content, given that
// their children are interned in one context.
func sameNode(c, p *CTerm) bool {
	if c.Kind != p.Kind || c.Width != p.Width {
		return false
	}
	switch c.Kind {
	case Atom:
		return c.Var.Name == p.Var.Name && c.Var.Kind == p.Var.Kind
	case OpNode:
		return c.Op == p.Op && c.Aux0 == p.Aux0 && c.Aux1 == p.Aux1 && slices.Equal(c.Args, p.Args)
	}
	if c.K.Lo != p.K.Lo || c.K.Hi != p.K.Hi || len(c.Addends) != len(p.Addends) {
		return false
	}
	for i, a := range c.Addends {
		b := p.Addends[i]
		if a.T != b.T || a.Coef.Lo != b.Coef.Lo || a.Coef.Hi != b.Coef.Hi {
			return false
		}
	}
	return true
}

// contentHash computes the structural hash of a term whose children are
// already interned (and therefore already hashed): FNV-1a over the
// term's own content mixed with the children's hashes.
func contentHash(c *CTerm) uint64 {
	h := uint64(1469598103934665603)
	mix := func(v uint64) { h = (h ^ v) * 1099511628211 }
	mix(uint64(c.Kind))
	mix(uint64(c.Width))
	switch c.Kind {
	case Atom:
		for i := 0; i < len(c.Var.Name); i++ {
			mix(uint64(c.Var.Name[i]))
		}
		mix(uint64(c.Var.Kind))
	case OpNode:
		mix(uint64(c.Op))
		mix(uint64(uint32(c.Aux0)))
		mix(uint64(uint32(c.Aux1)))
		for _, a := range c.Args {
			mix(a.Hash)
		}
	case Lin:
		mix(c.K.Lo)
		mix(c.K.Hi)
		for _, a := range c.Addends {
			mix(a.Coef.Lo)
			mix(a.Coef.Hi)
			mix(a.T.Hash)
		}
	}
	return h
}

// contentCmp totally orders canonical terms by structure alone. The hash
// settles almost every comparison; on a collision the full structures are
// compared, so distinct terms never compare equal. Interned terms in one
// Ctx compare equal iff they are the same pointer.
func contentCmp(a, b *CTerm) int {
	if a == b {
		return 0
	}
	if a.Hash != b.Hash {
		if a.Hash < b.Hash {
			return -1
		}
		return 1
	}
	if a.Kind != b.Kind {
		return int(a.Kind) - int(b.Kind)
	}
	if a.Width != b.Width {
		return a.Width - b.Width
	}
	switch a.Kind {
	case Atom:
		if c := strings.Compare(a.Var.Name, b.Var.Name); c != 0 {
			return c
		}
		return int(a.Var.Kind) - int(b.Var.Kind)
	case OpNode:
		if a.Op != b.Op {
			return int(a.Op) - int(b.Op)
		}
		if a.Aux0 != b.Aux0 {
			return int(a.Aux0) - int(b.Aux0)
		}
		if a.Aux1 != b.Aux1 {
			return int(a.Aux1) - int(b.Aux1)
		}
		if len(a.Args) != len(b.Args) {
			return len(a.Args) - len(b.Args)
		}
		for i := range a.Args {
			if c := contentCmp(a.Args[i], b.Args[i]); c != 0 {
				return c
			}
		}
	case Lin:
		if c := cmpBV(a.K, b.K); c != 0 {
			return c
		}
		if len(a.Addends) != len(b.Addends) {
			return len(a.Addends) - len(b.Addends)
		}
		for i := range a.Addends {
			if c := cmpBV(a.Addends[i].Coef, b.Addends[i].Coef); c != 0 {
				return c
			}
			if c := contentCmp(a.Addends[i].T, b.Addends[i].T); c != 0 {
				return c
			}
		}
	}
	return 0
}

func cmpBV(a, b bv.BV) int {
	if a.Hi != b.Hi {
		if a.Hi < b.Hi {
			return -1
		}
		return 1
	}
	if a.Lo != b.Lo {
		if a.Lo < b.Lo {
			return -1
		}
		return 1
	}
	return int(a.Width) - int(b.Width)
}

// cmpAddend is the canonical addend order: kind rank, then content.
func cmpAddend(a, b Addend) int {
	if ra, rb := rank(a.T), rank(b.T); ra != rb {
		return ra - rb
	}
	return contentCmp(a.T, b.T)
}

// atom interns an atom for the given variable.
func (cx *Ctx) atom(v *term.Term) *CTerm {
	c := &CTerm{Kind: Atom, Width: v.W(), Var: v}
	if cx.ref != nil {
		return cx.ref(cx, c)
	}
	c.Hash = contentHash(c)
	if old := cx.lookup(c, c.Hash); old != nil {
		return old
	}
	return cx.insert(c, c.Hash)
}

// opNode interns an operation node, ordering commutative operands by
// content (never by Ctx-local ID, which would make the canonical shape
// depend on what the context happened to intern earlier).
func (cx *Ctx) opNode(op term.Op, width int, aux0, aux1 int32, args ...*CTerm) *CTerm {
	if op.IsCommutative() && len(args) == 2 && contentCmp(args[1], args[0]) < 0 {
		args[0], args[1] = args[1], args[0]
	}
	return cx.intern(&CTerm{Kind: OpNode, Width: width, Op: op, Aux0: aux0, Aux1: aux1, Args: args})
}

// constLin interns a pure-constant linear combination.
func (cx *Ctx) constLin(v bv.BV) *CTerm {
	return cx.intern(&CTerm{Kind: Lin, Width: v.W(), K: v})
}

// linBuilder accumulates addends during construction, merging the
// coefficients of a repeated subterm: the ordered-map-over-term-ids step
// of §V-B2. A combination has a handful of addends, so they sit in a
// slice searched linearly, drawn from the context's scratch.
type linBuilder struct {
	width int
	k     bv.BV
	ads   []Addend // one per distinct subterm; a coefficient may be zero
}

// newLinBuilder returns an empty accumulator. build hands its scratch
// back to cx.
func (cx *Ctx) newLinBuilder(width int) linBuilder {
	lb := linBuilder{width: width, k: bv.Zero(width)}
	if n := len(cx.free); n > 0 {
		lb.ads, cx.free = cx.free[n-1], cx.free[:n-1]
	}
	return lb
}

func (lb *linBuilder) addConst(v bv.BV) { lb.k = lb.k.Add(v.ZExt(lb.width)) }

func (lb *linBuilder) add(coef bv.BV, t *CTerm) {
	if t.IsConst() {
		lb.addConst(coef.Mul(t.K.ZExt(lb.width)))
		return
	}
	for i := range lb.ads {
		if lb.ads[i].T == t {
			lb.ads[i].Coef = lb.ads[i].Coef.Add(coef)
			return
		}
	}
	lb.ads = append(lb.ads, Addend{Coef: coef, T: t})
}

// addTerm folds an arbitrary canonical term into the accumulator with the
// given coefficient, splicing same-width linear combinations (rule I) and
// treating everything else as an opaque subterm.
func (lb *linBuilder) addTerm(coef bv.BV, t *CTerm) {
	if t.Kind == Lin && t.Width == lb.width {
		lb.addConst(coef.Mul(t.K))
		for _, a := range t.Addends {
			lb.add(coef.Mul(a.Coef), a.T)
		}
		return
	}
	lb.add(coef, t)
}

// build finalizes the accumulator into an interned canonical term.
func (lb *linBuilder) build(cx *Ctx) *CTerm {
	addends := slices.DeleteFunc(lb.ads, func(a Addend) bool { return a.Coef.IsZero() })
	slices.SortFunc(addends, cmpAddend)
	var c *CTerm
	if lb.k.IsZero() && len(addends) == 1 &&
		addends[0].Coef.Lo == 1 && addends[0].Coef.Hi == 0 &&
		addends[0].T.Width == lb.width {
		// Collapse the trivial wrapper 0 + 1·t (same width) to t itself.
		c = addends[0].T
	} else {
		c = cx.intern(&CTerm{Kind: Lin, Width: lb.width, K: lb.k, Addends: addends})
	}
	if cap(addends) > 0 {
		cx.free = append(cx.free, addends[:0])
	}
	lb.ads = nil
	return c
}

// scale returns c·t as a canonical term at t's width (rules V/VI).
func (cx *Ctx) scale(c bv.BV, t *CTerm) *CTerm {
	lb := cx.newLinBuilder(t.Width)
	lb.addTerm(c, t)
	return lb.build(cx)
}

// maxDistribute caps rule-IV multiplication distribution; beyond this the
// canonical form would blow up quadratically (§V-B2), so the product is
// kept opaque instead (still sound, only less likely to unify).
const maxDistribute = 16

// Canon returns the canonical form of t. Results are memoized per Ctx;
// the same *term.Term always maps to the same *CTerm.
func (cx *Ctx) Canon(t *term.Term) *CTerm {
	if c, ok := cx.memo[t]; ok {
		return c
	}
	c := cx.canon(t)
	if c.Width != t.W() {
		panic(fmt.Sprintf("canon: width changed %d -> %d for %s", t.W(), c.Width, t))
	}
	cx.memo[t] = c
	return c
}

func (cx *Ctx) canon(t *term.Term) *CTerm {
	w := t.W()
	switch t.Op {
	case term.Const:
		return cx.constLin(t.CVal)

	case term.Var:
		return cx.atom(t)

	case term.Add: // rule I
		lb := cx.newLinBuilder(w)
		lb.addTerm(bv.New(w, 1), cx.Canon(t.Args[0]))
		lb.addTerm(bv.New(w, 1), cx.Canon(t.Args[1]))
		return lb.build(cx)

	case term.Sub:
		lb := cx.newLinBuilder(w)
		lb.addTerm(bv.New(w, 1), cx.Canon(t.Args[0]))
		lb.addTerm(bv.Ones(w), cx.Canon(t.Args[1]))
		return lb.build(cx)

	case term.Neg:
		return cx.scale(bv.Ones(w), cx.Canon(t.Args[0]))

	case term.Not: // rule II: ¬a = -1 - a
		lb := cx.newLinBuilder(w)
		lb.addConst(bv.Ones(w))
		lb.addTerm(bv.Ones(w), cx.Canon(t.Args[0]))
		return lb.build(cx)

	case term.Mul:
		return cx.canonMul(w, cx.Canon(t.Args[0]), cx.Canon(t.Args[1]))

	case term.Shl: // rule VI
		x := cx.Canon(t.Args[0])
		d := cx.Canon(t.Args[1])
		if d.IsConst() {
			if d.K.Hi == 0 && d.K.Lo < uint64(w) {
				return cx.scale(bv.New(w, 1).ShlN(uint(d.K.Lo)), x)
			}
			return cx.constLin(bv.Zero(w)) // out-of-range shift
		}
		return cx.opNode(term.Shl, w, 0, 0, x, d)

	case term.URem: // rule VII
		x := cx.Canon(t.Args[0])
		d := cx.Canon(t.Args[1])
		if d.IsConst() {
			if k, ok := d.K.IsPow2(); ok && k > 0 && k < w {
				ex := cx.extractLow(k, x)
				lb := cx.newLinBuilder(w)
				lb.addTerm(bv.New(w, 1), ex)
				return lb.build(cx)
			}
		}
		return cx.opNode(term.URem, w, 0, 0, x, d)

	case term.Concat: // rule III
		return cx.canonConcat(w, t.Args[0], t.Args[1])

	case term.ZExt:
		lb := cx.newLinBuilder(w)
		lb.addTerm(bv.New(w, 1), cx.Canon(t.Args[0]))
		return lb.build(cx)

	case term.SExt:
		// sext(x) = x + (2^w − 2^n)·signbit(x), linearizing the extension.
		x := cx.Canon(t.Args[0])
		n := x.Width
		sign := cx.extractBits(n-1, n-1, x)
		lb := cx.newLinBuilder(w)
		lb.addTerm(bv.New(w, 1), x)
		fill := bv.Ones(w).ShlN(uint(n)) // 2^w − 2^n
		lb.addTerm(fill, sign)
		return lb.build(cx)

	case term.Extract:
		x := cx.Canon(t.Args[0])
		return cx.extractBits(int(t.Aux0), int(t.Aux1), x)

	case term.Ite:
		return cx.canonIte(w, cx.Canon(t.Args[0]), cx.Canon(t.Args[1]), cx.Canon(t.Args[2]))

	case term.Eq:
		a, b := cx.Canon(t.Args[0]), cx.Canon(t.Args[1])
		if a == b {
			return cx.constLin(bv.New(1, 1))
		}
		// 1-bit equality is linear: a == b  ⟺  1 + a + b (mod 2). This is
		// the §V-B1 "booleans as bitvectors of length 1" normalization; it
		// lets condition-flag expressions like N == V unify linearly.
		if a.Width == 1 && b.Width == 1 {
			lb := cx.newLinBuilder(1)
			lb.addConst(bv.New(1, 1))
			lb.addTerm(bv.New(1, 1), a)
			lb.addTerm(bv.New(1, 1), b)
			return lb.build(cx)
		}
		return cx.opNode(term.Eq, 1, 0, 0, a, b)

	case term.Ult, term.Slt:
		a, b := cx.Canon(t.Args[0]), cx.Canon(t.Args[1])
		if a == b {
			return cx.constLin(bv.Zero(1))
		}
		// x <s 0 is the sign bit.
		if t.Op == term.Slt && b.IsConst() && b.K.IsZero() {
			return cx.extractBits(a.Width-1, a.Width-1, a)
		}
		return cx.opNode(t.Op, 1, 0, 0, a, b)

	case term.Load:
		return cx.opNode(term.Load, w, t.Aux0, 0, cx.Canon(t.Args[0]))

	case term.Store:
		return cx.opNode(term.Store, w, t.Aux0, 0, cx.Canon(t.Args[0]), cx.Canon(t.Args[1]))

	default:
		var buf [3]*CTerm
		args := buf[:len(t.Args)]
		for i, a := range t.Args {
			args[i] = cx.Canon(a)
		}
		return cx.opNode(t.Op, w, t.Aux0, t.Aux1, args...)
	}
}

// canonMul applies rules IV and V.
func (cx *Ctx) canonMul(w int, x, y *CTerm) *CTerm {
	// Rule V: constant factor becomes a coefficient.
	if x.IsConst() {
		return cx.scale(x.K, y)
	}
	if y.IsConst() {
		return cx.scale(y.K, x)
	}
	// Rule IV: distribute over linear combinations, bounded.
	var xb, yb [4]Addend
	xs := factors(x, xb[:0])
	ys := factors(y, yb[:0])
	if len(xs)*len(ys) <= maxDistribute {
		lb := cx.newLinBuilder(w)
		for _, fx := range xs {
			for _, fy := range ys {
				coef := fx.Coef.ZExt(w).Mul(fy.Coef.ZExt(w))
				switch {
				case fx.T == nil && fy.T == nil:
					lb.addConst(coef)
				case fx.T == nil:
					lb.add(coef, fy.T)
				case fy.T == nil:
					lb.add(coef, fx.T)
				default:
					a, b := fx.T, fy.T
					if contentCmp(b, a) < 0 {
						a, b = b, a
					}
					prod := cx.intern(&CTerm{Kind: OpNode, Width: w, Op: term.Mul, Args: []*CTerm{a, b}})
					lb.add(coef, prod)
				}
			}
		}
		return lb.build(cx)
	}
	return cx.opNode(term.Mul, w, 0, 0, x, y)
}

// factors appends to out the decomposition of a canonical term into
// (coef, subterm) pairs, with a nil subterm denoting the constant part.
func factors(c *CTerm, out []Addend) []Addend {
	if c.Kind == Lin {
		if !c.K.IsZero() {
			out = append(out, Addend{Coef: c.K, T: nil})
		}
		return append(out, c.Addends...)
	}
	return append(out, Addend{Coef: bv.New(c.Width, 1), T: c})
}

// canonConcat implements rule III: concat(a_n, b_m) at width k = n+m is
// 2^m·a + B − 2^m·extract_{k-1:m}(B), where B is b's linear combination
// lifted to width k. When b is not a linear combination the correction
// term vanishes (b < 2^m).
func (cx *Ctx) canonConcat(k int, at, bt *term.Term) *CTerm {
	m := bt.W()
	a := cx.Canon(at)
	b := cx.Canon(bt)
	lb := cx.newLinBuilder(k)
	shift := bv.New(k, 1).ShlN(uint(m)) // 2^m
	lb.addTerm(shift, a)
	if b.Kind != Lin || len(b.Addends) == 0 {
		lb.addTerm(bv.New(k, 1), b)
		return lb.build(cx)
	}
	// Lift b's combination to width k.
	blb := cx.newLinBuilder(k)
	blb.addConst(b.K)
	for _, ad := range b.Addends {
		blb.add(ad.Coef.ZExt(k), ad.T)
	}
	blift := blb.build(cx)
	lb.addTerm(bv.New(k, 1), blift)
	// Correction: −2^m · extract_{k-1:m}(blift).
	high := cx.extractBits(k-1, m, blift)
	lb.addTerm(shift.Neg(), high)
	return lb.build(cx)
}

// extractLow returns the canonical form of the low `width` bits of x,
// pushing the extract through linear combinations (low bits of a sum
// depend only on low bits).
func (cx *Ctx) extractLow(width int, x *CTerm) *CTerm {
	if width == x.Width {
		return x
	}
	switch x.Kind {
	case Lin:
		lb := cx.newLinBuilder(width)
		lb.addConst(x.K.Trunc(width))
		for _, a := range x.Addends {
			t := a.T
			if t.Width > width {
				t = cx.extractLow(width, t)
			}
			lb.addTerm(a.Coef.Trunc(width), t)
		}
		return lb.build(cx)
	default:
		return cx.intern(&CTerm{Kind: OpNode, Width: width, Op: term.Extract,
			Aux0: int32(width - 1), Aux1: 0, Args: []*CTerm{x}})
	}
}

// extractBits returns the canonical extract of bits hi..lo of x.
func (cx *Ctx) extractBits(hi, lo int, x *CTerm) *CTerm {
	if lo == 0 {
		return cx.extractLow(hi+1, x)
	}
	// Constant folding.
	if x.IsConst() {
		return cx.constLin(x.K.Extract(hi, lo))
	}
	// Nested extracts compose.
	if x.Kind == OpNode && x.Op == term.Extract {
		return cx.extractBits(int(x.Aux1)+hi, int(x.Aux1)+lo, x.Args[0])
	}
	return cx.intern(&CTerm{Kind: OpNode, Width: hi - lo + 1, Op: term.Extract,
		Aux0: int32(hi), Aux1: int32(lo), Args: []*CTerm{x}})
}

// canonIte applies rules VIII and IX.
func (cx *Ctx) canonIte(w int, cond, thn, els *CTerm) *CTerm {
	if cond.IsConst() {
		if cond.K.Bool() {
			return thn
		}
		return els
	}
	if thn == els {
		return thn
	}
	// Rule IX: hoist common (coefficient, subterm) addends and, when the
	// constants agree, the constant part. Each then-factor pairs with the
	// first equal else-factor not yet hoisted; tRest keeps the rest.
	var tb, eb [4]Addend
	tf, ef := factors(thn, tb[:0]), factors(els, eb[:0])
	var common linBuilder
	hoisted := false
	tRest := tf[:0]
	for _, fa := range tf {
		j := slices.IndexFunc(ef, func(fb Addend) bool {
			return fa.T == fb.T && fa.Coef.ZExt(w) == fb.Coef.ZExt(w)
		})
		if j < 0 {
			tRest = append(tRest, fa)
			continue
		}
		if !hoisted {
			common, hoisted = cx.newLinBuilder(w), true
		}
		if fa.T == nil {
			common.addConst(fa.Coef.ZExt(w))
		} else {
			common.add(fa.Coef.ZExt(w), fa.T)
		}
		ef = slices.Delete(ef, j, j+1)
	}
	if hoisted {
		rebuild := func(fs []Addend) *CTerm {
			lb := cx.newLinBuilder(w)
			for _, f := range fs {
				if f.T == nil {
					lb.addConst(f.Coef.ZExt(w))
				} else {
					lb.add(f.Coef.ZExt(w), f.T)
				}
			}
			return lb.build(cx)
		}
		inner := cx.canonIte(w, cond, rebuild(tRest), rebuild(ef))
		common.addTerm(bv.New(w, 1), inner)
		return common.build(cx)
	}

	isZero := func(c *CTerm) bool { return c.IsConst() && c.K.IsZero() }
	// Rule VIII: zero belongs in the else branch.
	if isZero(thn) && !isZero(els) {
		return cx.opNode(term.Ite, w, 0, 0, cx.notCond(cond), els, thn)
	}
	if !isZero(els) {
		// Neither arm zero: strip a negated condition for a unique form.
		if stripped, ok := cx.stripNot(cond); ok {
			return cx.opNode(term.Ite, w, 0, 0, stripped, els, thn)
		}
	}
	return cx.opNode(term.Ite, w, 0, 0, cond, thn, els)
}

// notCond returns the canonical 1-bit negation c+1 (rule VIII).
func (cx *Ctx) notCond(c *CTerm) *CTerm {
	lb := cx.newLinBuilder(1)
	lb.addConst(bv.New(1, 1))
	lb.addTerm(bv.New(1, 1), c)
	return lb.build(cx)
}

// stripNot undoes notCond: if c has the form 1 + x it returns x.
func (cx *Ctx) stripNot(c *CTerm) (*CTerm, bool) {
	if c.Kind == Lin && c.Width == 1 && c.K.Bool() && len(c.Addends) == 1 {
		return c.Addends[0].T, true
	}
	return nil, false
}
