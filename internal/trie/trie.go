// Package trie implements the paper's term index (§V-B2): canonicalized
// instruction-sequence terms are stored in a trie whose paths are the
// sorted addend lists of modulo-2ⁿ linear combinations. Each edge is one
// (coefficient, operand) pair keyed by the operand's canonical ID, so
// insertion is O(len) with hash-map steps, and terms that share a prefix
// of addends share trie nodes.
//
// Non-linear terms (atoms, operation nodes) are stored as single-addend
// paths of depth one, exactly as the paper stores them "as a leaf on
// depth one: seen as a linear combination with a single operand".
//
// Lookup performs unification with backtracking (§V-B3): a query pattern
// with free IR variables is matched against indexed terms with free ISA
// operand variables. Register atoms unify with register atoms of equal
// kind, width, and coefficient; immediates unify with immediates even
// across different coefficients, widths, and extract windows (recorded as
// constraints for rule generation); excess query constants bind to ISA
// immediates; excess ISA immediates bind to zero; and PC+imm linear
// combinations unify with a lone immediate (PC-relative addressing).
//
// Nodes with many edges (the root above all: it holds one edge per
// distinct first addend of every indexed term) also file their edges in
// head buckets. A query addend can unify with a register, flag or
// operation edge only if the two share a head (see headKey), so the walk
// visits just the buckets of the query's unused addends, merged in
// insertion order with the edges any addend may pair with.
package trie

import (
	"encoding/binary"
	"slices"

	"iselgen/internal/bv"
	"iselgen/internal/canon"
	"iselgen/internal/term"
)

// Index is the term index. It is not safe for concurrent mutation;
// concurrent Lookup is safe once building has finished.
type Index struct {
	roots    map[int]*node // by linear-combination width
	payloads map[*canon.CTerm][]any
	inserted int
}

type edgeKey struct {
	coefLo, coefHi uint64
	id             int32
}

// edgeEnt is one edge, as an element of its node's insertion-ordered
// edge list (deterministic, unlike map iteration), with the decomposition
// of its label the walk needs precomputed at insert time: the search
// re-derives it on every node visit otherwise.
type edgeEnt struct {
	sub  *canon.CTerm // the operand labelling this edge
	next *node
	coef bv.BV // materialized edge coefficient (root width = query width)
	// isImm marks an immWrapper label and isPCImm a pcPlusImm one; imm is
	// then its ISA immediate, hi..lo the immediate's extract window, and
	// pcCoef the immediate's coefficient in pc + c·imm.
	imm            *canon.CTerm
	pcCoef         bv.BV
	hi, lo         int32
	isImm, isPCImm bool
}

type node struct {
	elist []edgeEnt // the edges in insertion order
	// terms holds the canonical terms ending at this node, at most one
	// per constant part.
	terms []*canon.CTerm
	// big indexes the edges of a node with bucketMin edges or more; a
	// smaller node is scanned instead.
	big *buckets
}

// buckets indexes a node's edges: edges maps an edge label to its elist
// index for Insert, heads files the elist indices of shape edges by head,
// and always holds the indices of every other edge. Both lists ascend.
type buckets struct {
	edges  map[edgeKey]int32
	heads  map[headKey][]int32
	always []int32
}

// bucketMin is the fan-out at which a node starts keeping buckets. Below
// it a linear scan is as cheap as merging buckets or hashing a label, and
// maps on every small node would cost memory across the whole trie.
const bucketMin = 64

// headKey is everything unifyShape requires a query addend and a shape
// edge to agree on before it looks at operands: the shape kind, the
// atom kind or operator, the width, the operator's auxiliaries and
// arity, and the coefficient (width included).
type headKey struct {
	coef       bv.BV
	width      int32
	aux0, aux1 int32
	arity      int32
	kind       canon.CKind
	sub        uint8 // term.VarKind of an atom, term.Op of an operation
}

// headOf returns the head of coef·t. Linear combinations have none: a
// Lin edge unifies with a query addend of any shape.
func headOf(coef bv.BV, t *canon.CTerm) (headKey, bool) {
	h := headKey{coef: coef, width: int32(t.Width), kind: t.Kind}
	switch t.Kind {
	case canon.Atom:
		h.sub = uint8(t.AtomKind())
	case canon.OpNode:
		h.sub = uint8(t.Op)
		h.aux0, h.aux1, h.arity = t.Aux0, t.Aux1, int32(len(t.Args))
	default:
		return headKey{}, false
	}
	return h, true
}

// shapeHead returns the head of a shape edge: any edge but an
// immediate, a pc+imm or a PC atom, which options A′, B, C and D pair
// without comparing heads, and a Lin, which has no head.
func (e *edgeEnt) shapeHead() (headKey, bool) {
	if e.isImm || e.isPCImm || (e.sub.IsAtom() && e.sub.AtomKind() == term.KindPC) {
		return headKey{}, false
	}
	return headOf(e.coef, e.sub)
}

func newNode() *node { return &node{} }

// New returns an empty index.
func New() *Index {
	return &Index{roots: make(map[int]*node), payloads: make(map[*canon.CTerm][]any)}
}

// Len returns the number of Insert calls that stored a payload.
func (ix *Index) Len() int { return ix.inserted }

// linView presents any canonical term as (K, addends): linear combinations
// verbatim, everything else as a single unit-coefficient addend, which
// it writes to one.
func linView(ct *canon.CTerm, one *[1]canon.Addend) (bv.BV, []canon.Addend) {
	if ct.Kind == canon.Lin {
		return ct.K, ct.Addends
	}
	one[0] = canon.Addend{Coef: bv.New(ct.Width, 1), T: ct}
	return bv.Zero(ct.Width), one[:]
}

// constPart is the K of ct's linView.
func constPart(ct *canon.CTerm) bv.BV {
	if ct.Kind == canon.Lin {
		return ct.K
	}
	return bv.Zero(ct.Width)
}

// Insert stores the canonical term with an associated payload (typically
// the instruction sequence whose effect the term denotes).
func (ix *Index) Insert(ct *canon.CTerm, payload any) {
	var one [1]canon.Addend
	k, addends := linView(ct, &one)
	root := ix.roots[ct.Width]
	if root == nil {
		root = newNode()
		ix.roots[ct.Width] = root
	}
	n := root
	for _, a := range addends {
		n = n.child(a)
	}
	n.setTerm(k, ct)
	ix.payloads[ct] = append(ix.payloads[ct], payload)
	ix.inserted++
}

// child returns the node under n's edge labelled a, adding the edge if n
// has none.
func (n *node) child(a canon.Addend) *node {
	if n.big != nil {
		if i, ok := n.big.edges[edgeKey{coefLo: a.Coef.Lo, coefHi: a.Coef.Hi, id: int32(a.T.ID)}]; ok {
			return n.elist[i].next
		}
	} else {
		for i := range n.elist {
			if e := &n.elist[i]; e.sub.ID == a.T.ID && e.coef.Lo == a.Coef.Lo && e.coef.Hi == a.Coef.Hi {
				return e.next
			}
		}
	}
	e := edgeEnt{sub: a.T, next: newNode(), coef: a.Coef}
	if imm, hi, lo, ok := immWrapper(a.T); ok {
		e.imm, e.hi, e.lo, e.isImm = imm, int32(hi), int32(lo), true
	} else if imm, hi, lo, coef, ok := pcPlusImm(a.T); ok {
		e.imm, e.hi, e.lo, e.pcCoef, e.isPCImm = imm, int32(hi), int32(lo), coef, true
	}
	n.elist = append(n.elist, e)
	switch last := len(n.elist) - 1; {
	case n.big != nil:
		n.index(last)
	case len(n.elist) == bucketMin:
		n.big = &buckets{edges: make(map[edgeKey]int32, 2*bucketMin), heads: make(map[headKey][]int32)}
		for i := range n.elist {
			n.index(i)
		}
	}
	return e.next
}

// index files elist[i] in the node's buckets.
func (n *node) index(i int) {
	e, b := &n.elist[i], n.big
	b.edges[edgeKey{coefLo: e.coef.Lo, coefHi: e.coef.Hi, id: int32(e.sub.ID)}] = int32(i)
	if h, ok := e.shapeHead(); ok {
		b.heads[h] = append(b.heads[h], int32(i))
	} else {
		b.always = append(b.always, int32(i))
	}
}

// setTerm records ct as the term ending at n with constant part k,
// replacing any earlier one.
func (n *node) setTerm(k bv.BV, ct *canon.CTerm) {
	for i, old := range n.terms {
		if c := constPart(old); c.Lo == k.Lo && c.Hi == k.Hi {
			n.terms[i] = ct
			return
		}
	}
	n.terms = append(n.terms, ct)
}

// term returns the term ending at n with constant part k, or nil.
func (n *node) term(k bv.BV) *canon.CTerm {
	for _, ct := range n.terms {
		if c := constPart(ct); c.Lo == k.Lo && c.Hi == k.Hi {
			return ct
		}
	}
	return nil
}

// Payloads returns the payloads stored for a canonical term.
func (ix *Index) Payloads(ct *canon.CTerm) []any { return ix.payloads[ct] }

// ImmBind records how an ISA immediate operand was bound during
// unification, including the extract windows and coefficients on both
// sides; rule generation turns these into immediate constraints
// (alignment, scaling, sub-width encodings — §V-B3).
type ImmBind struct {
	ISA          *canon.CTerm // the ISA immediate atom
	ISAHi, ISALo int          // extract window applied on the ISA side
	Query        *canon.CTerm // query immediate atom; nil when bound to a constant
	QHi, QLo     int          // extract window applied on the query side
	Const        bv.BV        // value when Query == nil (includes zero-bindings)
	CoefQ, CoefI bv.BV        // coefficients of the respective addends
	PCRel        bool         // bound through a PC+imm combination
}

func (ib ImmBind) same(other ImmBind) bool {
	return ib.ISA == other.ISA && ib.ISAHi == other.ISAHi && ib.ISALo == other.ISALo &&
		ib.Query == other.Query && ib.QHi == other.QHi && ib.QLo == other.QLo &&
		ib.Const == other.Const && ib.CoefQ == other.CoefQ && ib.CoefI == other.CoefI &&
		ib.PCRel == other.PCRel
}

// RegBind pairs an ISA register/vector/flag/PC atom with the query atom
// it was unified with.
type RegBind struct {
	ISA, Query *canon.CTerm
}

// Binding is the variable correspondence produced by unification.
type Binding struct {
	// Regs lists ISA→query atom pairs in discovery order. A slice, not a
	// map: real instructions bind at most a handful of registers, so the
	// linear conflict scan is cheaper than hashing and snapshots are flat
	// copies.
	Regs []RegBind
	// Imms lists immediate bindings in discovery order.
	Imms []ImmBind
	// trail records in-place overwrites of Imms elements (bindImm's
	// promotion cases) so rollback can restore them; appends roll back by
	// truncation alone.
	trail []immUndo
}

type immUndo struct {
	idx int
	old ImmBind
}

// bindMark is a snapshot of a binding's extent, taken before a
// speculative unification step and restored with rollback. The
// backtracking search used to clone the whole binding at every branch
// point, which dominated lookup time; mark/rollback makes a failed
// branch cost two slice truncations instead of an allocation.
type bindMark struct{ nr, ni, nt int }

func (b *Binding) mark() bindMark {
	return bindMark{nr: len(b.Regs), ni: len(b.Imms), nt: len(b.trail)}
}

func (b *Binding) rollback(m bindMark) {
	for i := len(b.trail) - 1; i >= m.nt; i-- {
		u := b.trail[i]
		if u.idx < m.ni { // overwrites of entries that survive the rollback
			b.Imms[u.idx] = u.old
		}
	}
	b.trail = b.trail[:m.nt]
	b.Regs = b.Regs[:m.nr]
	b.Imms = b.Imms[:m.ni]
}

// clone snapshots the binding for a match result (emitted matches must
// not alias the search's mutable state).
func (b *Binding) clone() *Binding {
	nb := &Binding{}
	if len(b.Regs) > 0 {
		nb.Regs = append(make([]RegBind, 0, len(b.Regs)), b.Regs...)
	}
	if len(b.Imms) > 0 {
		nb.Imms = append(make([]ImmBind, 0, len(b.Imms)), b.Imms...)
	}
	return nb
}

// bindReg records isa→query; fails on conflicting rebinding.
func (b *Binding) bindReg(isa, query *canon.CTerm) bool {
	for _, rb := range b.Regs {
		if rb.ISA == isa {
			return rb.Query == query
		}
	}
	b.Regs = append(b.Regs, RegBind{ISA: isa, Query: query})
	return true
}

// bindImm records an immediate binding; fails on conflict. Bindings of
// the same ISA immediate merge in two benign cases that arise from the
// linearized sign-extension of immediates (sext(imm) decomposes into the
// immediate plus a sign-bit extract term):
//
//  1. both bind constants zero (different windows of a zero immediate);
//  2. a value binding plus a zero constant on the sign-bit window — the
//     extension choice is settled by rule verification.
func (b *Binding) bindImm(ib ImmBind) bool {
	for i, old := range b.Imms {
		if old.ISA != ib.ISA {
			continue
		}
		if old.same(ib) {
			return true
		}
		zeroConst := func(x ImmBind) bool { return x.Query == nil && x.Const.IsZero() }
		signWindow := func(x ImmBind) bool { return x.ISAHi == x.ISALo }
		switch {
		case zeroConst(old) && zeroConst(ib):
			// Keep the wider window.
			if ib.ISAHi-ib.ISALo > old.ISAHi-old.ISALo {
				b.trail = append(b.trail, immUndo{idx: i, old: old})
				b.Imms[i] = ib
			}
			return true
		case zeroConst(ib) && signWindow(ib):
			// Sign-bit window of an already-bound immediate. If the
			// earlier binding fixed a constant whose sign bit is set,
			// the zero claim contradicts it.
			if old.Query == nil && old.Const.ZExt(64).Bit(ib.ISAHi) != 0 {
				return false
			}
			return true
		case zeroConst(old) && signWindow(old):
			if ib.Query == nil && ib.Const.ZExt(64).Bit(old.ISAHi) != 0 {
				return false
			}
			b.trail = append(b.trail, immUndo{idx: i, old: old})
			b.Imms[i] = ib // promote to the value binding
			return true
		case old.Query != nil && old.Query == ib.Query &&
			old.ISAHi == ib.ISAHi && old.ISALo == ib.ISALo &&
			old.QHi == ib.QHi && old.QLo == ib.QLo &&
			old.PCRel == ib.PCRel:
			// The immediate occurs several times with different
			// coefficients (e.g. i and 8·i as separate addends); the
			// bindings are compatible when both imply the same embedding
			// relation between the query and ISA values.
			s1, ok1 := embedShift(old.CoefQ, old.CoefI)
			s2, ok2 := embedShift(ib.CoefQ, ib.CoefI)
			if ok1 && ok2 && s1 == s2 {
				return true
			}
			return false
		}
		return false
	}
	b.Imms = append(b.Imms, ib)
	return true
}

// embedShift reduces a coefficient pair to the power-of-two scaling it
// implies (coefI = coefQ << k), mirroring the rule layer's coefShift.
func embedShift(coefQ, coefI bv.BV) (int, bool) {
	w := coefQ.W()
	if coefI.W() > w {
		w = coefI.W()
	}
	cq, ci := coefQ.ZExt(w), coefI.ZExt(w)
	if cq == ci {
		return 0, true
	}
	if cq.IsZero() {
		return 0, false
	}
	div := ci.UDiv(cq)
	if div.Mul(cq) != ci {
		return 0, false
	}
	if k, ok := div.IsPow2(); ok {
		return k, true
	}
	return 0, false
}

// Match is one unification result.
type Match struct {
	Term     *canon.CTerm // the indexed canonical term
	Payloads []any
	Binding  *Binding
}

// Limits bounding the backtracking search.
const (
	maxSearchSteps = 200000
	maxMatches     = 128
)

type searcher struct {
	ix      *Index
	steps   int
	matches []Match
	seen    map[string]struct{} // matchKey of every emitted match
	// qHeads holds each query addend's head; qHeaded[i] is false for an
	// addend without one.
	qHeads  []headKey
	qHeaded []bool
	// lists is the stack of edge-index lists bucketed nodes merge.
	lists [][]int32
	// key and the sorted binding copies are matchKey's scratch.
	key  []byte
	regs []RegBind
	imms []ImmBind
}

// Lookup unifies the query pattern against the index and returns all
// matches (bounded). The query's free variables are IR operands; matches
// carry the ISA-operand binding. Concurrent Lookups are safe once every
// Insert has returned.
func (ix *Index) Lookup(query *canon.CTerm) []Match {
	root := ix.roots[query.Width]
	if root == nil {
		return nil
	}
	var one [1]canon.Addend
	qK, qAddends := linView(query, &one)
	s := &searcher{ix: ix, seen: map[string]struct{}{},
		qHeads: make([]headKey, len(qAddends)), qHeaded: make([]bool, len(qAddends))}
	for i, a := range qAddends {
		s.qHeads[i], s.qHeaded[i] = headOf(a.Coef, a.T)
	}
	used := make([]bool, len(qAddends))
	s.walk(root, qK, qAddends, used, &Binding{}, false)
	return s.matches
}

// walk explores the trie from n, with remaining query constant qK and
// unused query addends. pcDebt is set after crossing an unmatched PC
// edge; the next immediate edge that pairs with a query immediate absorbs
// it as a PC-relative binding (§V-B3), and matches with outstanding debt
// are rejected.
func (s *searcher) walk(n *node, qK bv.BV, qAddends []canon.Addend, used []bool, bind *Binding, pcDebt bool) {
	if s.steps++; s.steps > maxSearchSteps || len(s.matches) >= maxMatches {
		return
	}
	// Terminal check: all query addends consumed and constants agree.
	if len(n.terms) > 0 && allUsed(used) && !pcDebt {
		if ct := n.term(qK); ct != nil {
			s.emit(ct, bind)
		}
	}
	if n.big == nil {
		for ei := range n.elist {
			s.edge(&n.elist[ei], qK, qAddends, used, bind, pcDebt)
		}
		return
	}
	// Merge, in elist order, the always list with the buckets of the
	// unused query addends: every other edge is a shape edge whose head
	// no unused addend shares, on which no option can succeed. Two
	// addends with one head share a bucket, which is merged once.
	base := len(s.lists)
	s.lists = append(s.lists, n.big.always)
	for qi, h := range s.qHeads {
		if used[qi] || !s.qHeaded[qi] {
			continue
		}
		b := n.big.heads[h]
		if len(b) == 0 || s.merging(base+1, b) {
			continue
		}
		s.lists = append(s.lists, b)
	}
	for {
		next := -1
		for i := base; i < len(s.lists); i++ {
			if l := s.lists[i]; len(l) > 0 && (next < 0 || l[0] < s.lists[next][0]) {
				next = i
			}
		}
		if next < 0 {
			break
		}
		ei := s.lists[next][0]
		s.lists[next] = s.lists[next][1:]
		s.edge(&n.elist[ei], qK, qAddends, used, bind, pcDebt)
	}
	s.lists = s.lists[:base]
}

// merging reports whether bucket b is already on the merge stack at or
// above index from.
func (s *searcher) merging(from int, b []int32) bool {
	for _, l := range s.lists[from:] {
		if &l[0] == &b[0] {
			return true
		}
	}
	return false
}

// edge tries every option of the walk on one edge of the current node.
func (s *searcher) edge(e *edgeEnt, qK bv.BV, qAddends []canon.Addend, used []bool, bind *Binding, pcDebt bool) {
	coefI := e.coef
	sub, next := e.sub, e.next
	imm, hi, lo, isImm := e.imm, int(e.hi), int(e.lo), e.isImm
	// Option A: pair with an unused query addend. Each speculative
	// step mutates bind in place and rolls back after exploring the
	// branch (a recursive walk always restores bind before returning,
	// so sharing one binding across the whole search is sound).
	for qi := range qAddends {
		if used[qi] {
			continue
		}
		if pcDebt && isImm {
			// Option A': absorb the PC debt into a PC-relative
			// immediate binding.
			if qimm, qhi, qlo, qok := immWrapper(qAddends[qi].T); qok {
				m := bind.mark()
				if bind.bindImm(ImmBind{ISA: imm, ISAHi: hi, ISALo: lo,
					Query: qimm, QHi: qhi, QLo: qlo,
					CoefQ: qAddends[qi].Coef, CoefI: coefI, PCRel: true}) {
					used[qi] = true
					s.walk(next, qK, qAddends, used, bind, false)
					used[qi] = false
				}
				bind.rollback(m)
			}
		}
		m := bind.mark()
		// Dispatch on the label decomposition precomputed at insert
		// time instead of letting unify re-derive it per visit.
		var uok bool
		switch {
		case e.isImm:
			uok = unifyImm(bind, qAddends[qi].Coef, qAddends[qi].T, imm, hi, lo, coefI)
		case e.isPCImm:
			uok = unifyPCImm(bind, qAddends[qi].Coef, qAddends[qi].T, imm, hi, lo, e.pcCoef, coefI)
		default:
			uok = unifyShape(bind, qAddends[qi].Coef, qAddends[qi].T, coefI, sub)
		}
		if uok {
			used[qi] = true
			s.walk(next, qK, qAddends, used, bind, pcDebt)
			used[qi] = false
		}
		bind.rollback(m)
	}
	// Options B and C need an ISA immediate operand on the edge.
	if isImm {
		// Option B: bind the excess query constant to the immediate.
		if !qK.IsZero() {
			if v, ok := solveScaled(qK, coefI); ok {
				m := bind.mark()
				if bind.bindImm(ImmBind{ISA: imm, ISAHi: hi, ISALo: lo,
					Const: v, CoefQ: bv.New(qK.W(), 1), CoefI: coefI, PCRel: pcDebt}) {
					s.walk(next, bv.Zero(qK.W()), qAddends, used, bind, false)
				}
				bind.rollback(m)
			}
		}
		// Option C: excess ISA immediate binds to zero.
		m := bind.mark()
		if bind.bindImm(ImmBind{ISA: imm, ISAHi: hi, ISALo: lo,
			Const: bv.Zero(imm.Width), CoefQ: bv.New(qK.W(), 1), CoefI: coefI}) {
			s.walk(next, qK, qAddends, used, bind, pcDebt)
		}
		bind.rollback(m)
	}
	// Option D: an unmatched PC edge incurs a debt to be absorbed by
	// a following immediate edge (PC-relative addressing).
	if !pcDebt && sub.IsAtom() && sub.AtomKind() == term.KindPC &&
		coefI.Lo == 1 && coefI.Hi == 0 {
		s.walk(next, qK, qAddends, used, bind, true)
	}
}

func allUsed(used []bool) bool {
	for _, u := range used {
		if !u {
			return false
		}
	}
	return true
}

func (s *searcher) emit(ct *canon.CTerm, bind *Binding) {
	key := s.matchKey(ct, bind)
	if _, dup := s.seen[string(key)]; dup {
		return
	}
	s.seen[string(key)] = struct{}{}
	s.matches = append(s.matches, Match{Term: ct, Payloads: s.ix.payloads[ct], Binding: bind.clone()})
}

// matchKey encodes the indexed term and the binding, its register and
// immediate bindings each sorted by ISA atom, into s.key: two matches
// are duplicates exactly when their keys are equal. A binding holds at
// most one entry per ISA atom (bindReg and bindImm merge rebindings),
// so the sort order is total.
func (s *searcher) matchKey(ct *canon.CTerm, bind *Binding) []byte {
	s.regs = append(s.regs[:0], bind.Regs...)
	slices.SortFunc(s.regs, func(a, b RegBind) int { return a.ISA.ID - b.ISA.ID })
	s.imms = append(s.imms[:0], bind.Imms...)
	slices.SortFunc(s.imms, func(a, b ImmBind) int { return a.ISA.ID - b.ISA.ID })
	k := binary.LittleEndian.AppendUint64(s.key[:0], uint64(ct.ID))
	k = binary.LittleEndian.AppendUint64(k, uint64(len(s.regs)))
	for _, rb := range s.regs {
		k = binary.LittleEndian.AppendUint64(k, uint64(rb.ISA.ID))
		k = binary.LittleEndian.AppendUint64(k, uint64(rb.Query.ID))
	}
	for _, ib := range s.imms {
		q := -1
		if ib.Query != nil {
			q = ib.Query.ID
		}
		for _, v := range [...]int{ib.ISA.ID, ib.ISAHi, ib.ISALo, q, ib.QHi, ib.QLo} {
			k = binary.LittleEndian.AppendUint64(k, uint64(v))
		}
		for _, v := range [...]bv.BV{ib.Const, ib.CoefQ, ib.CoefI} {
			k = binary.LittleEndian.AppendUint64(k, v.Lo)
			k = binary.LittleEndian.AppendUint64(k, v.Hi)
			k = append(k, v.Width)
		}
		if ib.PCRel {
			k = append(k, 1)
		} else {
			k = append(k, 0)
		}
	}
	s.key = k
	return k
}

// solveScaled finds v with coef·v == k (unsigned exact), if any.
func solveScaled(k, coef bv.BV) (bv.BV, bool) {
	if coef.IsZero() {
		return bv.BV{}, false
	}
	v := k.UDiv(coef)
	if v.Mul(coef) != k {
		return bv.BV{}, false
	}
	return v, true
}

// immWrapper recognizes an ISA immediate operand possibly wrapped in an
// extract window: either a bare immediate atom or extract[hi:lo](imm).
func immWrapper(t *canon.CTerm) (imm *canon.CTerm, hi, lo int, ok bool) {
	if t.IsAtom() && t.AtomKind() == term.KindImm {
		return t, t.Width - 1, 0, true
	}
	if t.Kind == canon.OpNode && t.Op == term.Extract {
		inner := t.Args[0]
		if inner.IsAtom() && inner.AtomKind() == term.KindImm {
			return inner, int(t.Aux0), int(t.Aux1), true
		}
	}
	return nil, 0, 0, false
}

// pcPlusImm recognizes the ISA-side linear combination pc + c·imm used for
// PC-relative addressing.
func pcPlusImm(t *canon.CTerm) (imm *canon.CTerm, hi, lo int, coef bv.BV, ok bool) {
	if t.Kind != canon.Lin || !t.K.IsZero() || len(t.Addends) != 2 {
		return nil, 0, 0, bv.BV{}, false
	}
	var pcSeen bool
	for _, a := range t.Addends {
		if a.T.IsAtom() && a.T.AtomKind() == term.KindPC {
			if a.Coef.Lo != 1 || a.Coef.Hi != 0 {
				return nil, 0, 0, bv.BV{}, false
			}
			pcSeen = true
			continue
		}
		if im, h, l, k := immWrapper(a.T); k {
			imm, hi, lo, coef = im, h, l, a.Coef
		}
	}
	if pcSeen && imm != nil {
		return imm, hi, lo, coef, true
	}
	return nil, 0, 0, bv.BV{}, false
}

// unify attempts to unify one query addend (coefQ·tQ) with one index
// addend (coefI·tI), extending bind. tI comes from the ISA side.
func unify(bind *Binding, coefQ bv.BV, tQ *canon.CTerm, coefI bv.BV, tI *canon.CTerm) bool {
	// ISA immediates unify with query immediates even across differing
	// coefficients, widths, and extract windows (§V-B3).
	if imm, ihi, ilo, ok := immWrapper(tI); ok {
		return unifyImm(bind, coefQ, tQ, imm, ihi, ilo, coefI)
	}

	// PC-relative: ISA-side pc+imm against a lone query immediate.
	if imm, ihi, ilo, coef, ok := pcPlusImm(tI); ok {
		return unifyPCImm(bind, coefQ, tQ, imm, ihi, ilo, coef, coefI)
	}

	return unifyShape(bind, coefQ, tQ, coefI, tI)
}

// unifyImm is the ISA-immediate branch of unify, taking the immWrapper
// decomposition of the ISA term as arguments so the trie walk can pass
// the copy precomputed on the edge.
func unifyImm(bind *Binding, coefQ bv.BV, tQ *canon.CTerm, imm *canon.CTerm, ihi, ilo int, coefI bv.BV) bool {
	if qimm, qhi, qlo, qok := immWrapper(tQ); qok && qimm.AtomKind() == term.KindImm {
		return bind.bindImm(ImmBind{ISA: imm, ISAHi: ihi, ISALo: ilo,
			Query: qimm, QHi: qhi, QLo: qlo, CoefQ: coefQ, CoefI: coefI})
	}
	return false
}

// unifyPCImm is the pc+imm branch of unify, likewise taking the
// precomputed pcPlusImm decomposition.
func unifyPCImm(bind *Binding, coefQ bv.BV, tQ *canon.CTerm, imm *canon.CTerm, ihi, ilo int, coef, coefI bv.BV) bool {
	if qimm, qhi, qlo, qok := immWrapper(tQ); qok {
		return bind.bindImm(ImmBind{ISA: imm, ISAHi: ihi, ISALo: ilo,
			Query: qimm, QHi: qhi, QLo: qlo,
			CoefQ: coefQ, CoefI: coef.ZExt(coefI.W()).Mul(coefI), PCRel: true})
	}
	return false
}

// unifyShape handles the structural cases of unify — the ISA term is
// neither an immediate wrapper nor pc+imm.
func unifyShape(bind *Binding, coefQ bv.BV, tQ *canon.CTerm, coefI bv.BV, tI *canon.CTerm) bool {
	switch tI.Kind {
	case canon.Atom:
		if coefQ != coefI {
			return false
		}
		if !tQ.IsAtom() || tQ.Width != tI.Width {
			return false
		}
		ki, kq := tI.AtomKind(), tQ.AtomKind()
		switch ki {
		case term.KindReg, term.KindVecReg:
			// Registers unify with registers and vector registers with
			// vector registers.
			if kq != ki {
				return false
			}
		case term.KindPC, term.KindFlag:
			if kq != ki {
				return false
			}
		default:
			return false
		}
		return bind.bindReg(tI, tQ)

	case canon.OpNode:
		if coefQ != coefI {
			return false
		}
		if tQ.Kind != canon.OpNode || tQ.Op != tI.Op || tQ.Width != tI.Width ||
			tQ.Aux0 != tI.Aux0 || tQ.Aux1 != tI.Aux1 || len(tQ.Args) != len(tI.Args) {
			return false
		}
		one := func(w int) bv.BV { return bv.New(w, 1) }
		tryArgs := func(b *Binding, qa, ia []*canon.CTerm) bool {
			for i := range qa {
				if !unify(b, one(qa[i].Width), qa[i], one(ia[i].Width), ia[i]) {
					return false
				}
			}
			return true
		}
		m := bind.mark()
		if tryArgs(bind, tQ.Args, tI.Args) {
			return true
		}
		bind.rollback(m)
		// Commutative operands may be ordered differently across contexts.
		if tI.Op.IsCommutative() && len(tI.Args) == 2 {
			if tryArgs(bind, tQ.Args, []*canon.CTerm{tI.Args[1], tI.Args[0]}) {
				return true
			}
			bind.rollback(m)
		}
		return false

	case canon.Lin:
		if coefQ != coefI {
			return false
		}
		if tQ.Width != tI.Width {
			return false
		}
		// tQ need not itself be a linear combination: a bare register can
		// unify with a+imm through a zero immediate binding.
		return unifyLin(bind, tQ, tI)
	}
	return false
}

// unifyLin unifies two nested linear combinations by backtracking over
// addend pairings, applying the same immediate rules as the trie walk.
// On success the accumulated bindings remain in bind; on failure every
// speculative step has been rolled back.
func unifyLin(bind *Binding, q, i *canon.CTerm) bool {
	var qOne, iOne [1]canon.Addend
	qK, qAdd := linView(q, &qOne)
	iK, iAdd := linView(i, &iOne)
	var usedBuf [8]bool
	used := slices.Grow(usedBuf[:0], len(qAdd))[:len(qAdd)]
	var rec func(ii int, k bv.BV) bool
	rec = func(ii int, k bv.BV) bool {
		if ii == len(iAdd) {
			return allUsed(used) && k == iK
		}
		a := iAdd[ii]
		for qi := range qAdd {
			if used[qi] {
				continue
			}
			m := bind.mark()
			if unify(bind, qAdd[qi].Coef, qAdd[qi].T, a.Coef, a.T) {
				used[qi] = true
				if rec(ii+1, k) {
					return true
				}
				used[qi] = false
			}
			bind.rollback(m)
		}
		if imm, hi, lo, ok := immWrapper(a.T); ok {
			if !k.IsZero() {
				if v, vok := solveScaled(k, a.Coef); vok {
					m := bind.mark()
					if bind.bindImm(ImmBind{ISA: imm, ISAHi: hi, ISALo: lo, Const: v,
						CoefQ: bv.New(k.W(), 1), CoefI: a.Coef}) && rec(ii+1, bv.Zero(k.W())) {
						return true
					}
					bind.rollback(m)
				}
			}
			m := bind.mark()
			if bind.bindImm(ImmBind{ISA: imm, ISAHi: hi, ISALo: lo, Const: bv.Zero(imm.Width),
				CoefQ: bv.New(k.W(), 1), CoefI: a.Coef}) && rec(ii+1, k) {
				return true
			}
			bind.rollback(m)
		}
		return false
	}
	return rec(0, qK)
}
