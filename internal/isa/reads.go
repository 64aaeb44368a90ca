package isa

import (
	"slices"

	"iselgen/internal/term"
)

// MustRead reports, without building it, which effects of
// c.Append(b, s, inst, wireOps, consumeFlags) certainly read a flag
// variable and which certainly read the PC: bit i of flags (pc) is set
// when effect i of the composed sequence provably contains one.
//
// The answer is conservative. The builder folds as it rebuilds an
// effect around the substituted base terms, and some folds erase a
// subterm (x-x, x&0, an extract of the zero-extended high half). A bit
// is set only when no fold on the way from the variable's occurrence to
// the effect root can erase it, so a clear bit means "maybe not", never
// "certainly not". Rejections are Append's, with the same errors; the
// template a composition needs is built and cached exactly as Append
// would build it.
func (c *AppendCache) MustRead(b *term.Builder, s *Sequence, inst *Instruction, wireOps []string, consumeFlags bool) (flags, pc uint64, err error) {
	if len(wireOps) > 1 || len(inst.Effects) > 64 {
		return 0, 0, nil
	}
	tpl, prev, flagTerms, err := c.bind(b, s, inst, wireOps, consumeFlags)
	if err != nil {
		return 0, 0, err
	}
	if !tpl.reads && !readsFlagOrPC(prev) && !slices.ContainsFunc(flagTerms, readsFlagOrPC) {
		return 0, 0, nil // no flag or PC variable anywhere to keep
	}
	r := &c.scan
	r.reset(tpl, prev, flagTerms)
	for i, e := range inst.Effects {
		a := r.eval(e.T)
		if a.kept&^r.pcBits != 0 {
			flags |= 1 << i
		}
		if a.kept&r.pcBits != 0 {
			pc |= 1 << i
		}
	}
	if r.overflow {
		return 0, 0, nil
	}
	return flags, pc, nil
}

func readsFlagOrPC(t *term.Term) bool {
	if t == nil {
		return false
	}
	for _, v := range t.Vars() {
		if v.Kind == term.KindFlag || v.Kind == term.KindPC {
			return true
		}
	}
	return false
}

// readScan is MustRead's per-call state, kept in the AppendCache so the
// enumerator's pair loop reuses its memo and variable table.
type readScan struct {
	tpl   *appendTemplate
	prev  *term.Term   // substitute for tpl.wiredSrc
	flags []*term.Term // substitutes for tpl.flagSrc
	// memo holds this call's results under gen; older entries are stale,
	// which spares clearing the map between calls.
	memo map[*term.Term]memoEntry
	gen  uint32
	// vars numbers the flag and PC variables met so far: bit i of a mask
	// stands for vars[i]. pcBits marks the PC ones.
	vars     []*term.Term
	pcBits   uint64
	overflow bool // more than 64 such variables: no claim is made
}

func (r *readScan) reset(tpl *appendTemplate, prev *term.Term, flags []*term.Term) {
	r.tpl, r.prev, r.flags = tpl, prev, flags
	if r.memo == nil {
		r.memo = map[*term.Term]memoEntry{}
	}
	r.gen++
	r.vars = r.vars[:0]
	r.pcBits = 0
	r.overflow = false
}

type memoEntry struct {
	gen uint32
	a   absTerm
}

// absTerm is what the scan knows about the term Append builds for one
// node of an instruction effect.
type absTerm struct {
	// t is the built term itself when the scan knows it: a substituted
	// base term or an off-spine template entry.
	t *term.Term
	// raw, when t is nil, is the effect node itself, and says that no
	// fold fires there: the built term has raw's operator and aux fields
	// over the built terms of raw's arguments.
	raw *term.Term
	// kept and may are masks over readScan.vars: the variables the built
	// term certainly contains and those it may contain.
	kept, may uint64
	// nc: the built term is certainly not a constant.
	nc bool
}

func (a absTerm) op() (term.Op, bool) {
	switch {
	case a.t != nil:
		return a.t.Op, true
	case a.raw != nil:
		return a.raw.Op, true
	}
	return 0, false
}

// isConst reports whether the built term is known to be the constant t.
func (a absTerm) isConst() bool { return a.t != nil && a.t.IsConst() }

func (r *readScan) known(t *term.Term) absTerm {
	m := r.mask(t)
	return absTerm{t: t, kept: m, may: m, nc: !t.IsConst()}
}

// mask returns the set of t's flag and PC variables.
func (r *readScan) mask(t *term.Term) uint64 {
	var m uint64
	for _, v := range t.Vars() {
		if v.Kind != term.KindFlag && v.Kind != term.KindPC {
			continue
		}
		i := slices.Index(r.vars, v)
		if i < 0 {
			if len(r.vars) == 64 {
				r.overflow = true
				continue
			}
			i = len(r.vars)
			r.vars = append(r.vars, v)
			if v.Kind == term.KindPC {
				r.pcBits |= 1 << i
			}
		}
		m |= 1 << i
	}
	return m
}

// eval follows RebuildOverlay's lookup order: the per-call bindings of
// the wired and consumed-flag sources, then the template memo, and only
// the spine in between is reasoned about.
func (r *readScan) eval(u *term.Term) absTerm {
	if m, ok := r.memo[u]; ok && m.gen == r.gen {
		return m.a
	}
	var a absTerm
	if t := r.source(u); t != nil {
		a = r.known(t)
	} else if t, ok := r.tpl.subst[u]; ok {
		a = r.known(t)
	} else {
		a = r.apply(u)
	}
	r.memo[u] = memoEntry{r.gen, a}
	return a
}

func (r *readScan) source(u *term.Term) *term.Term {
	if u == r.tpl.wiredSrc {
		return r.prev
	}
	for i, src := range r.tpl.flagSrc {
		if u == src {
			return r.flags[i]
		}
	}
	return nil
}

// nonzero reports whether the built term is certainly not the constant
// zero, which rules out the x+0 and x<<0 folds.
func (a absTerm) nonzero() bool {
	return a.nc || (a.isConst() && !a.t.CVal.IsZero())
}

// differ reports whether the built terms of a and b are certainly
// distinct, which rules out the x==y folds.
func differ(a, b absTerm) bool {
	if a.t != nil && b.t != nil {
		return a.t != b.t
	}
	if (a.nc && b.isConst()) || (b.nc && a.isConst()) {
		return true
	}
	if opA, ok := a.op(); ok {
		if opB, ok := b.op(); ok && opA != opB {
			return true
		}
	}
	return a.kept&^b.may != 0 || b.kept&^a.may != 0
}

// apply mirrors the folds of the term.Builder constructor for u's
// operator over the scanned arguments.
func (r *readScan) apply(u *term.Term) absTerm {
	var args [3]absTerm
	var may uint64
	for i, a := range u.Args {
		args[i] = r.eval(a)
		may |= args[i].may
	}
	x, y := args[0], args[1]
	out := absTerm{may: may}
	switch u.Op {
	case term.Neg, term.Not, term.Rev:
		// Only constants fold, and a double application cancels.
		if op, ok := x.op(); ok && op == u.Op {
			if x.t != nil {
				return r.known(x.t.Args[0])
			}
			return r.memo[x.raw.Args[0]].a
		}
		out.kept, out.nc = x.kept, x.nc
		if _, ok := x.op(); ok && x.nc {
			out.raw = u
		}
	case term.ZExt, term.SExt:
		// Only constants fold, and zext of a zext keeps the inner
		// argument: the variables stay.
		out.kept, out.nc = x.kept, x.nc
		if op, ok := x.op(); ok && x.nc && op != u.Op {
			out.raw = u
		}
	case term.Popcount, term.Clz, term.Ctz:
		out.kept, out.nc = x.kept, x.nc
		if x.nc {
			out.raw = u
		}
	case term.Load, term.Store:
		out.kept, out.nc, out.raw = x.kept|y.kept, true, u
	case term.Add, term.Concat, term.UDiv, term.SDiv, term.URem, term.SRem, term.RotL, term.RotR:
		// Constant folding and x+0 only: no variable is lost.
		out.kept, out.nc = x.kept|y.kept, x.nc || y.nc
		if out.nc && (u.Op != term.Add || (x.nonzero() && y.nonzero())) {
			out.raw = u
		}
	case term.Shl, term.LShr, term.AShr:
		out.kept, out.nc = x.kept|y.kept, x.nc || y.nc
		if out.nc && y.nonzero() {
			out.raw = u
		}
	case term.Sub, term.Xor, term.Eq, term.Ult, term.Slt:
		// x==y folds to a constant; every other fold keeps a variable.
		if !differ(x, y) {
			break
		}
		out.kept, out.nc = x.kept|y.kept, x.nc || y.nc
		if (u.Op == term.Sub && out.nc && y.nonzero()) || (u.Op == term.Xor && x.nc && y.nc) ||
			(u.Op != term.Sub && u.Op != term.Xor && out.nc) {
			out.raw = u
		}
	case term.Mul, term.And, term.Or:
		// An absorbing constant (0 for * and &, all ones for |) erases
		// the other operand.
		if !absorbs(u.Op, y) {
			out.kept |= x.kept
			out.nc = out.nc || x.nc
		}
		if !absorbs(u.Op, x) {
			out.kept |= y.kept
			out.nc = out.nc || y.nc
		}
		if x.nc && y.nc && (u.Op == term.Mul || differ(x, y)) {
			out.raw = u
		}
	case term.Ite:
		c, y, z := args[0], args[1], args[2]
		d := differ(y, z)
		if c.nc {
			// ite(c, y, y) folds to y, dropping only the condition.
			out.kept, out.nc = y.kept|z.kept, d || y.nc || z.nc
			if d {
				out.kept |= c.kept
				out.raw = u
			}
		} else {
			out.kept, out.nc = y.kept&z.kept, y.nc && z.nc
		}
	case term.Extract:
		a, folded := r.extract(int(u.Aux0), int(u.Aux1), u.Args[0].W(), x)
		a.may = may
		if !folded {
			a.raw = u
		}
		return a
	}
	return out
}

// absorbs reports whether c may be the absorbing constant of op.
func absorbs(op term.Op, c absTerm) bool {
	if c.nc {
		return false
	}
	if !c.isConst() {
		return true
	}
	v := c.t.CVal
	if op == term.Or {
		return v.IsOnes()
	}
	return v.IsZero()
}

// extract mirrors term.Builder.Extract(hi, lo, x) for x of width w.
// folded is false when the result is a new extract node over x itself.
func (r *readScan) extract(hi, lo, w int, x absTerm) (a absTerm, folded bool) {
	if lo == 0 && hi == w-1 {
		return x, true
	}
	if x.t != nil {
		switch x.t.Op {
		case term.Const, term.Extract, term.ZExt, term.Concat:
			return r.extractTerm(hi, lo, x.t), true
		}
		m := r.mask(x.t)
		return absTerm{kept: m, may: m, nc: true}, false
	}
	op, ok := x.op()
	if !ok {
		return absTerm{}, true
	}
	switch op {
	case term.Extract:
		inner := x.raw.Args[0]
		return r.extract(int(x.raw.Aux1)+hi, int(x.raw.Aux1)+lo, inner.W(), r.memo[inner].a)
	case term.ZExt:
		inner := x.raw.Args[0]
		if hi < inner.W() {
			return r.extract(hi, lo, inner.W(), r.memo[inner].a)
		}
		if lo >= inner.W() {
			return absTerm{}, true
		}
	case term.Concat:
		h, l := x.raw.Args[0], x.raw.Args[1]
		if lo >= l.W() {
			return r.extract(hi-l.W(), lo-l.W(), h.W(), r.memo[h].a)
		}
		if hi < l.W() {
			return r.extract(hi, lo, l.W(), r.memo[l].a)
		}
	}
	return absTerm{kept: x.kept, may: x.may, nc: true}, false
}

// extractTerm is extract over a known term. The result is built only
// when an operand of Concat is picked out whole; otherwise only its
// variables are known.
func (r *readScan) extractTerm(hi, lo int, x *term.Term) absTerm {
	switch {
	case lo == 0 && hi == x.W()-1:
		return r.known(x)
	case x.IsConst():
		return absTerm{}
	case x.Op == term.Extract:
		return r.extractTerm(int(x.Aux1)+hi, int(x.Aux1)+lo, x.Args[0])
	case x.Op == term.ZExt && hi < x.Args[0].W():
		return r.extractTerm(hi, lo, x.Args[0])
	case x.Op == term.ZExt && lo >= x.Args[0].W():
		return absTerm{}
	case x.Op == term.Concat && lo >= x.Args[1].W():
		loW := x.Args[1].W()
		return r.extractTerm(hi-loW, lo-loW, x.Args[0])
	case x.Op == term.Concat && hi < x.Args[1].W():
		return r.extractTerm(hi, lo, x.Args[1])
	}
	m := r.mask(x)
	return absTerm{kept: m, may: m, nc: true}
}
