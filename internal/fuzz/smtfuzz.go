package fuzz

import (
	"fmt"

	"iselgen/internal/bv"
	"iselgen/internal/smt"
	"iselgen/internal/term"
)

// The SMT oracle is metamorphic: the bit-blasted equivalence checker and
// random evaluation must never contradict each other, equivalence-
// preserving term rewrites must never be judged NotEqual, and every
// NotEqual's stored witness must separate the pair it refuted. Most
// iterations also check their pair wrapped in the shapes the checker's
// miter rewrites apply to. Terms are regenerated deterministically from
// (seed, iter), so an smt corpus entry needs no body.

// smtWidths are the term widths the generator draws from.
var smtWidths = []int{8, 16, 32, 64}

const (
	smtDepth  = 4
	smtTrials = 16
)

// CheckSMT runs one deterministic metamorphic iteration against the
// verdict memo. maxConflicts bounds the solver (0 = a fuzzing-sized
// default).
func CheckSMT(memo smt.Memo, seed uint64, iter int, maxConflicts int64) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	if maxConflicts == 0 {
		maxConflicts = 20000
	}
	rng := bv.NewRNG(SubSeed(seed, uint64(iter)))
	b := term.NewBuilder()
	g := &termGen{b: b, rng: rng, vars: map[int][]*term.Term{}}
	for _, w := range smtWidths {
		for _, n := range []string{"a", "b", "c"} {
			g.vars[w] = append(g.vars[w], b.Reg(fmt.Sprintf("%s%d", n, w), w))
		}
	}

	w := smtWidths[rng.Intn(len(smtWidths))]
	t1 := g.gen(w, smtDepth)

	metamorphic := rng.Intn(2) == 0
	var t2 *term.Term
	if metamorphic {
		t2 = g.transform(t1)
	} else {
		t2 = g.gen(w, smtDepth)
	}

	// The oracle consults the run's verdict memo like every other
	// checker user (simplify → memo → screen → bit-blast): a
	// memo-induced verdict change would surface here as an eval
	// disagreement, so fuzz runs double as a continuous check that
	// memoization is verdict-preserving. The fingerprint is a constant —
	// fuzz queries are pure term-pair truths with no spec behind them.
	wm := &witnessMemo{Memo: memo}
	c := &smt.Checker{MaxConflicts: maxConflicts, Memo: wm, SpecFP: "fuzz-v1"}
	if err := checkPair(c, wm, g, t1, t2, metamorphic); err != nil {
		return err
	}

	// Rewrite coverage: wrap the pair the way compare rules are shaped,
	// so the checker's miter rewrites meet random operands. The shape
	// comes from an RNG of its own, so t1 and t2 — and every repro of an
	// earlier (seed, iter) — stay what they were.
	wg := &termGen{b: b, rng: bv.NewRNG(SubSeed(SubSeed(seed, uint64(iter)), rewriteSalt)), vars: g.vars}
	l, r, equiv := wg.rewritable(t1, t2)
	if l == nil {
		return nil
	}
	if err := checkPair(c, wm, wg, l, r, metamorphic || equiv); err != nil {
		return fmt.Errorf("rewrite pair: %w", err)
	}
	return nil
}

// rewriteSalt separates the rewrite-shape RNG from the term RNG.
const rewriteSalt = 0x5e1ec7

// checkPair asks c whether t1 = t2 and checks the verdict by evaluation
// on smtTrials random assignments drawn from g: an Equal must agree on
// all of them, an equivalent pair (equiv) must not be refuted, and a
// refutation's stored witness must separate the pair.
func checkPair(c *smt.Checker, wm *witnessMemo, g *termGen, t1, t2 *term.Term, equiv bool) error {
	wm.cex = nil
	verdict := c.Equiv(g.b, t1, t2)
	for trial := 0; trial < smtTrials; trial++ {
		env := term.NewEnv()
		for _, w := range smtWidths {
			for _, v := range g.vars[w] {
				env.Bind(v.Name, g.rng.BV(v.W()))
			}
		}
		r1, r2 := t1.Eval(env), t2.Eval(env)
		if r1 != r2 {
			if verdict == smt.Equal {
				return fmt.Errorf("smt: checker says Equal but eval disagrees (trial %d: %s vs %s)\nlhs: %s\nrhs: %s",
					trial, r1, r2, t1, t2)
			}
			if equiv {
				return fmt.Errorf("smt: metamorphic transform changed semantics (trial %d: %s vs %s)\nlhs: %s\nrhs: %s",
					trial, r1, r2, t1, t2)
			}
			break
		}
	}
	if verdict != smt.NotEqual {
		return nil
	}
	if equiv {
		return fmt.Errorf("smt: checker refutes an equivalence-preserving rewrite\nlhs: %s\nrhs: %s", t1, t2)
	}
	if !smt.Separates(wm.cex, t1, t2) {
		return fmt.Errorf("smt: the stored witness %v does not separate the refuted pair\nlhs: %s\nrhs: %s", wm.cex, t1, t2)
	}
	return nil
}

// witnessMemo passes a checker's memo traffic through and keeps the
// counterexample of the last NotEqual verdict the checker stored or
// replayed: the witness of the query it just answered.
type witnessMemo struct {
	smt.Memo
	cex map[string]bv.BV
}

func (m *witnessMemo) Lookup(key string) (smt.MemoEntry, bool) {
	e, ok := m.Memo.Lookup(key)
	if ok && e.Verdict == smt.NotEqual {
		m.cex = e.Cex
	}
	return e, ok
}

func (m *witnessMemo) Store(key string, e smt.MemoEntry) {
	if e.Verdict == smt.NotEqual {
		m.cex = e.Cex
	}
	m.Memo.Store(key, e)
}

// rewritable wraps t1 and t2 into a pair the checker's miter rewrites
// apply to: one shared wrapper (zext, sext or bvnot), or selects over the
// pair with shared or swapped arms. equiv reports a pair equivalent
// whatever t1 and t2 are (a select against its mirror image). A quarter
// of the draws return no pair.
func (g *termGen) rewritable(t1, t2 *term.Term) (l, r *term.Term, equiv bool) {
	b := g.b
	switch g.rng.Intn(4) {
	case 0: // shared wrapper
		w := t1.W()
		ww := g.wider(w)
		switch {
		case ww != 0 && g.rng.Intn(2) == 0:
			return b.ZExt(ww, t1), b.ZExt(ww, t2), false
		case ww != 0 && g.rng.Intn(2) == 0:
			return b.SExt(ww, t1), b.SExt(ww, t2), false
		}
		return b.Not(t1), b.Not(t2), false
	case 1: // shared arms
		return b.Ite(g.cond(2), t1, t2), b.Ite(g.cond(2), t1, t2), false
	case 2: // swapped arms, a quarter of them mirrored
		c1 := g.cond(2)
		if g.rng.Intn(4) == 0 {
			return b.Ite(c1, t1, t2), b.Ite(b.Not(c1), t2, t1), true
		}
		return b.Ite(c1, t1, t2), b.Ite(g.cond(2), t2, t1), false
	}
	return nil, nil, false
}

// termGen builds random terms over the bitblaster's supported operations
// (loads and stores excluded: the checker's load-pairing discipline is a
// deliberate under-approximation, not a soundness contract).
type termGen struct {
	b    *term.Builder
	rng  *bv.RNG
	vars map[int][]*term.Term
}

func (g *termGen) leaf(w int) *term.Term {
	if g.rng.Intn(3) == 0 {
		return g.b.ConstBV(g.rng.BV(w))
	}
	vs := g.vars[w]
	if len(vs) == 0 {
		return g.b.ConstBV(g.rng.BV(w))
	}
	return vs[g.rng.Intn(len(vs))]
}

func (g *termGen) cond(depth int) *term.Term {
	w := smtWidths[g.rng.Intn(len(smtWidths))]
	x, y := g.gen(w, depth-1), g.gen(w, depth-1)
	switch g.rng.Intn(3) {
	case 0:
		return g.b.Eq(x, y)
	case 1:
		return g.b.Ult(x, y)
	default:
		return g.b.Slt(x, y)
	}
}

func (g *termGen) gen(w, depth int) *term.Term {
	if depth <= 0 || g.rng.Intn(4) == 0 {
		return g.leaf(w)
	}
	b := g.b
	switch g.rng.Intn(12) {
	case 0: // arithmetic binary
		x, y := g.gen(w, depth-1), g.gen(w, depth-1)
		switch g.rng.Intn(7) {
		case 0:
			return b.Add(x, y)
		case 1:
			return b.Sub(x, y)
		case 2:
			return b.Mul(x, y)
		case 3:
			return b.UDiv(x, y)
		case 4:
			return b.SDiv(x, y)
		case 5:
			return b.URem(x, y)
		default:
			return b.SRem(x, y)
		}
	case 1: // bitwise binary
		x, y := g.gen(w, depth-1), g.gen(w, depth-1)
		switch g.rng.Intn(3) {
		case 0:
			return b.And(x, y)
		case 1:
			return b.Or(x, y)
		default:
			return b.Xor(x, y)
		}
	case 2: // shifts and rotates
		x, y := g.gen(w, depth-1), g.gen(w, depth-1)
		switch g.rng.Intn(5) {
		case 0:
			return b.Shl(x, y)
		case 1:
			return b.LShr(x, y)
		case 2:
			return b.AShr(x, y)
		case 3:
			return b.RotL(x, y)
		default:
			return b.RotR(x, y)
		}
	case 3: // unary
		x := g.gen(w, depth-1)
		switch g.rng.Intn(2) {
		case 0:
			return b.Neg(x)
		default:
			return b.Not(x)
		}
	case 4: // bit counting / reversal
		x := g.gen(w, depth-1)
		switch g.rng.Intn(4) {
		case 0:
			return b.Popcount(x)
		case 1:
			return b.Clz(x)
		case 2:
			return b.Ctz(x)
		default:
			return b.Rev(x)
		}
	case 5: // if-then-else
		return b.Ite(g.cond(depth), g.gen(w, depth-1), g.gen(w, depth-1))
	case 6: // zero/sign extension from a narrower width
		nw := g.narrower(w)
		if nw == 0 {
			return g.leaf(w)
		}
		x := g.gen(nw, depth-1)
		if g.rng.Intn(2) == 0 {
			return b.ZExt(w, x)
		}
		return b.SExt(w, x)
	case 7: // truncation from a wider width
		ww := g.wider(w)
		if ww == 0 {
			return g.leaf(w)
		}
		return b.Trunc(w, g.gen(ww, depth-1))
	case 8: // extract a w-bit field from a wider value
		ww := g.wider(w)
		if ww == 0 {
			return g.leaf(w)
		}
		lo := g.rng.Intn(ww - w + 1)
		return b.Extract(lo+w-1, lo, g.gen(ww, depth-1))
	case 9: // concat two halves
		if w%2 != 0 || !widthOK(w/2) {
			return g.leaf(w)
		}
		return b.Concat(g.gen(w/2, depth-1), g.gen(w/2, depth-1))
	case 10: // comparison widened back up
		c := g.cond(depth)
		if w == 1 {
			return c
		}
		return b.ZExt(w, c)
	default:
		return g.leaf(w)
	}
}

func (g *termGen) narrower(w int) int {
	var cands []int
	for _, c := range smtWidths {
		if c < w {
			cands = append(cands, c)
		}
	}
	if len(cands) == 0 {
		return 0
	}
	return cands[g.rng.Intn(len(cands))]
}

func (g *termGen) wider(w int) int {
	var cands []int
	for _, c := range smtWidths {
		if c > w {
			cands = append(cands, c)
		}
	}
	if len(cands) == 0 {
		return 0
	}
	return cands[g.rng.Intn(len(cands))]
}

func widthOK(w int) bool {
	for _, c := range smtWidths {
		if c == w {
			return true
		}
	}
	return false
}

// transform applies one equivalence-preserving rewrite to t.
func (g *termGen) transform(t *term.Term) *term.Term {
	b := g.b
	w := t.W()
	switch g.rng.Intn(5) {
	case 0: // double complement
		return b.Not(b.Not(t))
	case 1: // double negation
		return b.Neg(b.Neg(t))
	case 2: // x -> x ^ 0
		return b.Xor(t, b.Const(w, 0))
	case 3: // x -> x + 0
		return b.Add(t, b.Const(w, 0))
	default: // x - y -> x + (-y), else identity-or
		if t.Op == term.Sub {
			return b.Add(t.Args[0], b.Neg(t.Args[1]))
		}
		return b.Or(t, b.Const(w, 0))
	}
}
