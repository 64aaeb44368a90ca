// Miter simplification: the rewrite step between load pairing and the
// verdict memo. A goal pair (l, r) stands for the miter "l != r"; Equiv
// rewrites each pair into a smaller pair that differs under exactly the
// same assignments, and then keys the memo, screens counterexamples and
// bit-blasts the rewritten pair. This is the part of an SMT solver's
// preprocessing that the compare rules need: their two sides share a
// wrapper (a zero-extension, a select over the same two values) around
// 1-bit conditions that are the only thing that differs, and CDCL over
// the raw miter spends most of its decisions on the shared bits.
//
// Exactness, rewrite by rewrite (for every assignment σ):
//
//   - f(a) vs f(b) becomes a vs b when f is injective, so that
//     f(a)σ != f(b)σ iff aσ != bσ. The peeled wrappers are zext and sext
//     from equal source widths and bvnot.
//   - ite(c,x,y) vs ite(d,x,y) becomes (c xor d) and (x != y) vs 0. If
//     cσ = dσ both sides pick the same arm; otherwise one picks x and
//     the other y, and they differ iff xσ != yσ. A condition bvnot(c)
//     is first turned into c with the arms swapped, which is the same
//     term, so ite(c,x,y) vs ite(d,y,x) is covered too.
//
// A rewritten pair differs exactly where its original does, so verdicts
// (Equal, NotEqual) cannot change, and a counterexample of the rewritten
// pair separates the original pair; only which counterexample the solver
// finds may differ. A variable the rewritten pair no longer mentions
// (the builder may fold one away) is unconstrained, so any value — the
// screen's name-hashed fill — keeps the witness separating.
package smt

import "iselgen/internal/term"

// Rewrite names one miter simplification; Stats.Rewrites counts each.
type Rewrite int

// Miter rewrites.
const (
	PeelZExt Rewrite = iota // zext(a) vs zext(b) → a vs b
	PeelSExt                // sext(a) vs sext(b) → a vs b
	PeelNot                 // bvnot(a) vs bvnot(b) → a vs b
	IteCond                 // ite(c,x,y) vs ite(d,x,y) → (c xor d) and (x != y) vs 0
	numRewrites
)

// simplify rewrites every goal pair (see the file comment) and drops the
// pairs whose two sides are the same term, which hold under any
// assignment. It rewrites goals in place and returns the remaining ones.
func (c *Checker) simplify(b *term.Builder, goals [][2]*term.Term) [][2]*term.Term {
	out := goals[:0]
	for _, g := range goals {
		l, r := c.simplifyPair(b, g[0], g[1])
		if l != r {
			out = append(out, [2]*term.Term{l, r})
		}
	}
	return out
}

// simplifyPair peels shared injective wrappers off l and r, and turns a
// pair of selects over the same two values into their 1-bit condition
// miter.
func (c *Checker) simplifyPair(b *term.Builder, l, r *term.Term) (*term.Term, *term.Term) {
	for l != r && l.Op == r.Op {
		var rw Rewrite
		switch l.Op {
		case term.ZExt, term.SExt:
			if l.Args[0].W() != r.Args[0].W() {
				return l, r
			}
			rw = PeelZExt
			if l.Op == term.SExt {
				rw = PeelSExt
			}
			l, r = l.Args[0], r.Args[0]
		case term.Not:
			rw = PeelNot
			l, r = l.Args[0], r.Args[0]
		case term.Ite:
			lc, lx, ly := iteArms(l)
			rc, rx, ry := iteArms(r)
			switch {
			case lx == rx && ly == ry:
			case lx == ry && ly == rx:
				rc = b.Not(rc)
			default:
				return l, r
			}
			c.Stats.Rewrites[IteCond]++
			return b.And(b.Xor(lc, rc), b.Ne(lx, ly)), b.Const(1, 0)
		default:
			return l, r
		}
		c.Stats.Rewrites[rw]++
	}
	return l, r
}

// iteArms returns the condition and arms of ite(cond, x, y), with a
// negated condition stripped by swapping the arms.
func iteArms(t *term.Term) (cond, x, y *term.Term) {
	cond, x, y = t.Args[0], t.Args[1], t.Args[2]
	if cond.Op == term.Not {
		return cond.Args[0], y, x
	}
	return cond, x, y
}
