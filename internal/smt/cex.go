// Counterexample screen: the CEGIS-style layer between the verdict memo
// and the solver (Reynolds et al., counterexample-guided quantifier
// instantiation). Every refuted equivalence query yields a satisfying
// assignment of the inequality — a concrete witness separating the two
// terms — which the memo stores with the NotEqual verdict. Those
// witnesses transfer: candidate pairs produced by later patterns reuse
// the same small vocabulary of variable names (pattern leaves, embedded
// immediates, paired loads), so an assignment that separated one wrong
// candidate very often separates the next. Replaying stored witnesses
// through the compiled concrete evaluator costs microseconds; a hit
// refutes the pair without building a single clause.
//
// Screening is sound and verdict-preserving: a witness refutes a pair
// only if the two sides concretely evaluate to different values, which
// is exactly a satisfying assignment of the inequality the solver would
// otherwise search for. A screen hit can therefore never displace an
// Equal verdict — it only short-circuits NotEqual (or spends a
// solver-timeout Unknown, which the synthesis pipeline treats the same
// way: candidate rejected). The synthesized rule library is byte-for-byte
// identical whatever witnesses the memo holds.
package smt

import (
	"iselgen/internal/bv"
	"iselgen/internal/term"
)

// witnessValue resolves a variable for screening. Stored widths are
// adapted (truncate/zero-extend) rather than rejected: any concrete value
// is a legal assignment, and width-flexible reuse is what lets a 32-bit
// counterexample kill a 64-bit candidate. Unknown names get a
// deterministic name-hashed fill so screening stays reproducible.
func witnessValue(vals map[string]bv.BV, name string, w int) bv.BV {
	if v, ok := vals[name]; ok {
		switch {
		case v.W() > w:
			return v.Trunc(w)
		case v.W() < w:
			return v.ZExt(w)
		}
		return v
	}
	return fillValue(name, w)
}

// fillValue is the deterministic default for variables a witness does
// not mention: a hash of the name, so distinct variables get distinct
// (but reproducible) values instead of an all-zero vector that aliases
// too many terms.
func fillValue(name string, w int) bv.BV {
	h := uint64(1469598103934665603)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 1099511628211
	}
	rng := bv.NewRNG(h ^ 0xc2b2ae3d27d4eb4f)
	return rng.BV(w)
}

// refuting screens a set of equivalence goals against concrete
// witnesses: it returns the first witness that makes some goal pair
// evaluate to different values — proof that the conjunction of goals
// cannot be valid, making the solver query unnecessary. The goal terms
// must be load-free (Equiv substitutes paired loads with fresh variables
// before screening).
func refuting(witnesses []map[string]bv.BV, goals [][2]*term.Term) (map[string]bv.BV, bool) {
	if len(witnesses) == 0 {
		return nil, false
	}
	for _, g := range goals {
		if g[0] == g[1] {
			continue
		}
		lp, rp := term.Compile(g[0]), term.Compile(g[1])
		lv, rv := lp.Vars(), rp.Vars()
		lvals := make([]bv.BV, len(lv))
		rvals := make([]bv.BV, len(rv))
		for _, w := range witnesses {
			for i, v := range lv {
				lvals[i] = witnessValue(w, v.Name, v.Width)
			}
			for i, v := range rv {
				rvals[i] = witnessValue(w, v.Name, v.Width)
			}
			if lp.Run(lvals) != rp.Run(rvals) {
				return w, true
			}
		}
	}
	return nil, false
}
