package smt

import (
	"slices"
	"testing"

	"iselgen/internal/bv"
	"iselgen/internal/term"
)

// differs reports whether some goal pair evaluates to different values
// under env: the miter the checker asks the solver to satisfy.
func differs(goals [][2]*term.Term, env *term.Env) bool {
	for _, g := range goals {
		if g[0].Eval(env) != g[1].Eval(env) {
			return true
		}
	}
	return false
}

// TestSimplifyExact enumerates every assignment of small-width variables
// and checks that each rewritten miter differs exactly where its original
// does, that each rewrite fires where it should, and that pairs no
// rewrite applies to come back untouched.
func TestSimplifyExact(t *testing.T) {
	b := term.NewBuilder()
	// Two 4-bit operands feed the conditions; two 3-bit values are the
	// select arms. Enumerating all of them covers x == y (arms equal in
	// value) as well as every condition outcome.
	p, q := b.Reg("p", 4), b.Reg("q", 4)
	x, y := b.Reg("x", 3), b.Reg("y", 3)
	vars := []*term.Term{p, q, x, y}

	lt, eq, slt := b.Ult(p, q), b.Eq(p, q), b.Slt(p, q)
	sum, or := b.Add(p, q), b.Or(p, q)
	sel := func(c, u, v *term.Term) *term.Term { return b.Ite(c, u, v) }
	addr := func(v *term.Term) *term.Term { return b.ZExt(64, v) }

	cases := []struct {
		name     string
		lhs, rhs *term.Term
		fires    []Rewrite // rewrites expected to fire, in any order
	}{
		{"shared arms", sel(lt, x, y), sel(eq, x, y), []Rewrite{IteCond}},
		{"swapped arms", sel(lt, x, y), sel(eq, y, x), []Rewrite{IteCond}},
		{"negated condition", sel(b.Not(lt), x, y), sel(slt, x, y), []Rewrite{IteCond}},
		{"mirrored select", sel(lt, x, y), sel(b.Not(lt), y, x), []Rewrite{IteCond}},
		{"1-bit arms", sel(lt, eq, slt), sel(slt, eq, slt), []Rewrite{IteCond}},
		{"zext", b.ZExt(6, sum), b.ZExt(6, or), []Rewrite{PeelZExt}},
		{"sext", b.SExt(6, sum), b.SExt(6, or), []Rewrite{PeelSExt}},
		{"bvnot", b.Not(sum), b.Not(or), []Rewrite{PeelNot}},
		{"zext of compare", b.ZExt(4, lt), b.ZExt(4, slt), []Rewrite{PeelZExt}},
		{"nested wrappers", b.ZExt(8, b.SExt(6, b.Not(sum))), b.ZExt(8, b.SExt(6, b.Not(or))),
			[]Rewrite{PeelZExt, PeelSExt, PeelNot}},
		{"wrapped select", b.ZExt(5, b.Not(sel(lt, x, y))), b.ZExt(5, b.Not(sel(eq, y, x))),
			[]Rewrite{PeelZExt, PeelNot, IteCond}},
		{"store", b.Store(addr(sum), sel(lt, x, y)), b.Store(addr(or), sel(eq, x, y)),
			[]Rewrite{PeelZExt, IteCond}},
		{"store, equal addresses", b.Store(addr(sum), b.ZExt(4, x)), b.Store(addr(sum), b.ZExt(4, y)),
			[]Rewrite{PeelZExt}},
		// Left as they are: not injective in the differing argument, or
		// selects whose arms are not the same pair.
		{"extract", b.Extract(2, 1, sum), b.Extract(2, 1, or), nil},
		{"and", b.And(sum, p), b.And(or, p), nil},
		{"mul", b.Mul(sum, q), b.Mul(or, q), nil},
		{"zext of unequal widths", b.ZExt(6, sum), b.ZExt(6, x), nil},
		{"unrelated arms", sel(lt, x, y), sel(eq, x, b.Not(y)), nil},
	}

	env := term.NewEnv()
	for _, tc := range cases {
		orig, res := miterGoals(b, tc.lhs, tc.rhs)
		if orig == nil {
			t.Fatalf("%s: no goals (%v)", tc.name, res)
		}
		c := &Checker{}
		got := c.simplify(b, slices.Clone(orig))

		var want [numRewrites]int64
		for _, rw := range tc.fires {
			want[rw]++
		}
		if c.Stats.Rewrites != want {
			t.Errorf("%s: rewrites fired %v, want %v", tc.name, c.Stats.Rewrites, want)
		}
		if tc.fires == nil && !slices.Equal(got, orig) {
			t.Errorf("%s: rewritten to %v, want it left as it is", tc.name, got)
		}
		for _, g := range got {
			if g[0] == g[1] {
				t.Errorf("%s: kept a goal whose sides are the same term: %s", tc.name, g[0])
			}
		}

		for n := uint64(0); n < 1<<14; n++ {
			shift := 0
			for _, v := range vars {
				env.Bind(v.Name, bv.New(v.W(), n>>shift))
				shift += v.W()
			}
			if o, s := differs(orig, env), differs(got, env); o != s {
				t.Fatalf("%s: under p=%s q=%s x=%s y=%s the original differs=%t, the rewritten %t\noriginal:  %v\nrewritten: %v",
					tc.name, env.Vals["p"], env.Vals["q"], env.Vals["x"], env.Vals["y"], o, s, orig, got)
			}
		}
	}
}

// TestSimplifyEquivVerdicts: the checker's verdict on a rewritten query is
// the verdict the enumeration above implies, and a refutation's stored
// witness separates the original pair.
func TestSimplifyEquivVerdicts(t *testing.T) {
	b := term.NewBuilder()
	p, q := b.Reg("p", 32), b.Reg("q", 32)
	x, y := b.Reg("x", 64), b.Reg("y", 64)
	lt := b.Ult(p, q)
	cases := []struct {
		name     string
		lhs, rhs *term.Term
		want     Result
	}{
		{"select, conditions agree", b.Ite(lt, x, y), b.Ite(b.Not(b.Ult(p, q)), y, x), Equal},
		{"select, rewritten condition", b.Ite(b.Eq(p, q), x, y), b.Ite(b.Eq(b.Sub(p, q), b.Const(32, 0)), x, y), Equal},
		{"select, conditions differ", b.Ite(lt, x, y), b.Ite(b.Slt(p, q), x, y), NotEqual},
		{"cset, conditions differ", b.ZExt(64, b.Not(lt)), b.ZExt(64, b.Ult(q, p)), NotEqual},
		{"cset, rewritten condition", b.ZExt(32, b.Eq(p, q)), b.ZExt(32, b.Eq(b.Xor(p, q), b.Const(32, 0))), Equal},
	}
	for _, tc := range cases {
		memo := newMapMemo()
		c := &Checker{Memo: memo}
		if got := c.Equiv(b, tc.lhs, tc.rhs); got != tc.want {
			t.Errorf("%s: %v, want %v", tc.name, got, tc.want)
			continue
		}
		if tc.want != NotEqual {
			continue
		}
		ws := memo.Witnesses()
		if len(ws) != 1 {
			t.Fatalf("%s: %d stored witnesses, want 1", tc.name, len(ws))
		}
		if _, ok := refuting(ws, [][2]*term.Term{{tc.lhs, tc.rhs}}); !ok {
			t.Errorf("%s: the stored witness %v does not separate the original pair", tc.name, ws[0])
		}
	}
}
