package sat

import (
	"testing"

	"iselgen/internal/bv"
)

func TestTrivial(t *testing.T) {
	s := New()
	a := s.NewVar()
	if !s.AddClause(LitOf(a, false)) {
		t.Fatal("unit clause made formula unsat")
	}
	st, model := s.SolveModel()
	if st != Sat {
		t.Fatalf("status = %v", st)
	}
	if !model[a] {
		t.Error("unit not propagated into model")
	}
}

func TestContradiction(t *testing.T) {
	s := New()
	a := s.NewVar()
	s.AddClause(LitOf(a, false))
	if s.AddClause(LitOf(a, true)) {
		t.Error("contradictory units not detected")
	}
	if st, _ := s.SolveModel(); st != Unsat {
		t.Errorf("status = %v", st)
	}
}

func TestImplicationChain(t *testing.T) {
	// x1 ∧ (¬x1∨x2) ∧ (¬x2∨x3) ∧ ... forces all true.
	s := New()
	const n = 50
	vs := make([]int, n)
	for i := range vs {
		vs[i] = s.NewVar()
	}
	s.AddClause(LitOf(vs[0], false))
	for i := 1; i < n; i++ {
		s.AddClause(LitOf(vs[i-1], true), LitOf(vs[i], false))
	}
	st, model := s.SolveModel()
	if st != Sat {
		t.Fatalf("status = %v", st)
	}
	for i, v := range vs {
		if !model[v] {
			t.Fatalf("x%d false in model", i)
		}
	}
	// Now force the last one false: unsat.
	s.AddClause(LitOf(vs[n-1], true))
	if st, _ := s.SolveModel(); st != Unsat {
		t.Errorf("status after contradiction = %v", st)
	}
}

// pigeonhole encodes PHP(n+1, n): n+1 pigeons into n holes. Unsat, and
// requires genuine conflict-driven search.
func pigeonhole(s *Solver, pigeons, holes int) {
	p := make([][]int, pigeons)
	for i := range p {
		p[i] = make([]int, holes)
		for j := range p[i] {
			p[i][j] = s.NewVar()
		}
	}
	for i := 0; i < pigeons; i++ {
		lits := make([]Lit, holes)
		for j := 0; j < holes; j++ {
			lits[j] = LitOf(p[i][j], false)
		}
		s.AddClause(lits...)
	}
	for j := 0; j < holes; j++ {
		for i := 0; i < pigeons; i++ {
			for k := i + 1; k < pigeons; k++ {
				s.AddClause(LitOf(p[i][j], true), LitOf(p[k][j], true))
			}
		}
	}
}

func TestPigeonholeUnsat(t *testing.T) {
	for n := 2; n <= 6; n++ {
		s := New()
		pigeonhole(s, n+1, n)
		if st, _ := s.SolveModel(); st != Unsat {
			t.Errorf("PHP(%d,%d) = %v, want unsat", n+1, n, st)
		}
	}
}

func TestPigeonholeSatWhenEnoughHoles(t *testing.T) {
	s := New()
	pigeonhole(s, 5, 5)
	st, model := s.SolveModel()
	if st != Sat {
		t.Fatalf("PHP(5,5) = %v, want sat", st)
	}
	if model == nil {
		t.Fatal("no model")
	}
}

func TestBudgetUnknown(t *testing.T) {
	s := New()
	pigeonhole(s, 9, 8) // hard enough to exceed a tiny budget
	s.MaxConflicts = 10
	if st, _ := s.SolveModel(); st != Unknown {
		t.Errorf("status = %v, want unknown under budget", st)
	}
}

// checkModel verifies a model against a clause list.
func checkModel(t *testing.T, clauses [][]Lit, model []bool) {
	t.Helper()
	for _, c := range clauses {
		ok := false
		for _, l := range c {
			if model[l.Var()] != l.Neg() {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("clause %v violated by model", c)
		}
	}
}

// bruteForce decides satisfiability of a small formula by enumeration.
func bruteForce(nVars int, clauses [][]Lit) bool {
	for m := 0; m < 1<<nVars; m++ {
		ok := true
		for _, c := range clauses {
			cok := false
			for _, l := range c {
				val := m>>(l.Var()-1)&1 == 1
				if val != l.Neg() {
					cok = true
					break
				}
			}
			if !cok {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// TestRandom3SATAgainstBruteForce fuzzes the solver on random small
// formulas and cross-checks both the verdict and the model.
func TestRandom3SATAgainstBruteForce(t *testing.T) {
	rng := bv.NewRNG(2024)
	for trial := 0; trial < 300; trial++ {
		nVars := 3 + rng.Intn(10)
		nClauses := 2 + rng.Intn(5*nVars)
		var clauses [][]Lit
		for i := 0; i < nClauses; i++ {
			width := 1 + rng.Intn(3)
			c := make([]Lit, width)
			for j := range c {
				c[j] = LitOf(1+rng.Intn(nVars), rng.Intn(2) == 1)
			}
			clauses = append(clauses, c)
		}
		s := New()
		for i := 0; i < nVars; i++ {
			s.NewVar()
		}
		ok := true
		for _, c := range clauses {
			if !s.AddClause(c...) {
				ok = false
				break
			}
		}
		want := bruteForce(nVars, clauses)
		if !ok {
			if want {
				t.Fatalf("trial %d: AddClause said unsat, brute force says sat", trial)
			}
			continue
		}
		st, model := s.SolveModel()
		if (st == Sat) != want {
			t.Fatalf("trial %d: solver %v, brute force sat=%v (%d vars, %d clauses)",
				trial, st, want, nVars, nClauses)
		}
		if st == Sat {
			checkModel(t, clauses, model)
		}
	}
}

// TestIncrementalReuse exercises solving repeatedly with growing clauses.
func TestIncrementalReuse(t *testing.T) {
	s := New()
	vs := make([]int, 10)
	for i := range vs {
		vs[i] = s.NewVar()
	}
	for i := 0; i < len(vs)-1; i++ {
		s.AddClause(LitOf(vs[i], true), LitOf(vs[i+1], false))
		if st, _ := s.SolveModel(); st != Sat {
			t.Fatalf("iteration %d unsat", i)
		}
	}
	s.AddClause(LitOf(vs[0], false))
	s.AddClause(LitOf(vs[len(vs)-1], true))
	if st, _ := s.SolveModel(); st != Unsat {
		t.Errorf("final = %v, want unsat", st)
	}
}

func TestLuby(t *testing.T) {
	want := []int64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(int64(i + 1)); got != w {
			t.Errorf("luby(%d) = %d, want %d", i+1, got, w)
		}
	}
}

func TestLitEncoding(t *testing.T) {
	l := LitOf(7, true)
	if l.Var() != 7 || !l.Neg() {
		t.Errorf("LitOf(7,true) = var %d neg %v", l.Var(), l.Neg())
	}
	if f := l.Flip(); f.Var() != 7 || f.Neg() {
		t.Errorf("flip = %v", f)
	}
	if l.String() != "-7" || l.Flip().String() != "7" {
		t.Errorf("strings: %q %q", l.String(), l.Flip().String())
	}
}

func TestClauseDBReduction(t *testing.T) {
	// Solve something with enough conflicts to trigger reduceDB; verify
	// the result is still correct afterwards.
	s := New()
	pigeonhole(s, 8, 7)
	if st, _ := s.SolveModel(); st != Unsat {
		t.Errorf("PHP(8,7) = %v, want unsat", st)
	}
	if s.Conflicts == 0 {
		t.Error("expected conflicts")
	}
}

// String names a verdict in test failure messages.
func (s Status) String() string {
	switch s {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	default:
		return "unknown"
	}
}
