// Package sat implements a CDCL (conflict-driven clause learning) SAT
// solver: two-watched-literal propagation, first-UIP conflict analysis
// with recursive clause minimization, exponential VSIDS branching with
// phase saving, Luby-sequence restarts, and activity-based learned-clause
// database reduction.
//
// Together with package bitblast it forms the reproduction's stand-in for
// Z3 (the paper's SMT backend): the paper only needs a decision procedure
// for quantifier-free fixed-width bitvector equivalence with a per-query
// timeout, which bit-blasting plus CDCL provides. The timeout is expressed
// as a deterministic conflict/propagation budget rather than wall-clock
// time so that experiments are reproducible.
package sat

import "fmt"

// Lit is a literal: variable index (1-based) shifted left once, low bit
// set for negation. LitOf(3, false) is "x3", LitOf(3, true) is "¬x3".
type Lit uint32

// LitOf returns the literal for variable v (1-based), negated if neg.
func LitOf(v int, neg bool) Lit {
	l := Lit(v) << 1
	if neg {
		l |= 1
	}
	return l
}

// Var returns the literal's variable (1-based).
func (l Lit) Var() int { return int(l >> 1) }

// Neg reports whether the literal is negated.
func (l Lit) Neg() bool { return l&1 == 1 }

// Flip returns the complementary literal.
func (l Lit) Flip() Lit { return l ^ 1 }

func (l Lit) String() string {
	if l.Neg() {
		return fmt.Sprintf("-%d", l.Var())
	}
	return fmt.Sprintf("%d", l.Var())
}

// Status is a solver verdict.
type Status int

// Solver verdicts. Unknown means the budget was exhausted.
const (
	Unknown Status = iota
	Sat
	Unsat
)

type lbool int8

const (
	lUndef lbool = iota
	lTrue
	lFalse
)

type clauseRef int32

const refNone clauseRef = -1

type clause struct {
	lits     []Lit
	activity float64
	learned  bool
}

type watcher struct {
	ref     clauseRef
	blocker Lit // cached literal; if true, no need to inspect the clause
}

type varData struct {
	reason   clauseRef
	level    int32
	phase    bool // saved phase: last assigned polarity
	activity float64
	seen     bool
	heapIdx  int32
}

// Solver is a CDCL SAT solver. The zero value is not usable; call New.
type Solver struct {
	clauses  []clause
	watches  [][]watcher // indexed by Lit
	assign   []lbool     // indexed by Lit; assign[l] is the value of literal l
	vars     []varData   // 1-based; vars[0] unused
	trail    []Lit
	trailLim []int // decision-level boundaries in trail
	qhead    int

	heap []int32 // max-heap of variable indices by activity

	varInc    float64
	clauseInc float64

	// Budget: a query stops with Unknown once Conflicts exceeds
	// MaxConflicts or Propagations exceeds MaxPropagations (if nonzero).
	MaxConflicts    int64
	MaxPropagations int64

	// Statistics.
	Conflicts    int64
	Decisions    int64
	Propagations int64
	Learned      int64
	Restarts     int64

	unsat bool // established at level 0
}

// New returns an empty solver.
func New() *Solver {
	s := &Solver{varInc: 1, clauseInc: 1}
	s.vars = make([]varData, 1)
	s.watches = make([][]watcher, 2)
	s.assign = make([]lbool, 2)
	return s
}

// NewVar allocates a fresh variable and returns its 1-based index.
func (s *Solver) NewVar() int {
	s.vars = append(s.vars, varData{reason: refNone, level: -1, heapIdx: -1})
	s.watches = append(s.watches, nil, nil)
	s.assign = append(s.assign, lUndef, lUndef)
	v := len(s.vars) - 1
	s.heapInsert(int32(v))
	return v
}

func (s *Solver) value(l Lit) lbool { return s.assign[l] }

func (s *Solver) level() int { return len(s.trailLim) }

// AddClause adds a clause over the given literals. Returns false if the
// formula is already unsatisfiable at level 0.
func (s *Solver) AddClause(lits ...Lit) bool {
	if s.unsat {
		return false
	}
	if s.level() != 0 {
		panic("sat: AddClause above decision level 0")
	}
	// Normalize: drop duplicate and false literals, detect tautologies.
	norm := lits[:0:0]
	for _, l := range lits {
		if l.Var() <= 0 || l.Var() >= len(s.vars) {
			panic(fmt.Sprintf("sat: literal %v references unallocated variable", l))
		}
		switch s.value(l) {
		case lTrue:
			return true // satisfied at level 0
		case lFalse:
			continue
		}
		dup := false
		for _, m := range norm {
			if m == l {
				dup = true
				break
			}
			if m == l.Flip() {
				return true // tautology
			}
		}
		if !dup {
			norm = append(norm, l)
		}
	}
	switch len(norm) {
	case 0:
		s.unsat = true
		return false
	case 1:
		s.uncheckedEnqueue(norm[0], refNone)
		if s.propagate() != refNone {
			s.unsat = true
			return false
		}
		return true
	}
	s.attachClause(norm, false)
	return true
}

func (s *Solver) attachClause(lits []Lit, learned bool) clauseRef {
	ref := clauseRef(len(s.clauses))
	s.clauses = append(s.clauses, clause{lits: lits, learned: learned})
	s.watches[lits[0].Flip()] = append(s.watches[lits[0].Flip()], watcher{ref, lits[1]})
	s.watches[lits[1].Flip()] = append(s.watches[lits[1].Flip()], watcher{ref, lits[0]})
	return ref
}

func (s *Solver) uncheckedEnqueue(l Lit, from clauseRef) {
	vd := &s.vars[l.Var()]
	s.assign[l] = lTrue
	s.assign[l.Flip()] = lFalse
	vd.phase = !l.Neg()
	vd.reason = from
	vd.level = int32(s.level())
	s.trail = append(s.trail, l)
}

// propagate performs unit propagation; returns the conflicting clause or
// refNone.
func (s *Solver) propagate() clauseRef {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.Propagations++
		ws := s.watches[p]
		kept := ws[:0]
		conflict := refNone
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			if s.value(w.blocker) == lTrue {
				kept = append(kept, w)
				continue
			}
			c := &s.clauses[w.ref]
			lits := c.lits
			// Ensure the false literal (p.Flip()) is at position 1.
			if lits[0] == p.Flip() {
				lits[0], lits[1] = lits[1], lits[0]
			}
			first := lits[0]
			if first != w.blocker && s.value(first) == lTrue {
				kept = append(kept, watcher{w.ref, first})
				continue
			}
			// Look for a new literal to watch.
			found := false
			for k := 2; k < len(lits); k++ {
				if s.value(lits[k]) != lFalse {
					lits[1], lits[k] = lits[k], lits[1]
					s.watches[lits[1].Flip()] = append(s.watches[lits[1].Flip()], watcher{w.ref, first})
					found = true
					break
				}
			}
			if found {
				continue
			}
			// Clause is unit or conflicting.
			kept = append(kept, watcher{w.ref, first})
			if s.value(first) == lFalse {
				conflict = w.ref
				// Copy remaining watchers and bail out.
				kept = append(kept, ws[i+1:]...)
				s.qhead = len(s.trail)
				break
			}
			s.uncheckedEnqueue(first, w.ref)
		}
		s.watches[p] = kept
		if conflict != refNone {
			return conflict
		}
	}
	return refNone
}

// analyze computes the first-UIP learned clause from a conflict; returns
// the clause (asserting literal first) and the backtrack level.
func (s *Solver) analyze(conflict clauseRef) ([]Lit, int) {
	learnt := []Lit{0} // slot 0 reserved for the asserting literal
	counter := 0
	idx := len(s.trail) - 1
	var p Lit
	var cleanup []int

	ref := conflict
	for {
		c := &s.clauses[ref]
		if c.learned {
			s.bumpClause(ref)
		}
		start := 0
		if p != 0 {
			start = 1 // skip the asserting literal slot of a reason clause
		}
		for _, q := range c.lits[start:] {
			if p != 0 && q == p {
				continue
			}
			vd := &s.vars[q.Var()]
			if vd.seen || vd.level == 0 {
				continue
			}
			vd.seen = true
			cleanup = append(cleanup, q.Var())
			s.bumpVar(q.Var())
			if int(vd.level) >= s.level() {
				counter++
			} else {
				learnt = append(learnt, q)
			}
		}
		// Select next literal from the trail.
		for !s.vars[s.trail[idx].Var()].seen {
			idx--
		}
		p = s.trail[idx]
		idx--
		s.vars[p.Var()].seen = false
		counter--
		if counter <= 0 {
			break
		}
		ref = s.vars[p.Var()].reason
	}
	learnt[0] = p.Flip()

	// Recursive minimization: drop literals implied by the rest.
	j := 1
	for i := 1; i < len(learnt); i++ {
		if !s.redundant(learnt[i]) {
			learnt[j] = learnt[i]
			j++
		}
	}
	learnt = learnt[:j]

	for _, v := range cleanup {
		s.vars[v].seen = false
	}

	btLevel := 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.vars[learnt[i].Var()].level > s.vars[learnt[maxI].Var()].level {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		btLevel = int(s.vars[learnt[1].Var()].level)
	}
	return learnt, btLevel
}

// redundant reports whether literal l of a learned clause is implied by
// the remaining seen literals (one-step self-subsumption).
func (s *Solver) redundant(l Lit) bool {
	ref := s.vars[l.Var()].reason
	if ref == refNone {
		return false
	}
	for _, q := range s.clauses[ref].lits[1:] {
		vd := &s.vars[q.Var()]
		if q != l.Flip() && !vd.seen && vd.level > 0 {
			return false
		}
	}
	return true
}

func (s *Solver) backtrack(level int) {
	if s.level() <= level {
		return
	}
	limit := s.trailLim[level]
	for i := len(s.trail) - 1; i >= limit; i-- {
		l := s.trail[i]
		v := l.Var()
		s.assign[l] = lUndef
		s.assign[l.Flip()] = lUndef
		s.vars[v].reason = refNone
		if s.vars[v].heapIdx < 0 {
			s.heapInsert(int32(v))
		}
	}
	s.trail = s.trail[:limit]
	s.trailLim = s.trailLim[:level]
	s.qhead = limit
}

// --- VSIDS activity ---

const rescaleLimit = 1e100

func (s *Solver) bumpVar(v int) {
	s.vars[v].activity += s.varInc
	if s.vars[v].activity > rescaleLimit {
		for i := 1; i < len(s.vars); i++ {
			s.vars[i].activity *= 1 / rescaleLimit
		}
		s.varInc *= 1 / rescaleLimit
	}
	if s.vars[v].heapIdx >= 0 {
		s.heapUp(s.vars[v].heapIdx)
	}
}

func (s *Solver) bumpClause(ref clauseRef) {
	c := &s.clauses[ref]
	c.activity += s.clauseInc
	if c.activity > rescaleLimit {
		for i := range s.clauses {
			s.clauses[i].activity *= 1 / rescaleLimit
		}
		s.clauseInc *= 1 / rescaleLimit
	}
}

func (s *Solver) decayActivities() {
	s.varInc *= 1 / 0.95
	s.clauseInc *= 1 / 0.999
}

// --- binary max-heap over variable activity ---

func (s *Solver) heapLess(a, b int32) bool {
	return s.vars[a].activity > s.vars[b].activity
}

func (s *Solver) heapInsert(v int32) {
	s.vars[v].heapIdx = int32(len(s.heap))
	s.heap = append(s.heap, v)
	s.heapUp(s.vars[v].heapIdx)
}

func (s *Solver) heapUp(i int32) {
	v := s.heap[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !s.heapLess(v, s.heap[parent]) {
			break
		}
		s.heap[i] = s.heap[parent]
		s.vars[s.heap[i]].heapIdx = i
		i = parent
	}
	s.heap[i] = v
	s.vars[v].heapIdx = i
}

func (s *Solver) heapDown(i int32) {
	v := s.heap[i]
	n := int32(len(s.heap))
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if child+1 < n && s.heapLess(s.heap[child+1], s.heap[child]) {
			child++
		}
		if !s.heapLess(s.heap[child], v) {
			break
		}
		s.heap[i] = s.heap[child]
		s.vars[s.heap[i]].heapIdx = i
		i = child
	}
	s.heap[i] = v
	s.vars[v].heapIdx = i
}

func (s *Solver) heapPop() int32 {
	top := s.heap[0]
	s.vars[top].heapIdx = -1
	last := s.heap[len(s.heap)-1]
	s.heap = s.heap[:len(s.heap)-1]
	if len(s.heap) > 0 {
		s.heap[0] = last
		s.vars[last].heapIdx = 0
		s.heapDown(0)
	}
	return top
}

func (s *Solver) pickBranchVar() int {
	for len(s.heap) > 0 {
		v := s.heapPop()
		if s.assign[Lit(v)<<1] == lUndef {
			return int(v)
		}
	}
	return 0
}

// --- learned clause DB reduction ---

func (s *Solver) reduceDB() {
	// Partition learned clauses by activity; remove the lazier half.
	var acts []float64
	for _, c := range s.clauses {
		if c.learned && len(c.lits) > 2 {
			acts = append(acts, c.activity)
		}
	}
	if len(acts) < 100 {
		return
	}
	// Median via nth-element (simple quickselect).
	median := quickselect(acts, len(acts)/2)

	locked := func(ref clauseRef) bool {
		c := &s.clauses[ref]
		l := c.lits[0]
		return s.value(l) == lTrue && s.vars[l.Var()].reason == ref
	}

	remap := make([]clauseRef, len(s.clauses))
	var newClauses []clause
	for i, c := range s.clauses {
		ref := clauseRef(i)
		if c.learned && len(c.lits) > 2 && c.activity < median && !locked(ref) {
			remap[i] = refNone
			continue
		}
		remap[i] = clauseRef(len(newClauses))
		newClauses = append(newClauses, c)
	}
	s.clauses = newClauses
	// Rebuild watches and fix reasons.
	for i := range s.watches {
		s.watches[i] = s.watches[i][:0]
	}
	for i, c := range s.clauses {
		ref := clauseRef(i)
		s.watches[c.lits[0].Flip()] = append(s.watches[c.lits[0].Flip()], watcher{ref, c.lits[1]})
		s.watches[c.lits[1].Flip()] = append(s.watches[c.lits[1].Flip()], watcher{ref, c.lits[0]})
	}
	for i := 1; i < len(s.vars); i++ {
		if r := s.vars[i].reason; r != refNone {
			s.vars[i].reason = remap[r]
		}
	}
}

func quickselect(a []float64, k int) float64 {
	lo, hi := 0, len(a)-1
	for lo < hi {
		pivot := a[(lo+hi)/2]
		i, j := lo, hi
		for i <= j {
			for a[i] < pivot {
				i++
			}
			for a[j] > pivot {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		if k <= j {
			hi = j
		} else if k >= i {
			lo = i
		} else {
			break
		}
	}
	return a[k]
}

// luby returns the i-th element (1-based) of the Luby restart sequence.
func luby(i int64) int64 {
	for k := int64(1); ; k++ {
		if i == (1<<k)-1 {
			return 1 << (k - 1)
		}
		if i >= 1<<(k-1) && i < (1<<k)-1 {
			return luby(i - (1 << (k - 1)) + 1)
		}
	}
}

// valueOf reads the model value of variable v before backtracking.
func (s *Solver) valueOf(v int) bool { return s.assign[Lit(v)<<1] == lTrue }

// SolveModel runs the CDCL loop and returns the verdict and, on Sat, the
// satisfying assignment (index 0 unused).
func (s *Solver) SolveModel() (Status, []bool) {
	if s.unsat {
		return Unsat, nil
	}
	st := s.run()
	if st != Sat {
		s.backtrack(0)
		return st, nil
	}
	model := make([]bool, len(s.vars))
	for v := 1; v < len(s.vars); v++ {
		model[v] = s.valueOf(v)
	}
	s.backtrack(0)
	return Sat, model
}

// run is the CDCL main loop. It does not backtrack on return so that
// SolveModel can read the model first.
func (s *Solver) run() Status {
	restartNum := int64(1)
	conflictsUntilRestart := luby(restartNum) * 100
	conflictsUntilReduce := int64(2000)
	conflictsAtStart := s.Conflicts
	propsAtStart := s.Propagations

	for {
		conflict := s.propagate()
		if conflict != refNone {
			s.Conflicts++
			if s.level() == 0 {
				s.unsat = true
				return Unsat
			}
			learnt, btLevel := s.analyze(conflict)
			s.backtrack(btLevel)
			if len(learnt) == 1 {
				if s.level() != 0 {
					s.backtrack(0)
				}
				if s.value(learnt[0]) == lFalse {
					s.unsat = true
					return Unsat
				}
				if s.value(learnt[0]) == lUndef {
					s.uncheckedEnqueue(learnt[0], refNone)
				}
			} else {
				ref := s.attachClause(learnt, true)
				s.Learned++
				s.bumpClause(ref)
				if s.value(learnt[0]) == lUndef {
					s.uncheckedEnqueue(learnt[0], ref)
				}
			}
			s.decayActivities()
			if s.MaxConflicts > 0 && s.Conflicts-conflictsAtStart >= s.MaxConflicts {
				return Unknown
			}
			conflictsUntilRestart--
			conflictsUntilReduce--
			continue
		}
		if s.MaxPropagations > 0 && s.Propagations-propsAtStart >= s.MaxPropagations {
			return Unknown
		}
		if conflictsUntilRestart <= 0 {
			restartNum++
			s.Restarts++
			conflictsUntilRestart = luby(restartNum) * 100
			s.backtrack(0)
			continue
		}
		if conflictsUntilReduce <= 0 {
			conflictsUntilReduce = 2000
			if s.level() == 0 {
				s.reduceDB()
			}
		}
		v := s.pickBranchVar()
		if v == 0 {
			return Sat
		}
		s.Decisions++
		s.trailLim = append(s.trailLim, len(s.trail))
		s.uncheckedEnqueue(LitOf(v, !s.vars[v].phase), refNone)
	}
}
