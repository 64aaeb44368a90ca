// Package smt provides the equivalence oracle used as the synthesis
// fallback (paper §V-C): it decides whether two bitvector terms agree on
// all inputs, by bit-blasting the inequality and checking unsatisfiability
// with the CDCL solver.
//
// Memory effects follow the paper's single-memory-operation discipline
// (§IV-A rule 3). Loads on the two sides are paired up: equivalence
// requires the paired addresses to be provably equal, after which both
// load results are replaced by one shared fresh variable (functional
// consistency for a single application of the load symbol). Store effects
// must pair structurally: value and address are proven equal component-wise.
//
// Queries carry a deterministic budget (conflict count) standing in for
// the paper's 500 ms Z3 timeout, so experiment results are reproducible
// across machines.
package smt

import (
	"errors"
	"fmt"
	"time"

	"iselgen/internal/bitblast"
	"iselgen/internal/bv"
	"iselgen/internal/canon"
	"iselgen/internal/obs"
	"iselgen/internal/sat"
	"iselgen/internal/term"
)

// Result is a three-valued equivalence verdict.
type Result int

// Equivalence verdicts. NotEqual carries no counterexample here; a
// memo, when attached, stores the separating assignment.
const (
	Unknown Result = iota
	Equal
	NotEqual
)

func (r Result) String() string {
	switch r {
	case Equal:
		return "equal"
	case NotEqual:
		return "not-equal"
	default:
		return "unknown"
	}
}

// Stats accumulates query statistics across a Checker's lifetime,
// including the SAT-core work counters (decisions, propagations,
// conflicts, restarts) summed over every query the checker ran.
type Stats struct {
	Queries   int64
	Proved    int64
	Refuted   int64
	TimedOut  int64
	Conflicts int64

	Decisions    int64
	Propagations int64
	Restarts     int64
	SolveTime    time.Duration

	// Counterexample-screen counters: CexScreens is how many memo misses
	// were evaluated against the memo's stored witnesses, CexHits how many
	// a witness refuted.
	CexScreens int64
	CexHits    int64

	// Memo counters: MemoHits is how many queries a stored verdict
	// answered (after passing the trust policy); BitBlasts is how many
	// queries actually reached circuit construction — the number the
	// warm-resynthesis acceptance gate drives to zero.
	MemoHits  int64
	BitBlasts int64
}

// Checker decides term equivalence. The zero value uses a default budget.
type Checker struct {
	// MaxConflicts bounds the CDCL search per query; 0 means the default
	// (200000 conflicts, roughly the work Z3 does in the paper's 500 ms).
	MaxConflicts int64
	Stats        Stats
	// Obs, when set, receives per-query provenance events (result,
	// duration, SAT work counters) and latency histogram observations.
	// Context labels the events with the caller's purpose.
	Obs     *obs.Obs
	Context string
	// Memo, when set, is consulted with a content-addressed key of the
	// query, and every settled verdict is stored back. Trust is guarded by
	// SpecFP (see memo.go): Equal and budget Unknowns replay only under a
	// matching fingerprint; NotEqual degrades to a concrete witness replay
	// otherwise. On a miss, the query is screened against the memo's
	// stored witnesses before any bit-blasting (see cex.go); without a
	// memo there is no screen.
	Memo Memo
	// SpecFP fingerprints the specification the checker's queries are
	// proved against (core derives it from every target instruction's
	// effect fingerprint). Stored with each memo entry and compared on
	// lookup; empty disables fingerprint-guarded trust entirely, leaving
	// only the witness-replay path.
	SpecFP string

	// Memo key derivation state: a lazily created canonicalization
	// context plus a per-CTerm digest cache (memo.go).
	memoCtx *canon.Ctx
	memoDig map[*canon.CTerm][32]byte
}

// defaultMaxConflicts bounds one query at roughly the work a tuned SMT
// solver performs in the paper's 500 ms timeout. Queries the CDCL core
// cannot settle in this budget (notably wide-multiplier equivalences,
// which Z3 also resolves by rewriting rather than search) return Unknown
// and the synthesis pipeline simply skips the candidate — the same
// consequence a Z3 timeout has in the paper.
const defaultMaxConflicts = 60000

// Equiv reports whether lhs and rhs (terms from builder b) are equal for
// all variable assignments. Both must have the same width.
func (c *Checker) Equiv(b *term.Builder, lhs, rhs *term.Term) Result {
	c.Stats.Queries++
	if lhs.W() != rhs.W() {
		return NotEqual
	}
	if lhs == rhs {
		c.Stats.Proved++
		return Equal
	}

	// Stores must pair at the root.
	if (lhs.Op == term.Store) != (rhs.Op == term.Store) {
		c.Stats.Refuted++
		return NotEqual
	}

	var goals [][2]*term.Term
	if lhs.Op == term.Store {
		if lhs.Aux0 != rhs.Aux0 {
			c.Stats.Refuted++
			return NotEqual
		}
		goals = append(goals,
			[2]*term.Term{lhs.Args[0], rhs.Args[0]}, // addresses
			[2]*term.Term{lhs.Args[1], rhs.Args[1]}, // values
		)
	} else {
		goals = append(goals, [2]*term.Term{lhs, rhs})
	}

	// Pair loads across the two sides.
	lloads := collectLoads(goals, 0)
	rloads := collectLoads(goals, 1)
	if len(lloads) != len(rloads) {
		// The paper's candidate filter requires load counts to match;
		// a mismatch here cannot be proven equal by our encoding.
		return Unknown
	}
	subst := map[*term.Term]*term.Term{}
	for i := range lloads {
		if lloads[i].W() != rloads[i].W() {
			return Unknown
		}
		// The width is part of the name: the caller's builder outlives
		// this query, and a later query's i-th load may be narrower or
		// wider.
		v := b.VarT(fmt.Sprintf("!load%d_%d", i, lloads[i].W()), term.KindReg, lloads[i].W())
		subst[lloads[i]] = v
		subst[rloads[i]] = v
		// Addresses must be provably equal too.
		goals = append(goals, [2]*term.Term{lloads[i].Args[0], rloads[i].Args[0]})
	}
	if len(subst) > 0 {
		for i := range goals {
			goals[i][0] = b.Rebuild(goals[i][0], subst)
			goals[i][1] = b.Rebuild(goals[i][1], subst)
		}
	}

	budget := c.MaxConflicts
	if budget == 0 {
		budget = defaultMaxConflicts
	}

	// Memo consult: an identical query settled earlier — this process or
	// a previous one, any worker — replays its verdict without a screen
	// or a single clause, subject to the trust policy in memo.go.
	var mkey string
	if c.Memo != nil {
		mkey = c.memoKey(goals)
		if e, ok := c.Memo.Lookup(mkey); ok {
			if res, trusted := c.memoTrusted(e, budget, goals); trusted {
				c.Stats.MemoHits++
				switch res {
				case Equal:
					c.Stats.Proved++
				case NotEqual:
					c.Stats.Refuted++
				default:
					c.Stats.TimedOut++
				}
				if c.Obs != nil {
					if m := c.Obs.Metrics; m != nil {
						m.Counter("memo_hits", "equivalence queries answered by the memoized verdict store").Add(1)
					}
				}
				return res
			}
		}

		// Counterexample screen (CEGIS instantiation reuse): a stored
		// witness that concretely separates some goal pair is exactly a
		// satisfying assignment of the inequality below — return NotEqual
		// without building a single clause. Goals are load-free here (loads
		// were substituted above), so concrete evaluation is total.
		c.Stats.CexScreens++
		cexVals, hit := refuting(c.Memo.Witnesses(), goals)
		if c.Obs != nil {
			if m := c.Obs.Metrics; m != nil {
				m.Counter("cex_screens", "candidate pairs screened against cached counterexamples").Add(1)
				if hit {
					m.Counter("cex_cache_hits", "equivalence queries refuted by a cached counterexample").Add(1)
				}
			}
		}
		if hit {
			c.Stats.CexHits++
			c.Stats.Refuted++
			// Persist the refutation: the screen's witness is a full
			// NotEqual verdict, and storing it is what lets a warm run
			// skip the screen entirely.
			c.memoStore(mkey, MemoEntry{Verdict: NotEqual, Budget: budget, Cex: cexVals})
			return NotEqual
		}
	}

	// UNSAT of "some goal differs" proves equivalence of all goals.
	// AddClause propagates units eagerly, so the work counters read below
	// include clause construction, not just Solve.
	s := sat.New()
	s.MaxConflicts = budget
	bb := bitblast.New(s)
	c.Stats.BitBlasts++
	var diffs []sat.Lit
	for _, g := range goals {
		if g[0] == g[1] {
			continue
		}
		lb, err := bb.Blast(g[0])
		if err != nil {
			return c.memoUnsupported(mkey, err)
		}
		rb, err := bb.Blast(g[1])
		if err != nil {
			return c.memoUnsupported(mkey, err)
		}
		diffs = append(diffs, bb.DistinctLit(lb, rb))
	}
	if len(diffs) == 0 {
		c.Stats.Proved++
		c.memoStore(mkey, MemoEntry{Verdict: Equal, Budget: budget})
		return Equal
	}
	s.AddClause(diffs...)
	t0 := time.Now()
	st, model := s.SolveModel()
	dur := time.Since(t0)
	conf, dec, prop, rest := s.Conflicts, s.Decisions, s.Propagations, s.Restarts
	c.Stats.Conflicts += conf
	c.Stats.Decisions += dec
	c.Stats.Propagations += prop
	c.Stats.Restarts += rest
	c.Stats.SolveTime += dur

	var res Result
	switch st {
	case sat.Unsat:
		c.Stats.Proved++
		res = Equal
		c.memoStore(mkey, MemoEntry{Verdict: Equal, Budget: budget, Conflicts: conf, SolveTimeNS: dur.Nanoseconds()})
	case sat.Sat:
		c.Stats.Refuted++
		vals := modelAssignment(bb, model, goals)
		res = NotEqual
		c.memoStore(mkey, MemoEntry{Verdict: NotEqual, Budget: budget, Cex: vals, Conflicts: conf, SolveTimeNS: dur.Nanoseconds()})
	default:
		c.Stats.TimedOut++
		res = Unknown
		// A budget exhaustion is itself deterministic, so it is worth
		// memoizing: a warm run under the same (or a smaller) budget
		// would only burn the same conflicts to learn the same nothing.
		c.memoStore(mkey, MemoEntry{Verdict: Unknown, Budget: budget, Conflicts: conf, SolveTimeNS: dur.Nanoseconds()})
	}
	if c.Obs != nil {
		c.Obs.Prov.AddSMT(obs.SMTQuery{
			Context:      c.Context,
			Result:       res.String(),
			DurNS:        dur.Nanoseconds(),
			Decisions:    dec,
			Conflicts:    conf,
			Propagations: prop,
			Restarts:     rest,
		})
		if m := c.Obs.Metrics; m != nil {
			m.Histogram("smt_query_duration_ns",
				"per-SMT-query solve latency", "result", res.String()).Observe(dur.Nanoseconds())
		}
	}
	return res
}

// modelAssignment extracts the satisfying assignment for every variable
// of the goal terms from a SAT model — the counterexample that refuted
// the query, in name→value form reusable by later screens.
func modelAssignment(bb *bitblast.Blaster, model []bool, goals [][2]*term.Term) map[string]bv.BV {
	if model == nil {
		return nil
	}
	vals := map[string]bv.BV{}
	for _, g := range goals {
		if g[0] == g[1] {
			// Not blasted (skipped above); its vars have no model bits.
			continue
		}
		for _, side := range g {
			for _, v := range side.Vars() {
				if _, ok := vals[v.Name]; ok {
					continue
				}
				bits := bb.VarBits(v.Name, v.W())
				lo := bitblast.ModelValue(model, bits)
				var hi uint64
				if v.W() > 64 {
					hi = bitblast.ModelValue(model, bits[64:])
				}
				vals[v.Name] = bvNew(v.W(), hi, lo)
			}
		}
	}
	return vals
}

func (c *Checker) unsupported(err error) Result {
	if errors.Is(err, bitblast.ErrUnsupported) {
		return Unknown
	}
	panic(err)
}

// memoUnsupported records a structural Unknown (an operator the blaster
// cannot encode) before returning it: unlike a budget exhaustion it
// holds under any budget, so it is stored with UnsupportedBudget and a
// warm run skips the doomed blast attempt entirely.
func (c *Checker) memoUnsupported(mkey string, err error) Result {
	res := c.unsupported(err)
	c.memoStore(mkey, MemoEntry{Verdict: Unknown, Budget: UnsupportedBudget})
	return res
}

func collectLoads(goals [][2]*term.Term, side int) []*term.Term {
	var out []*term.Term
	seen := map[*term.Term]bool{}
	for _, g := range goals {
		for _, l := range g[side].Loads() {
			if !seen[l] {
				seen[l] = true
				out = append(out, l)
			}
		}
	}
	return out
}
