package core

import (
	"fmt"
	"time"

	"iselgen/internal/bv"
	"iselgen/internal/pattern"
	"iselgen/internal/term"
)

// PrecheckCounts tallies a CheckPrecheck run: the (pattern, entry,
// assignment) triples visited and how many of them precheck rejected.
type PrecheckCounts struct{ Visited, Rejected int }

// CheckPrecheck visits every (pattern, entry, assignment) the SMT
// fallback can reach for pats — each pattern's whole filter bucket, not
// only the entries before its first verified rule — and fails on the
// first triple whose precheck rejects a candidate the full probe
// accepts. Each pattern keeps one memo across its bucket, as in the
// fallback.
func (s *Synthesizer) CheckPrecheck(pats []*pattern.Pattern) (PrecheckCounts, error) {
	var n PrecheckCounts
	w := s.newWorker()
	var d time.Duration
	for _, p := range pats {
		tp, err := p.Compile(w.wb)
		if err != nil {
			continue
		}
		leaves := p.Leaves()
		key, regLeaves, immLeaves := patternFilterKey(p, tp, leaves)
		pp := newPatternProbe(tp, leaves)
		asg := make([]int, len(leaves))
		for _, entry := range s.byFilter[key] {
			forEachAssignment(leaves, regLeaves, immLeaves, entry, asg, func() bool {
				n.Visited++
				if w.precheck(pp, entry, asg, &d) {
					return false
				}
				n.Rejected++
				if w.probeRun(pp, entry, asg, &d) {
					err = fmt.Errorf("pattern %s, entry %s, assignment %v: precheck rejects what the probe accepts",
						p.Key(), entry.Seq, asg)
					return true
				}
				return false
			})
			if err != nil {
				return n, err
			}
		}
	}
	return n, nil
}

// CheckVector0 compares, for every pool entry, the digest the shared
// vector-0 evaluator gives with the one the entry's compiled program
// gives on the same vector, and reports how many entries it compared.
func (s *Synthesizer) CheckVector0() (int, error) {
	ic, v0 := newInputCache(s.Cfg.TestInputs), newVector0()
	for _, e := range s.Pool {
		got, ok := v0.digest(e.Effect.T, ic)
		if !ok {
			return 0, fmt.Errorf("entry %s: a variable name is bound at two widths", e.Seq)
		}
		p := term.Compile(e.Effect.T)
		vals := make([]bv.BV, len(p.Vars()))
		for i, v := range p.Vars() {
			r := ic.vecs(nameHash(v.Name))[0]
			vals[i] = bv.New128(v.Width, r.Hi, r.Lo)
		}
		if want := digest(p.Run(vals)); got != want {
			return 0, fmt.Errorf("entry %s: vector-0 digest %x, compiled program gives %x", e.Seq, got, want)
		}
	}
	return len(s.Pool), nil
}
