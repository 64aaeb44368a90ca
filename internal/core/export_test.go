package core

import (
	"fmt"
	"time"

	"iselgen/internal/pattern"
)

// PrecheckCounts tallies a CheckPrecheck run: the (pattern, entry,
// assignment) triples visited, how many of them precheck rejected, and
// how many of those rejections came after the first usable vector
// compared equal.
type PrecheckCounts struct{ Visited, Rejected, RejectedLater int }

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
				lv := pp.lead[inputKeyOf(entry, asg)]
				if lv.n > 1 && entry.evals[lv.j[0]] == lv.d[0] {
					n.RejectedLater++
				}
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

// VectorMemoCounts tallies a CheckVectorMemos run: the (entry, vector)
// digests compared, and the entries that compiled a program instead of
// evaluating under the vector memos.
type VectorMemoCounts struct{ Compared, Compiled int }

// CheckVectorMemos asks every pool entry, in pool order and under one
// worker's vector memos, for its digests on the memoized vectors, and
// compares each with the digest the entry's compiled program gives on
// the same vector.
func (s *Synthesizer) CheckVectorMemos() (VectorMemoCounts, error) {
	var n VectorMemoCounts
	ic, vm := newInputCache(s.Cfg.TestInputs), newVectorMemos()
	var d time.Duration
	for _, e := range s.Pool {
		got := e.digestsUpTo(memoVectors, ic, vm, &d)
		if e.prog != nil {
			n.Compiled++
		}
		for j, want := range programDigests(e.Effect.T, ic, min(memoVectors, e.evalN)) {
			if got[j] != want {
				return n, fmt.Errorf("entry %s: vector-%d digest %x, compiled program gives %x", e.Seq, j, got[j], want)
			}
			n.Compared++
		}
	}
	return n, nil
}
