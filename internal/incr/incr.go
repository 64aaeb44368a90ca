// Package incr implements incremental, provenance-tracked synthesis for
// spec deltas. The full pipeline (internal/core) prices a spec edit at a
// complete re-run — every canonicalization, index probe, and SMT query —
// even when one instruction out of hundreds changed. This package makes
// the service pay only for what changed:
//
//   - every instruction gets a content fingerprint: a SHA-256 over its
//     symbolically executed effect terms (isa.Instruction.FP), so
//     whitespace, comments, and reordering edits are free;
//   - every rule carries provenance — the fingerprints of its supporting
//     instructions plus its proof origin (index vs smt) — persisted in
//     the library artifact (isel.SaveLibraryFor);
//   - given an old artifact and a new spec, the delta planner classifies
//     each rule as reusable (all supporting instructions unchanged —
//     re-verified by randomized evaluation, zero solver queries), stale
//     (dropped), or leaves a pattern missing (fed back into core against
//     a reduced pool of sequences that touch changed instructions).
//
// The soundness argument for the reduced pool: sequences built only from
// unchanged instructions are term-identical to the previous run's, so a
// pattern the previous run left uncovered cannot gain a rule from them,
// and a pattern covered by a reusable rule can only be *improved* by a
// sequence involving a changed instruction. Only patterns whose rule went
// stale need the full pool (their replacement may well come from
// unchanged instructions).
package incr

import (
	"sort"

	"iselgen/internal/isa"
)

// InstFingerprints computes the per-instruction content fingerprints of a
// loaded target — the "new spec" side of a delta.
func InstFingerprints(tgt *isa.Target) map[string]string {
	out := make(map[string]string, len(tgt.Insts))
	for _, inst := range tgt.Insts {
		out[inst.Name] = inst.FP
	}
	return out
}

// Delta is the instruction-level difference between two specs, computed
// over content fingerprints.
type Delta struct {
	Added     []string `json:"added,omitempty"`   // in new, not in old
	Removed   []string `json:"removed,omitempty"` // in old, not in new
	Changed   []string `json:"changed,omitempty"` // present in both, different semantics
	Unchanged int      `json:"unchanged"`
}

// Diff compares two fingerprint maps. The name slices are sorted for
// deterministic reporting.
func Diff(old, new map[string]string) Delta {
	var d Delta
	for name, fp := range new {
		ofp, ok := old[name]
		switch {
		case !ok:
			d.Added = append(d.Added, name)
		case ofp != fp:
			d.Changed = append(d.Changed, name)
		default:
			d.Unchanged++
		}
	}
	for name := range old {
		if _, ok := new[name]; !ok {
			d.Removed = append(d.Removed, name)
		}
	}
	sort.Strings(d.Added)
	sort.Strings(d.Removed)
	sort.Strings(d.Changed)
	return d
}

// changedSet returns the names of target instructions that are new or
// semantically changed relative to the artifact's recorded fingerprints.
// Instructions absent from the artifact header (e.g. an old-format
// artifact with no provenance) conservatively count as changed — a pure
// performance cost, never a correctness one.
func changedSet(artFPs, newFPs map[string]string) map[string]bool {
	changed := map[string]bool{}
	for name, fp := range newFPs {
		if old, ok := artFPs[name]; !ok || old != fp {
			changed[name] = true
		}
	}
	return changed
}
