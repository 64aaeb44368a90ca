package rules

import (
	"sort"

	"iselgen/internal/isa"
)

// InstFP names one supporting instruction and its content fingerprint.
type InstFP struct {
	Name string
	FP   string
}

// SupportOf computes a sequence's provenance: the deduplicated,
// name-sorted fingerprints (isa.Instruction.FP) of every instruction the
// sequence uses. A rule proved against these instructions remains valid
// in any spec where all of them are semantically unchanged — the reuse
// criterion of the incremental planner.
func SupportOf(seq *isa.Sequence) []InstFP {
	seen := map[string]bool{}
	out := make([]InstFP, 0, len(seq.Insts))
	for _, inst := range seq.Insts {
		if seen[inst.Name] {
			continue
		}
		seen[inst.Name] = true
		out = append(out, InstFP{Name: inst.Name, FP: inst.FP})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
