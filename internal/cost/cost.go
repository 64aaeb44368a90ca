// Package cost defines per-target instruction cost models: a latency
// and size vector per ISA opcode, assembled into a versioned, hashable
// table. The paper ranks synthesized rules by operand count (§V-A3);
// a cost table refines that with the per-opcode cycle latencies and
// encoding sizes the simulator already carries, so rule ranking at
// synthesis time optimizes what the evaluation actually measures
// (cycles first, bytes as tie-break — the metric of Daly et al.'s
// lowest-cost rewrite rules).
//
// The table format is line-based and deterministic, so its content hash
// (Version) can participate in cache keys: two services with the same
// spec but different cost tables must never share rule-library
// artifacts.
package cost

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"iselgen/internal/isa"
	"iselgen/internal/mir"
)

// Vector is a two-component cost: cycles and encoding bytes. Vectors
// compare lexicographically — latency dominates, size breaks ties —
// matching how the evaluation reports results (runtime as the headline,
// binary size as §VIII-C's secondary figure).
type Vector struct {
	Latency int64 `json:"latency"`
	Size    int64 `json:"size"`
}

// Add returns the component-wise sum.
func (v Vector) Add(o Vector) Vector {
	return Vector{Latency: v.Latency + o.Latency, Size: v.Size + o.Size}
}

// Less orders vectors lexicographically: latency first, size second.
func (v Vector) Less(o Vector) bool {
	if v.Latency != o.Latency {
		return v.Latency < o.Latency
	}
	return v.Size < o.Size
}

// IsZero reports whether both components are zero (the "no cost
// recorded" sentinel: no real instruction sequence is free).
func (v Vector) IsZero() bool { return v.Latency == 0 && v.Size == 0 }

func (v Vector) String() string {
	return fmt.Sprintf("%d,%d", v.Latency, v.Size)
}

// ParseVector parses the String form ("latency,size").
func ParseVector(s string) (Vector, error) {
	lat, sz, ok := strings.Cut(s, ",")
	if !ok {
		return Vector{}, fmt.Errorf("cost: vector %q: want latency,size", s)
	}
	l, err1 := strconv.ParseInt(lat, 10, 64)
	z, err2 := strconv.ParseInt(sz, 10, 64)
	if err1 != nil || err2 != nil || l < 0 || z < 0 {
		return Vector{}, fmt.Errorf("cost: vector %q: bad component", s)
	}
	return Vector{Latency: l, Size: z}, nil
}

// Pseudo is the cost charged for pseudo-instructions (copies, returns):
// they stand in for a register move, one cycle and one word, matching
// the simulator's accounting for Meta-less instructions.
var Pseudo = Vector{Latency: 1, Size: 4}

// Table is a per-target cost model: latency and size per opcode name,
// with defaults for opcodes the table does not list. The zero defaults
// are normalized to 1 cycle / 4 bytes, the simulator's own fallback.
type Table struct {
	Target         string
	Latency        map[string]int
	Size           map[string]int
	DefaultLatency int
	DefaultSize    int
}

// NewTable returns an empty table with the standard defaults.
func NewTable(target string) *Table {
	return &Table{
		Target:         target,
		Latency:        map[string]int{},
		Size:           map[string]int{},
		DefaultLatency: 1,
		DefaultSize:    4,
	}
}

// FromTarget derives the table from a loaded target's instruction
// metadata — the same per-opcode latencies and encoding sizes the
// simulator charges, so the model's static cost predicts the measured
// dynamic cost exactly on straight-line code.
func FromTarget(tgt *isa.Target) *Table {
	t := NewTable(tgt.Name)
	for _, in := range tgt.Insts {
		if in.Latency != t.DefaultLatency {
			t.Latency[in.Name] = in.Latency
		}
		if in.Size != t.DefaultSize {
			t.Size[in.Name] = in.Size
		}
	}
	return t
}

// LatencyOf returns the cycle cost of an opcode.
func (t *Table) LatencyOf(name string) int {
	if l, ok := t.Latency[name]; ok {
		return l
	}
	if t.DefaultLatency > 0 {
		return t.DefaultLatency
	}
	return 1
}

// SizeOf returns the encoding size of an opcode in bytes.
func (t *Table) SizeOf(name string) int {
	if s, ok := t.Size[name]; ok {
		return s
	}
	if t.DefaultSize > 0 {
		return t.DefaultSize
	}
	return 4
}

// SeqVector is the model cost of an instruction sequence: the sum of
// its opcodes' vectors. This is the per-rule cost the synthesis stamps
// into libraries (rules.Rule.CostV).
func (t *Table) SeqVector(s *isa.Sequence) Vector {
	var v Vector
	for _, in := range s.Insts {
		v.Latency += int64(t.LatencyOf(in.Name))
		v.Size += int64(t.SizeOf(in.Name))
	}
	return v
}

// InstVector is the model cost of one machine instruction; pseudos
// (copies, returns) are charged the Pseudo vector.
func (t *Table) InstVector(in *mir.Inst) Vector {
	if in.Meta == nil {
		return Pseudo
	}
	return Vector{
		Latency: int64(t.LatencyOf(in.Meta.Name)),
		Size:    int64(t.SizeOf(in.Meta.Name)),
	}
}

// StaticOf sums the model cost over every instruction of a selected
// function — the static cost select responses report next to the
// simulator's dynamic cycles. A nil table
// falls back to the instruction metadata (the legacy accounting).
func StaticOf(f *mir.Func, t *Table) Vector {
	var v Vector
	for _, b := range f.Blocks {
		for _, in := range b.Insts {
			if t != nil {
				v = v.Add(t.InstVector(in))
			} else {
				v.Latency += int64(in.Latency())
				v.Size += int64(in.Size())
			}
		}
	}
	return v
}

// Format renders the table in its canonical line-based text form:
//
//	# cost table <target>
//	default latency=<n> size=<n>
//	<opcode> latency=<n> size=<n>
//
// with opcode lines name-sorted and only non-default entries emitted,
// so two semantically equal tables render byte-identically — the
// property Version's content hash relies on.
func (t *Table) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# cost table %s\n", t.Target)
	fmt.Fprintf(&sb, "default latency=%d size=%d\n", t.LatencyOf(""), t.SizeOf(""))
	names := map[string]bool{}
	for n := range t.Latency {
		names[n] = true
	}
	for n := range t.Size {
		names[n] = true
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		if n != "" {
			sorted = append(sorted, n)
		}
	}
	sort.Strings(sorted)
	for _, n := range sorted {
		lat, sz := t.LatencyOf(n), t.SizeOf(n)
		if lat == t.LatencyOf("") && sz == t.SizeOf("") {
			continue // redundant entry; omitting it keeps Format canonical
		}
		fmt.Fprintf(&sb, "%s latency=%d size=%d\n", n, lat, sz)
	}
	return sb.String()
}

// Version is the content hash of the canonical Format — the string
// cache keys fold in so artifacts synthesized under different cost
// models never alias.
func (t *Table) Version() string {
	if t == nil {
		return "-"
	}
	sum := sha256.Sum256([]byte(t.Format()))
	return hex.EncodeToString(sum[:8])
}
