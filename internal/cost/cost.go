// Package cost prices selected machine code: StaticOf sums a function's
// per-instruction latency and encoding size into the static cost that
// select responses report next to the simulator's dynamic cycles. Rules
// are ranked by the paper's operand count (§V-A3, isa.Sequence.Cost),
// never by this package.
//
// Table, a per-opcode latency and size table derived from the spec's
// metadata, survives only for the frozen benchmark's replay.
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

// Vector is a two-component cost: cycles and encoding bytes.
type Vector struct {
	Latency int64 `json:"latency"`
	Size    int64 `json:"size"`
}

// Add returns the component-wise sum.
func (v Vector) Add(o Vector) Vector {
	return Vector{Latency: v.Latency + o.Latency, Size: v.Size + o.Size}
}

// String renders the vector as "latency,size".
func (v Vector) String() string {
	return fmt.Sprintf("%d,%d", v.Latency, v.Size)
}

// ParseVector parses the String form ("latency,size"). Library loaders
// use it to check the cost field of artifacts saved by older versions.
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
//
// Deprecated: only the frozen benchmark's replay (cmd/iselperf) uses it;
// the benchmark change of ROADMAP item 2 deletes it.
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

// StaticOf sums the cost over every instruction of a selected function
// — the static cost select responses report next to the simulator's
// dynamic cycles. The daemon passes a nil table, which charges the spec's
// instruction metadata; only the frozen benchmark's replay
// (cmd/iselperf) passes a table, and the benchmark change of ROADMAP
// item 2 deletes the parameter.
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

// format renders the table in its canonical line-based text form:
//
//	# cost table <target>
//	default latency=<n> size=<n>
//	<opcode> latency=<n> size=<n>
//
// with opcode lines name-sorted and only non-default entries emitted,
// so two semantically equal tables render byte-identically — the
// property Version's content hash relies on.
func (t *Table) format() string {
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

// Version is the content hash of the canonical text form.
//
// Deprecated: only the frozen benchmark's replay (cmd/iselperf) calls
// it; the benchmark change of ROADMAP item 2 deletes it.
func (t *Table) Version() string {
	if t == nil {
		return "-"
	}
	sum := sha256.Sum256([]byte(t.format()))
	return hex.EncodeToString(sum[:8])
}
