// Package targets is the one table of builtin targets. Every tool that
// takes a target name — the CLIs, the harness, the fuzz pipeline and the
// daemon — resolves it here, so what a builtin target is (its spec, its
// backends, its legalization floor, its special sequences) is written
// down once instead of in a switch per command.
package targets

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"iselgen/internal/bv"
	"iselgen/internal/cost"
	"iselgen/internal/isa"
	"iselgen/internal/isa/aarch64"
	"iselgen/internal/isa/riscv"
	"iselgen/internal/isa/x86"
	"iselgen/internal/isel"
	"iselgen/internal/rules"
	"iselgen/internal/spec"
	"iselgen/internal/term"
)

// Builtin describes one builtin target.
type Builtin struct {
	Name string
	// Spec returns the target's DSL source. It is generated on every
	// call; callers that need it repeatedly keep the result.
	Spec func() string
	// Load parses and symbolically executes the spec into b.
	Load func(b *term.Builder) (*isa.Target, error)
	// Synth wraps a synthesized library into the selection backend with
	// the target's manual hook imports (§VIII-A). Nil for targets that are
	// synthesized but never selected for (x86, the §IX comparator).
	Synth func(tgt *isa.Target, lib *rules.Library) *isel.Backend
	// Baselines builds the handwritten comparison backends, most
	// optimized first, and names the GlobalISel analog among them — the
	// backend a failed selection falls back to. Nil when Synth is.
	Baselines func(b *term.Builder, tgt *isa.Target) (all []*isel.Backend, handwritten *isel.Backend)
	// MinWidth is the narrowest scalar width selected code may use:
	// legalization widens everything below it.
	MinWidth int
	// Extra contributes the target's §VII-A special sequences to the
	// synthesis pool (nil when it has none).
	Extra func(b *term.Builder, t *isa.Target) []*isa.Sequence
}

// Selects reports whether the target has a selection backend.
func (t *Builtin) Selects() bool { return t.Synth != nil }

// CostModel loads the target and derives its cost table. Every call
// loads the spec again; a long-lived caller resolves it once and keeps
// the table.
func (t *Builtin) CostModel() (*cost.Table, error) {
	tgt, err := t.Load(term.NewBuilder())
	if err != nil {
		return nil, err
	}
	return cost.FromTarget(tgt), nil
}

var table = []*Builtin{
	{
		Name:  "aarch64",
		Spec:  aarch64.Spec,
		Load:  aarch64.Load,
		Synth: isel.NewA64Synth,
		Baselines: func(b *term.Builder, tgt *isa.Target) ([]*isel.Backend, *isel.Backend) {
			set := isel.NewA64Backends(b, tgt)
			return []*isel.Backend{set.DAG, set.Handwritten, set.Naive}, set.Handwritten
		},
		MinWidth: 32,
	},
	{
		// No FastISel analog, as in the paper. RV64 backends are 64-bit
		// only: the 32-bit operations are the W forms the synthesizer
		// discovers, not a legal scalar type of their own.
		Name:  "riscv",
		Spec:  riscv.Spec,
		Load:  riscv.Load,
		Synth: isel.NewRVSynth,
		Baselines: func(b *term.Builder, tgt *isa.Target) ([]*isel.Backend, *isel.Backend) {
			set := isel.NewRVBackends(b, tgt)
			return []*isel.Backend{set.DAG, set.Handwritten}, set.Handwritten
		},
		MinWidth: 64,
		Extra:    riscvZextChains,
	},
	{
		Name:     "x86",
		Spec:     x86.Spec,
		Load:     x86.Load,
		MinWidth: 32,
	},
}

// All returns every builtin target, in table order.
func All() []*Builtin { return table }

// Names lists the builtin target names; with selecting set, only those
// with a selection backend.
func Names(selecting bool) []string {
	var out []string
	for _, t := range table {
		if !selecting || t.Selects() {
			out = append(out, t.Name)
		}
	}
	return out
}

// Lookup resolves a builtin target by name.
func Lookup(name string) (*Builtin, error) {
	for _, t := range table {
		if t.Name == name {
			return t, nil
		}
	}
	return nil, fmt.Errorf("unknown target %q (builtins: %s)", name, strings.Join(Names(false), ", "))
}

// LookupSelecting resolves a builtin target that has a selection backend.
func LookupSelecting(name string) (*Builtin, error) {
	t, err := Lookup(name)
	if err == nil && !t.Selects() {
		return nil, fmt.Errorf("target %q has no selection backend (selection targets: %s)",
			name, strings.Join(Names(true), ", "))
	}
	return t, err
}

// LoadFile loads a DSL spec file as a target named after the file, its
// directory and extension stripped. The source goes through spec.Check
// first — the front door the daemon's inline path uses too — so errors
// carry source positions. As there, an encoding sets its instruction's
// size, and an instruction without one is 4 bytes.
func LoadFile(b *term.Builder, path string) (*isa.Target, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if _, err := spec.Check(string(src)); err != nil {
		return nil, err
	}
	name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	return isa.LoadTarget(b, name, string(src), nil, 0)
}

// riscvZextChains returns the RISC-V zero-extension chains appended to
// W-form arithmetic (§VII-A): each 32-bit W result shifted left and
// then logically right by 32.
func riscvZextChains(b *term.Builder, t *isa.Target) []*isa.Sequence {
	var out []*isa.Sequence
	for _, base := range []string{"ADDW", "SUBW", "MULW", "SLLW", "SRLW", "SRAW", "ADDIW"} {
		inst := t.ByName(base)
		if inst == nil {
			continue
		}
		seq := isa.Single(b, inst)
		s2, err := isa.Append(b, seq, t.ByName("SLLI"), []string{"rs1"}, false)
		if err != nil {
			continue
		}
		s2, err = isa.BindImm(b, s2, 1, "sh", bv.New(6, 32))
		if err != nil {
			continue
		}
		s3, err := isa.Append(b, s2, t.ByName("SRLI"), []string{"rs1"}, false)
		if err != nil {
			continue
		}
		s3, err = isa.BindImm(b, s3, 2, "sh", bv.New(6, 32))
		if err != nil {
			continue
		}
		out = append(out, s3)
	}
	return out
}
