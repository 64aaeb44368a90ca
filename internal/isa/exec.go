package isa

import (
	"fmt"
	"slices"
	"strings"

	"iselgen/internal/bv"
	"iselgen/internal/spec"
	"iselgen/internal/term"
)

// ExecEffect is one effect compiled over its instruction's input layout.
type ExecEffect struct {
	Val  *term.Program // the effect's value; for a store, the stored value
	Addr *term.Program // a store's address; nil for every other effect
	Flag int           // a flag effect's index into spec.FlagNames
}

// The input layout of an instruction's compiled effects: operand i at
// slot i, then the flags in spec.FlagNames order from flagSlot, then the
// 64-bit pc at pcSlot.
func (i *Instruction) flagSlot() int { return len(i.Operands) }
func (i *Instruction) pcSlot() int   { return len(i.Operands) + len(spec.FlagNames) }

// Frame is an executor's workspace for running compiled effects: the
// condition flags, plus the input layout and term.Program.RunIn scratch
// it reuses from step to step, so a step allocates nothing. A Frame
// serves one execution at a time.
type Frame struct {
	Flags   [4]bv.BV // N, Z, C, V (spec.FlagNames order)
	vals    []bv.BV
	scratch []bv.BV
}

// Reset clears the flags for a new execution.
func (f *Frame) Reset() { f.Flags = [4]bv.BV{bv.Zero(1), bv.Zero(1), bv.Zero(1), bv.Zero(1)} }

// Begin starts a step of in at the given pc. It returns in's input
// layout with the flags and pc filled in; the caller fills slot i with
// operand i. Because the whole layout is filled before any effect runs,
// every effect reads the state from the start of the instruction, even
// when a destination aliases a source.
func (f *Frame) Begin(in *Instruction, pc uint64) []bv.BV {
	n := in.pcSlot() + 1
	if len(f.vals) < n {
		f.vals = make([]bv.BV, n)
	}
	if len(f.scratch) < in.execScratch {
		f.scratch = make([]bv.BV, in.execScratch)
	}
	copy(f.vals[in.flagSlot():], f.Flags[:])
	f.vals[in.pcSlot()] = bv.New(64, pc)
	return f.vals[:n]
}

// Run runs one of the stepped instruction's programs over the layout
// Begin returned, with loads reading mem.
func (f *Frame) Run(p *term.Program, mem term.MemModel) bv.BV {
	return p.RunIn(f.vals, f.scratch, mem)
}

// FlagMap returns the flags by name.
func (f *Frame) FlagMap() map[string]bv.BV {
	m := make(map[string]bv.BV, len(spec.FlagNames))
	for k, fn := range spec.FlagNames {
		m[fn] = f.Flags[k]
	}
	return m
}

// compileExec compiles the instruction's effects over its input layout.
// A variable is resolved by name, as an executor binding operands, then
// flags, then pc would resolve it; a variable that names none of them, or
// whose width differs from its slot's, is an error.
func compileExec(in *Instruction) error {
	slot := func(v *term.Term) int {
		name, ok := strings.CutPrefix(v.Name, in.Name+".")
		f := slices.Index(spec.FlagNames, name)
		k := slices.IndexFunc(in.Operands, func(op spec.Operand) bool { return op.Name == name })
		s, w := -1, 0
		switch {
		case !ok:
		case name == "pc":
			s, w = in.pcSlot(), 64
		case f >= 0:
			s, w = in.flagSlot()+f, 1
		case k >= 0:
			s, w = k, in.Operands[k].Width
		}
		if v.W() != w {
			return -1
		}
		return s
	}
	compile := func(t *term.Term) (*term.Program, error) {
		p, err := term.CompileLayout(t, slot)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", in.Name, err)
		}
		in.execScratch = max(in.execScratch, p.Len())
		return p, nil
	}
	in.Exec = make([]ExecEffect, len(in.Effects))
	for k, e := range in.Effects {
		x := &in.Exec[k]
		var err error
		if e.Kind == spec.EffMem {
			if x.Addr, err = compile(e.T.Args[0]); err == nil {
				x.Val, err = compile(e.T.Args[1])
			}
		} else {
			x.Val, err = compile(e.T)
		}
		if err != nil {
			return err
		}
		if e.Kind == spec.EffFlag {
			x.Flag = slices.Index(spec.FlagNames, e.Dest)
		}
	}
	return nil
}
