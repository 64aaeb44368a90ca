// Package isa defines the target-independent instruction representation
// used by the synthesis pipeline: instructions with per-effect bitvector
// terms (obtained from the spec DSL by symbolic execution) and the
// composition of instructions into sequences following the paper's rules
// (§IV-A):
//
//  1. every instruction must have a (transitive) impact on the effect of
//     the last instruction of the sequence;
//  2. no instruction is appended after an instruction with a PC effect;
//  3. at most one memory operation per sequence.
package isa

import (
	"fmt"
	"strconv"

	"iselgen/internal/bv"
	"iselgen/internal/spec"
	"iselgen/internal/term"
)

// Instruction is one machine instruction variant (attribute assignments
// like condition codes are expanded into separate Instructions, as in the
// paper).
type Instruction struct {
	Name     string
	Operands []spec.Operand
	Effects  []spec.Effect // over unprefixed operand variables
	// Latency is the simulator cost in cycles; Size the encoding bytes
	// (derived from Enc when the spec declares an encoding clause).
	Latency int
	Size    int
	// Enc is the machine encoding from the spec's enc clause, nil when
	// the spec declares none (such targets cannot be assembled).
	Enc *spec.Encoding
	// SignedImms marks immediate operands consumed under sext in the
	// semantics; disassembly renders them as signed. Nil when Enc is nil.
	SignedImms map[string]bool
	// FP is the instruction's content fingerprint, computed at load: the
	// hash of its name, operands and symbolically executed effects, so two
	// loads of semantically identical specs agree (see instFingerprint).
	FP string
}

// NumInputs returns the operand count — the unit of the paper's cost
// metric (§V-A3).
func (i *Instruction) NumInputs() int { return len(i.Operands) }

// HasPCEffect reports whether any effect writes the PC.
func (i *Instruction) HasPCEffect() bool {
	for _, e := range i.Effects {
		if e.Kind == spec.EffPC {
			return true
		}
	}
	return false
}

// memOps counts loads inside effect terms plus store effects.
func memOps(effects []spec.Effect) int {
	n := 0
	counted := map[*term.Term]bool{}
	for _, e := range effects {
		if e.Kind == spec.EffMem {
			n++
		}
		for _, l := range e.T.Loads() {
			if !counted[l] {
				counted[l] = true
				n++
			}
		}
	}
	return n
}

// regEffect returns the instruction's primary register effect, if any.
func regEffect(effects []spec.Effect) (spec.Effect, bool) {
	for _, e := range effects {
		if e.Kind == spec.EffReg && e.Dest == "rd" {
			return e, true
		}
	}
	return spec.Effect{}, false
}

// flagEffect returns the effect writing the given flag, if any.
func flagEffect(effects []spec.Effect, flag string) (spec.Effect, bool) {
	for _, e := range effects {
		if e.Kind == spec.EffFlag && e.Dest == flag {
			return e, true
		}
	}
	return spec.Effect{}, false
}

// Sequence is a chain of instructions whose intermediate results are
// wired into later instructions. Effects are the *final* instruction's
// effects expressed over the sequence's renamed input variables
// ("s0.rn", "s1.imm", ...).
type Sequence struct {
	Insts   []*Instruction
	Wirings [][]string // per instruction: operand names fed by the previous result
	Effects []spec.Effect
	// Inputs lists the sequence's free operand variables in deterministic
	// order: per instruction, declaration order, skipping wired operands.
	Inputs []SeqOperand
	// FixedImms records immediate operands bound to constants when the
	// sequence was specialized (BindImm) — e.g. the shift-by-32 of the
	// RISC-V zero-extension chains (§VII-A).
	FixedImms []FixedImm
}

// FixedImm is an immediate operand bound to a constant value.
type FixedImm struct {
	Inst int
	Op   string
	Val  bv.BV
}

// SeqOperand is one free input of a sequence.
type SeqOperand struct {
	Var   *term.Term // the renamed variable in Effects
	Inst  int        // instruction index
	Op    spec.Operand
	Flags bool // a consumed flag input (cross-instruction flag read)
}

// Cost implements the paper's cost metric: the total number of input
// operands across all instructions of the sequence.
func (s *Sequence) Cost() int {
	c := 0
	for _, in := range s.Insts {
		c += in.NumInputs()
	}
	return c
}

// Len returns the number of instructions.
func (s *Sequence) Len() int { return len(s.Insts) }

// String renders the sequence as "INST1 ; INST2".
func (s *Sequence) String() string {
	out := ""
	for i, in := range s.Insts {
		if i > 0 {
			out += " ; "
		}
		out += in.Name
	}
	return out
}

// Single wraps one instruction into a sequence, renaming its variables
// with the "s0." prefix.
func Single(b *term.Builder, inst *Instruction) *Sequence {
	seq := &Sequence{Insts: []*Instruction{inst}, Wirings: [][]string{nil}}
	subst := renameMap(b, inst, 0, nil, nil)
	for _, e := range inst.Effects {
		seq.Effects = append(seq.Effects, spec.Effect{
			Kind: e.Kind, Dest: e.Dest, T: b.Rebuild(e.T, subst),
		})
	}
	for _, op := range inst.Operands {
		seq.Inputs = append(seq.Inputs, SeqOperand{
			Var: seqVar(b, 0, op), Inst: 0, Op: op,
		})
	}
	// Unwired flag reads remain sequence inputs.
	seq.addFlagInputs(b)
	return seq
}

// seqVar returns the renamed variable for instruction position idx.
func seqVar(b *term.Builder, idx int, op spec.Operand) *term.Term {
	var kind term.VarKind
	switch op.Kind {
	case spec.OpReg:
		kind = term.KindReg
	case spec.OpVec:
		kind = term.KindVecReg
	default:
		kind = term.KindImm
	}
	tag := "r"
	switch kind {
	case term.KindVecReg:
		tag = "v"
	case term.KindImm:
		tag = "i"
	}
	// Concatenation instead of fmt.Sprintf: this runs for every operand
	// of every candidate composition during enumeration.
	name := "s" + strconv.Itoa(idx) + "." + op.Name + "." + tag + strconv.Itoa(op.Width)
	return b.VarT(name, kind, op.Width)
}

// renameMap builds the substitution from an instruction's unprefixed
// variables to sequence-scoped ones. wired maps operand names to the
// terms they receive; flagIn maps flag names to terms (previous
// instruction's flag effects) when consumed.
func renameMap(b *term.Builder, inst *Instruction, idx int,
	wired map[string]*term.Term, flagIn map[string]*term.Term) map[*term.Term]*term.Term {
	subst := map[*term.Term]*term.Term{}
	for _, op := range inst.Operands {
		src := b.VarT(inst.Name+"."+op.Name, varKind(op), op.Width)
		if w, ok := wired[op.Name]; ok {
			subst[src] = w
		} else {
			subst[src] = seqVar(b, idx, op)
		}
	}
	// Flags: wire from the previous instruction when available, else
	// rename to sequence-scoped flag inputs.
	for _, f := range spec.FlagNames {
		src := b.VarT(inst.Name+"."+f, term.KindFlag, 1)
		if t, ok := flagIn[f]; ok {
			subst[src] = t
		} else {
			subst[src] = b.VarT("s"+strconv.Itoa(idx)+"."+f, term.KindFlag, 1)
		}
	}
	// PC reads share one sequence-level variable (intra-sequence PC
	// deltas of a few bytes are folded into the immediate at encoding).
	subst[b.VarT(inst.Name+".pc", term.KindPC, 64)] = b.VarT("pc", term.KindPC, 64)
	return subst
}

func varKind(op spec.Operand) term.VarKind {
	switch op.Kind {
	case spec.OpReg:
		return term.KindReg
	case spec.OpVec:
		return term.KindVecReg
	default:
		return term.KindImm
	}
}

// addFlagInputs records remaining flag variables appearing in the effects
// as explicit sequence inputs.
func (s *Sequence) addFlagInputs(b *term.Builder) {
	seen := map[string]bool{}
	for _, in := range s.Inputs {
		seen[in.Var.Name] = true
	}
	for _, e := range s.Effects {
		for _, v := range e.T.Vars() {
			if v.Kind == term.KindFlag && !seen[v.Name] {
				seen[v.Name] = true
				s.Inputs = append(s.Inputs, SeqOperand{Var: v, Flags: true})
			}
		}
	}
}

// CanAppend reports whether inst may be appended to s under the paper's
// composition rules, without constructing the result.
func (s *Sequence) CanAppend(inst *Instruction) bool {
	// Rule 2: nothing follows a PC effect.
	for _, e := range s.Effects {
		if e.Kind == spec.EffPC {
			return false
		}
	}
	// Something must be consumable: a primary register result or flag
	// outputs (a flag-only producer like x86 CMP can only be consumed by
	// a flag reader).
	_, hasReg := regEffect(s.Effects)
	hasFlags := false
	for _, e := range s.Effects {
		if e.Kind == spec.EffFlag {
			hasFlags = true
		}
	}
	if !hasReg && !hasFlags {
		return false
	}
	// Intermediate write-backs / secondary outputs would be lost.
	for _, e := range s.Effects {
		if e.Kind == spec.EffWB || (e.Kind == spec.EffReg && e.Dest == "rd2") {
			return false
		}
	}
	// Rule 3: at most one memory operation in the whole sequence.
	if memOps(s.Effects)+memOps(inst.Effects) > 1 {
		return false
	}
	return true
}

// Append composes inst onto s, wiring the named register operands of inst
// to s's primary result (rule 1 requires at least one wire or a consumed
// flag). consumeFlags wires inst's flag reads to s's flag effects when s
// produces them.
func Append(b *term.Builder, s *Sequence, inst *Instruction, wireOps []string, consumeFlags bool) (*Sequence, error) {
	if !s.CanAppend(inst) {
		return nil, fmt.Errorf("isa: cannot append %s to %s", inst.Name, s)
	}
	prev, hasPrev := regEffect(s.Effects)
	idx := len(s.Insts)

	wired := map[string]*term.Term{}
	if len(wireOps) > 0 && !hasPrev {
		return nil, fmt.Errorf("isa: %s has no register result to wire", s)
	}
	for _, name := range wireOps {
		op, ok := findOperand(inst, name)
		if !ok {
			return nil, fmt.Errorf("isa: %s has no operand %q", inst.Name, name)
		}
		if op.Kind == spec.OpImm {
			return nil, fmt.Errorf("isa: cannot wire immediate operand %q", name)
		}
		if op.Width != prev.T.W() {
			return nil, fmt.Errorf("isa: wire width mismatch: %s.%s is %d bits, result is %d",
				inst.Name, name, op.Width, prev.T.W())
		}
		wired[name] = prev.T
	}

	flagIn := map[string]*term.Term{}
	flagsConsumed := false
	if consumeFlags {
		for _, f := range spec.FlagNames {
			if fe, ok := flagEffect(s.Effects, f); ok {
				flagIn[f] = fe.T
				flagsConsumed = true
			}
		}
	}
	if len(wireOps) == 0 && !flagsConsumed {
		return nil, fmt.Errorf("isa: rule 1 violated: %s would not depend on %s", inst.Name, s)
	}

	subst := renameMap(b, inst, idx, wired, flagIn)
	ns := &Sequence{
		Insts:     append(append([]*Instruction(nil), s.Insts...), inst),
		Wirings:   append(append([][]string(nil), s.Wirings...), wireOps),
		FixedImms: append([]FixedImm(nil), s.FixedImms...),
	}
	for _, e := range inst.Effects {
		ns.Effects = append(ns.Effects, spec.Effect{
			Kind: e.Kind, Dest: e.Dest, T: b.Rebuild(e.T, subst),
		})
	}
	// Inputs: all previous inputs (still referenced through the wire),
	// then inst's unwired operands.
	ns.Inputs = append(ns.Inputs, s.Inputs...)
	for _, op := range inst.Operands {
		if _, ok := wired[op.Name]; ok {
			continue
		}
		ns.Inputs = append(ns.Inputs, SeqOperand{Var: seqVar(b, idx, op), Inst: idx, Op: op})
	}
	ns.pruneInputs()
	ns.addFlagInputs(b)
	return ns, nil
}

// AppendCache memoizes the base-independent work of Append for the
// enumerator's hot loop. For a fixed (instruction, wired operand,
// consumed-flag set, position) the rename substitution and the rebuilds
// of every effect subterm that does not contain a wired source variable
// are the same for every base sequence; only the "spine" — the nodes
// whose subtree reaches a wired variable — depends on the base. The
// template stores the generic substitution plus the off-spine rebuild
// memo, and each Append clones it and overwrites the wired entries, so
// Rebuild re-walks only the spine. Results are pointer-identical to the
// uncached Append because the hash-consing constructors see the same
// final arguments either way. Not safe for concurrent use.
type AppendCache struct {
	m map[appendKey]*appendTemplate
}

type appendKey struct {
	inst  *Instruction
	idx   int
	wired string // wired operand name, "" when wiring flags only
	flags uint8  // bitmask over spec.FlagNames of consumed flags
}

type appendTemplate struct {
	subst    map[*term.Term]*term.Term // generic entries + off-spine memo
	wiredSrc *term.Term                // source var of the wired operand, nil when flags-only
	wiredW   int                       // its width
	flagSrc  []*term.Term              // source vars of consumed flags, in FlagNames order
	inputs   []SeqOperand              // inst's unwired operands, pre-renamed
}

// NewAppendCache returns an empty cache.
func NewAppendCache() *AppendCache {
	return &AppendCache{m: map[appendKey]*appendTemplate{}}
}

// Append behaves exactly like the package-level Append — same results
// (pointer-identical terms), same rejections — restricted to at most one
// wired operand, which is all the enumerator uses.
func (c *AppendCache) Append(b *term.Builder, s *Sequence, inst *Instruction, wireOps []string, consumeFlags bool) (*Sequence, error) {
	if len(wireOps) > 1 {
		return Append(b, s, inst, wireOps, consumeFlags)
	}
	if !s.CanAppend(inst) {
		return nil, fmt.Errorf("isa: cannot append %s to %s", inst.Name, s)
	}
	prev, hasPrev := regEffect(s.Effects)
	idx := len(s.Insts)

	if len(wireOps) > 0 && !hasPrev {
		return nil, fmt.Errorf("isa: %s has no register result to wire", s)
	}
	var flagTerms []*term.Term
	var fmask uint8
	if consumeFlags {
		for i, f := range spec.FlagNames {
			if fe, ok := flagEffect(s.Effects, f); ok {
				fmask |= 1 << i
				flagTerms = append(flagTerms, fe.T)
			}
		}
	}
	if len(wireOps) == 0 && fmask == 0 {
		return nil, fmt.Errorf("isa: rule 1 violated: %s would not depend on %s", inst.Name, s)
	}

	key := appendKey{inst: inst, idx: idx, flags: fmask}
	if len(wireOps) == 1 {
		key.wired = wireOps[0]
	}
	tpl, ok := c.m[key]
	if !ok {
		var err error
		tpl, err = buildAppendTemplate(b, inst, idx, key.wired, fmask)
		if err != nil {
			return nil, err
		}
		c.m[key] = tpl
	}
	if tpl.wiredSrc != nil && tpl.wiredW != prev.T.W() {
		return nil, fmt.Errorf("isa: wire width mismatch: %s.%s is %d bits, result is %d",
			inst.Name, key.wired, tpl.wiredW, prev.T.W())
	}

	// The wired/flag bindings go into a small per-call overlay instead of
	// a clone of the template substitution: Rebuild reads through to the
	// pristine template memo for off-spine subterms and records spine
	// rewrites (which depend on this base's terms) only in the overlay.
	// Same results, and the allocation is a handful of entries instead
	// of a copy of the whole memo.
	ov := make(map[*term.Term]*term.Term, 8)
	if tpl.wiredSrc != nil {
		ov[tpl.wiredSrc] = prev.T
	}
	for i, src := range tpl.flagSrc {
		ov[src] = flagTerms[i]
	}

	ns := &Sequence{
		Insts:     make([]*Instruction, len(s.Insts)+1),
		Wirings:   make([][]string, len(s.Wirings)+1),
		FixedImms: append([]FixedImm(nil), s.FixedImms...),
		Effects:   make([]spec.Effect, 0, len(inst.Effects)),
	}
	copy(ns.Insts, s.Insts)
	ns.Insts[len(s.Insts)] = inst
	copy(ns.Wirings, s.Wirings)
	ns.Wirings[len(s.Wirings)] = wireOps
	for _, e := range inst.Effects {
		ns.Effects = append(ns.Effects, spec.Effect{
			Kind: e.Kind, Dest: e.Dest, T: b.RebuildOverlay(e.T, tpl.subst, ov),
		})
	}
	// Inline pruneInputs/addFlagInputs: the input and variable counts are
	// small enough that nested scans over the cached Vars() slices beat
	// building the per-call name maps the Sequence methods use. Results
	// are identical: keep inputs some effect still references, then
	// surface flag variables the effects read that are not inputs yet.
	ns.Inputs = make([]SeqOperand, 0, len(s.Inputs)+len(tpl.inputs)+2)
	keepLive := func(in SeqOperand) {
		for _, e := range ns.Effects {
			for _, v := range e.T.Vars() {
				if v.Name == in.Var.Name {
					ns.Inputs = append(ns.Inputs, in)
					return
				}
			}
		}
	}
	for _, in := range s.Inputs {
		keepLive(in)
	}
	for _, in := range tpl.inputs {
		keepLive(in)
	}
	for _, e := range ns.Effects {
		for _, v := range e.T.Vars() {
			if v.Kind != term.KindFlag {
				continue
			}
			dup := false
			for _, in := range ns.Inputs {
				if in.Var.Name == v.Name {
					dup = true
					break
				}
			}
			if !dup {
				ns.Inputs = append(ns.Inputs, SeqOperand{Var: v, Flags: true})
			}
		}
	}
	return ns, nil
}

// buildAppendTemplate constructs the reusable part of an Append: the
// generic substitution with every effect subterm that does not reach a
// wired source variable already rebuilt and memoized.
func buildAppendTemplate(b *term.Builder, inst *Instruction, idx int, wired string, fmask uint8) (*appendTemplate, error) {
	tpl := &appendTemplate{}
	wiredSet := map[*term.Term]bool{}
	if wired != "" {
		op, ok := findOperand(inst, wired)
		if !ok {
			return nil, fmt.Errorf("isa: %s has no operand %q", inst.Name, wired)
		}
		if op.Kind == spec.OpImm {
			return nil, fmt.Errorf("isa: cannot wire immediate operand %q", wired)
		}
		tpl.wiredSrc = b.VarT(inst.Name+"."+op.Name, varKind(op), op.Width)
		tpl.wiredW = op.Width
		wiredSet[tpl.wiredSrc] = true
	}
	for i, f := range spec.FlagNames {
		if fmask&(1<<i) != 0 {
			src := b.VarT(inst.Name+"."+f, term.KindFlag, 1)
			tpl.flagSrc = append(tpl.flagSrc, src)
			wiredSet[src] = true
		}
	}

	// Generic substitution, then rebuild every effect once so subst
	// doubles as a full memo over the effect DAGs.
	subst := renameMap(b, inst, idx, nil, nil)
	for _, e := range inst.Effects {
		b.Rebuild(e.T, subst)
	}
	// Drop the spine: entries whose subtree reaches a wired source var
	// must be recomputed per call (including the wired vars themselves).
	reaches := map[*term.Term]bool{}
	var mark func(u *term.Term) bool
	mark = func(u *term.Term) bool {
		if r, ok := reaches[u]; ok {
			return r
		}
		reaches[u] = false // guard (terms are acyclic; this is just a memo seed)
		r := wiredSet[u]
		for _, a := range u.Args {
			if mark(a) {
				r = true
			}
		}
		reaches[u] = r
		return r
	}
	for _, e := range inst.Effects {
		mark(e.T)
	}
	for u, r := range reaches {
		if r {
			delete(subst, u)
		}
	}
	tpl.subst = subst

	for _, op := range inst.Operands {
		if op.Name == wired {
			continue
		}
		tpl.inputs = append(tpl.inputs, SeqOperand{Var: seqVar(b, idx, op), Inst: idx, Op: op})
	}
	return tpl, nil
}

// pruneInputs drops inputs no longer referenced by any effect (operands
// of earlier instructions that fed only dropped effects).
func (s *Sequence) pruneInputs() {
	live := map[string]bool{}
	for _, e := range s.Effects {
		for _, v := range e.T.Vars() {
			live[v.Name] = true
		}
	}
	kept := s.Inputs[:0]
	for _, in := range s.Inputs {
		if live[in.Var.Name] {
			kept = append(kept, in)
		}
	}
	s.Inputs = kept
}

func findOperand(inst *Instruction, name string) (spec.Operand, bool) {
	for _, op := range inst.Operands {
		if op.Name == name {
			return op, true
		}
	}
	return spec.Operand{}, false
}

// Target bundles a named architecture: its instruction list plus
// encoding metadata.
type Target struct {
	Name  string
	Insts []*Instruction
	// Reserved holds the spec's reserved opcode-space patterns and
	// RegNumBits the register-number field width shared by all
	// encodings (0 when the spec declares no encodings).
	Reserved   []*spec.Encoding
	RegNumBits int
}

// HasEncodings reports whether every instruction carries an encoding
// clause, i.e. the target can be assembled and disassembled.
func (t *Target) HasEncodings() bool {
	for _, i := range t.Insts {
		if i.Enc == nil {
			return false
		}
	}
	return len(t.Insts) > 0
}

// ByName returns the instruction with the given name.
func (t *Target) ByName(name string) *Instruction {
	for _, i := range t.Insts {
		if i.Name == name {
			return i
		}
	}
	return nil
}

// LoadTarget parses and symbolizes a spec source into a Target. latency
// maps instruction names to cycle costs (default 1). size is the
// declared uniform size in bytes for instructions without an encoding
// clause (0 defaults to 4); when an instruction declares an encoding,
// its size is *derived* from the encoding width, and a non-zero
// declared size that contradicts any derived size is rejected — the
// spec, not the metadata, is the source of truth.
func LoadTarget(b *term.Builder, name, src string, latency map[string]int, size int) (*Target, error) {
	f, err := spec.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("isa %s: %w", name, err)
	}
	t := &Target{Name: name, Reserved: f.Reserved}
	var sems []*spec.Sem
	for _, def := range f.Insts {
		sem, err := spec.Symbolize(def, b, def.Name+".")
		if err != nil {
			return nil, fmt.Errorf("isa %s: %w", name, err)
		}
		sems = append(sems, sem)
		lat := latency[def.Name]
		if lat == 0 {
			lat = 1
		}
		in := &Instruction{
			Name:     def.Name,
			Operands: sem.Operands,
			Effects:  sem.Effects,
			Latency:  lat,
			Size:     size,
			Enc:      def.Enc,
		}
		if def.Enc != nil {
			derived := def.Enc.SizeBytes()
			if size != 0 && size != derived {
				return nil, fmt.Errorf("isa %s: %s: declared size %d contradicts %d-byte encoding",
					name, def.Name, size, derived)
			}
			in.Size = derived
			in.SignedImms = spec.SignedImms(sem)
		} else if size == 0 {
			in.Size = 4
		}
		in.FP = instFingerprint(in)
		t.Insts = append(t.Insts, in)
	}
	if err := spec.CheckEncodings(f, sems); err != nil {
		return nil, fmt.Errorf("isa %s: %w", name, err)
	}
	t.RegNumBits = spec.RegNumBits(f)
	return t, nil
}

// BindImm specializes a sequence by fixing the immediate operand of
// instruction instIdx to a constant: the variable is substituted in the
// effects and removed from the inputs, and the binding is recorded for
// emission.
func BindImm(b *term.Builder, s *Sequence, instIdx int, opName string, val bv.BV) (*Sequence, error) {
	inst := s.Insts[instIdx]
	op, ok := findOperand(inst, opName)
	if !ok || op.Kind != spec.OpImm {
		return nil, fmt.Errorf("isa: %s has no immediate operand %q", inst.Name, opName)
	}
	if val.W() != op.Width {
		return nil, fmt.Errorf("isa: BindImm width %d for %d-bit operand", val.W(), op.Width)
	}
	v := seqVar(b, instIdx, op)
	subst := map[*term.Term]*term.Term{v: b.ConstBV(val)}
	ns := &Sequence{
		Insts:     s.Insts,
		Wirings:   s.Wirings,
		FixedImms: append(append([]FixedImm(nil), s.FixedImms...), FixedImm{Inst: instIdx, Op: opName, Val: val}),
	}
	for _, e := range s.Effects {
		ns.Effects = append(ns.Effects, spec.Effect{Kind: e.Kind, Dest: e.Dest, T: b.Rebuild(e.T, subst)})
	}
	for _, in := range s.Inputs {
		if in.Inst == instIdx && in.Op.Name == opName {
			continue
		}
		ns.Inputs = append(ns.Inputs, in)
	}
	return ns, nil
}
