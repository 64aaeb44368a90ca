// Package isel implements instruction selection over gMIR: the greedy
// bottom-up largest-pattern-first tree matcher that GlobalISel uses
// (paper §II-B), driven by a rule library — synthesized or handwritten —
// plus per-target hooks standing in for LLVM's C++ fallback selection
// (constant materialization, branch lowering, and operations TableGen
// cannot express, §VI-A).
//
// A Backend combines a rule library with a hook flavor; the experiment
// harness instantiates four per target, mirroring the paper's comparison:
// the synthesized backend, the handwritten GlobalISel analog, the
// SelectionDAG analog (handwritten plus extra folds), and the naive
// FastISel analog.
package isel

import (
	"fmt"

	"iselgen/internal/bv"
	"iselgen/internal/gmir"
	"iselgen/internal/isa"
	"iselgen/internal/mir"
	"iselgen/internal/obs"
	"iselgen/internal/pattern"
	"iselgen/internal/rules"
	"iselgen/internal/spec"
)

// Hooks are the target- and flavor-specific escape hatches (the C++
// analog). Each returns false when it cannot handle the request, which
// ultimately produces a function-level fallback (Table III).
type Hooks struct {
	// MatConst materializes a constant into a fresh register.
	MatConst func(c *Ctx, v bv.BV) (mir.Reg, bool)
	// LowerBrCond emits a conditional branch on `cond` (negated when
	// invert is set) to block `taken`, folding a feeding comparison when
	// profitable.
	LowerBrCond func(c *Ctx, cond gmir.Value, taken int, invert bool) bool
	// LowerInst handles selectable instructions no rule covered.
	LowerInst func(c *Ctx, in *gmir.Inst) bool
}

// Backend is a complete instruction selector.
type Backend struct {
	Name  string
	ISA   *isa.Target
	Lib   *rules.Library
	Hooks Hooks
	// Obs, when set, receives one isel/select span per function, with
	// its rule_insts, hook_insts and fallback outcome, and its latency in
	// the isel_select_ns histogram.
	Obs *obs.Obs
}

// Report records selection outcomes for the coverage experiments.
type Report struct {
	Fallback       bool     // the function required the baseline (Table III)
	FallbackReason string   //
	HookInsts      int      // instructions handled by hooks (C++ analog)
	RuleInsts      int      // gMIR instructions covered by rules
	RulesUsed      []string // sequence names, in emission order
}

// Ctx is the per-function selection context passed to hooks.
type Ctx struct {
	B   *Backend
	F   *gmir.Function
	Out *mir.Func

	def   map[gmir.Value]*gmir.Inst
	uses  map[gmir.Value]int
	vreg  map[gmir.Value]mir.Reg
	cover map[*gmir.Inst]bool
	pos   map[*gmir.Inst]instPos

	cur     []*mir.Inst // emission buffer for the current root
	curRoot *gmir.Inst
	report  *Report
	err     error

	// bind is the one binding every candidate match fills; a match
	// result is consumed by emitRule before the next match starts.
	// inVals is emitRule's scratch for the resolved sequence inputs.
	bind   matchBinding
	inVals []mir.Operand
}

// Select lowers a gMIR function to machine IR. On failure (no rule, no
// hook) it returns a nil Func and a Report with Fallback set — the
// caller substitutes the baseline backend, as LLVM falls back to
// SelectionDAG (§VIII-A).
func (b *Backend) Select(f *gmir.Function) (*mir.Func, *Report) {
	report := &Report{}
	tm := obs.Timed(b.Obs.TracerOrNil(), "isel/select")
	tm.Span().SetStr("fn", f.Name)
	defer func() {
		sp := tm.Span()
		sp.SetInt("rule_insts", int64(report.RuleInsts)).
			SetInt("hook_insts", int64(report.HookInsts))
		if report.Fallback {
			sp.SetStr("fallback", report.FallbackReason)
		}
		d := tm.Done()
		if m := b.Obs.MetricsOrNil(); m != nil {
			m.Histogram("isel_select_ns", "per-function selection latency").
				Observe(d.Nanoseconds())
		}
	}()
	gmir.SplitCriticalEdges(f)
	c := b.newCtx(f, report)
	for _, p := range f.Params {
		r := c.Out.NewReg()
		c.vreg[p.Val] = r
		c.Out.Params = append(c.Out.Params, r)
	}
	// Pre-assign phi destination registers and mark phi inputs as
	// referenced (they must live in registers at the edge).
	for _, blk := range f.Blocks {
		for _, in := range blk.Insts {
			if in.Op == gmir.GPhi {
				c.ensureReg(in.Dst)
				for _, a := range in.Args {
					c.ensureReg(a)
				}
			}
		}
	}

	outBlocks := map[int]*mir.Block{}
	phiCopies := map[int][]*mir.Inst{} // gmir pred block ID -> copies

	// Blocks and instructions are both processed in reverse: consumers
	// match before producers (so producers fold greedily into larger
	// patterns), and cross-block references register their values before
	// the defining block decides whether a constant is live.
	for _, blk := range f.Blocks {
		ob := &mir.Block{ID: blk.ID}
		outBlocks[blk.ID] = ob
		c.Out.Blocks = append(c.Out.Blocks, ob)
	}
	for bi := len(f.Blocks) - 1; bi >= 0; bi-- {
		blk := f.Blocks[bi]
		ob := outBlocks[blk.ID]
		var emitted [][]*mir.Inst
		for i := len(blk.Insts) - 1; i >= 0; i-- {
			in := blk.Insts[i]
			if c.cover[in] || in.Op == gmir.GPhi {
				continue
			}
			c.cur = nil
			c.curRoot = in
			c.selectRoot(blk, in)
			if c.err != nil {
				report.Fallback = true
				report.FallbackReason = c.err.Error()
				return nil, report
			}
			emitted = append(emitted, c.cur)
		}
		for i := len(emitted) - 1; i >= 0; i-- {
			ob.Insts = append(ob.Insts, emitted[i]...)
		}
	}

	// Phi copies: with critical edges split, every phi edge's
	// predecessor has a single successor; insert copies before its
	// terminator group.
	for _, blk := range f.Blocks {
		for _, in := range blk.Insts {
			if in.Op != gmir.GPhi {
				break
			}
			dst := c.vreg[in.Dst]
			for k, src := range in.Args {
				predID := in.PhiBlocks[k]
				srcReg, ok := c.vreg[src]
				if !ok {
					report.Fallback = true
					report.FallbackReason = fmt.Sprintf("phi input %%%d has no register", src)
					return nil, report
				}
				tmp := c.Out.NewReg()
				phiCopies[predID] = append(phiCopies[predID],
					&mir.Inst{Pseudo: mir.PCopy, Dsts: []mir.Reg{tmp}, Args: []mir.Operand{mir.R(srcReg)}},
					&mir.Inst{Pseudo: mir.PCopy, Dsts: []mir.Reg{dst}, Args: []mir.Operand{mir.R(tmp)}})
			}
		}
	}
	// Interleave the copies correctly: first all reads into temps, then
	// all writes — rebuild per-pred lists as (reads..., writes...).
	for predID, list := range phiCopies {
		var reads, writes []*mir.Inst
		for i := 0; i < len(list); i += 2 {
			reads = append(reads, list[i])
			writes = append(writes, list[i+1])
		}
		seqd := append(reads, writes...)
		ob := outBlocks[predID]
		pos := terminatorStart(ob)
		rest := append([]*mir.Inst(nil), ob.Insts[pos:]...)
		ob.Insts = append(ob.Insts[:pos:pos], append(seqd, rest...)...)
	}
	return c.Out, report
}

// newCtx indexes f for selection: every value's def, use count and
// position.
func (b *Backend) newCtx(f *gmir.Function, report *Report) *Ctx {
	c := &Ctx{
		B: b, F: f,
		Out:    &mir.Func{Name: f.Name},
		def:    map[gmir.Value]*gmir.Inst{},
		uses:   map[gmir.Value]int{},
		vreg:   map[gmir.Value]mir.Reg{},
		cover:  map[*gmir.Inst]bool{},
		pos:    map[*gmir.Inst]instPos{},
		report: report,
	}
	for _, blk := range f.Blocks {
		for idx, in := range blk.Insts {
			c.pos[in] = instPos{blk: blk, idx: idx}
			if in.Dst >= 0 {
				c.def[in.Dst] = in
			}
			for _, a := range in.Args {
				c.uses[a]++
			}
		}
	}
	return c
}

// terminatorStart finds where the trailing branch/ret group begins.
func terminatorStart(b *mir.Block) int {
	i := len(b.Insts)
	for i > 0 {
		in := b.Insts[i-1]
		if in.Pseudo == mir.PRet || len(in.Succs) > 0 {
			i--
			continue
		}
		break
	}
	return i
}

// --- Ctx services for hooks ---

// Emit appends an instruction for the current root, in program order.
func (c *Ctx) Emit(in *mir.Inst) { c.cur = append(c.cur, in) }

// emitGroup appends a group of instructions in program order.
func (c *Ctx) emitGroup(ins []*mir.Inst) { c.cur = append(c.cur, ins...) }

// NewReg allocates a machine register.
func (c *Ctx) NewReg() mir.Reg { return c.Out.NewReg() }

// Inst resolves an ISA instruction by name, panicking on typos (these
// are compile-time-known names in hook code).
func (c *Ctx) Inst(name string) *isa.Instruction {
	in := c.B.ISA.ByName(name)
	if in == nil {
		panic("isel: unknown instruction " + name)
	}
	return in
}

// DefOf returns the defining instruction of a value (nil for params).
func (c *Ctx) DefOf(v gmir.Value) *gmir.Inst { return c.def[v] }

// SingleUse reports whether a value has exactly one use.
func (c *Ctx) SingleUse(v gmir.Value) bool { return c.uses[v] == 1 }

// Covered reports whether an instruction was already matched into a
// pattern.
func (c *Ctx) Covered(in *gmir.Inst) bool { return c.cover[in] }

// MarkCovered consumes an instruction into the current pattern.
func (c *Ctx) MarkCovered(in *gmir.Inst) { c.cover[in] = true }

// ConstOf returns the constant value of v when defined by G_CONSTANT.
func (c *Ctx) ConstOf(v gmir.Value) (bv.BV, bool) {
	if d := c.def[v]; d != nil && d.Op == gmir.GConstant {
		return d.Imm, true
	}
	return bv.BV{}, false
}

// EnsureReg returns (allocating if needed) the register that will hold
// value v — the hook-facing variant of the internal helper.
func (c *Ctx) EnsureReg(v gmir.Value) mir.Reg { return c.ensureReg(v) }

func (c *Ctx) ensureReg(v gmir.Value) mir.Reg {
	if r, ok := c.vreg[v]; ok {
		return r
	}
	r := c.Out.NewReg()
	c.vreg[v] = r
	return r
}

// ValueReg returns the register holding v, scheduling v's def for
// materialization if it has not been selected as a root yet (it will be,
// because roots are processed in reverse and defs precede uses).
func (c *Ctx) ValueReg(v gmir.Value) mir.Reg {
	return c.ensureReg(v)
}

// TypeOf exposes value types to hooks.
func (c *Ctx) TypeOf(v gmir.Value) gmir.Type { return c.F.TypeOf(v) }

// failf records a selection failure (leading to function fallback).
func (c *Ctx) failf(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
}

// --- root selection ---

func (c *Ctx) selectRoot(blk *gmir.Block, in *gmir.Inst) {
	switch in.Op {
	case gmir.GBr:
		c.emitUncondBr(in.Succs[0])
		return
	case gmir.GRet:
		ret := &mir.Inst{Pseudo: mir.PRet}
		if len(in.Args) == 1 {
			ret.Args = []mir.Operand{mir.R(c.ValueReg(in.Args[0]))}
		}
		c.Emit(ret)
		return
	case gmir.GBrCond:
		// Prefer a layout where the fall-through edge needs no extra
		// jump: when the TAKEN successor is the next block instead,
		// invert the branch (what real codegen's block placement does).
		next := c.nextLayoutBlock(blk)
		taken, fall := in.Succs[0], in.Succs[1]
		invert := false
		if fall != next && taken == next {
			taken, fall = fall, taken
			invert = true
		}
		if c.B.Hooks.LowerBrCond != nil && c.B.Hooks.LowerBrCond(c, in.Args[0], taken, invert) {
			c.report.HookInsts++
			c.emitFallthrough(blk, fall)
			return
		}
		c.failf("no lowering for %s", in)
		return
	case gmir.GConstant:
		if _, referenced := c.vreg[in.Dst]; !referenced {
			return // dead or fully folded
		}
		c.materializeConst(in)
		return
	case gmir.GCopy:
		c.Emit(&mir.Inst{Pseudo: mir.PCopy, Dsts: []mir.Reg{c.ensureReg(in.Dst)},
			Args: []mir.Operand{mir.R(c.ValueReg(in.Args[0]))}})
		return
	}

	if !in.Op.IsSelectable() {
		c.failf("unselectable op %s", in)
		return
	}
	// s1 values live in registers as exactly 0 or 1, so zero-extension
	// is a plain copy (dead values skipped below as usual).
	if in.Op == gmir.GZExt && c.F.TypeOf(in.Args[0]) == gmir.S1 {
		if d := c.def[in.Args[0]]; d == nil || c.uses[in.Args[0]] > 1 || c.cover[d] {
			if _, referenced := c.vreg[in.Dst]; referenced || c.uses[in.Dst] > 0 {
				c.Emit(&mir.Inst{Pseudo: mir.PCopy, Dsts: []mir.Reg{c.ensureReg(in.Dst)},
					Args: []mir.Operand{mir.R(c.ValueReg(in.Args[0]))}})
			}
			return
		}
	}
	// Dead value: nothing references it.
	if in.Dst >= 0 {
		if _, referenced := c.vreg[in.Dst]; !referenced && c.uses[in.Dst] == 0 {
			return
		}
	}
	if c.tryRules(in) {
		return
	}
	if c.B.Hooks.LowerInst != nil && c.B.Hooks.LowerInst(c, in) {
		c.report.HookInsts++
		return
	}
	c.failf("no rule for %s", in)
}

// nextLayoutBlock returns the ID of the block after blk in layout order
// (-1 at the end).
func (c *Ctx) nextLayoutBlock(blk *gmir.Block) int {
	for i, b := range c.F.Blocks {
		if b == blk {
			if i+1 < len(c.F.Blocks) {
				return c.F.Blocks[i+1].ID
			}
		}
	}
	return -1
}

// emitUncondBr emits the target's unconditional branch: the first
// instruction whose only operand is an immediate and whose only effect
// writes the PC (B, J and JMP on the builtin targets).
func (c *Ctx) emitUncondBr(target int) {
	var inst *isa.Instruction
	for _, in := range c.B.ISA.Insts {
		if in.HasPCEffect() && len(in.Effects) == 1 && len(in.Operands) == 1 &&
			in.Operands[0].Kind == spec.OpImm {
			inst = in
			break
		}
	}
	if inst == nil {
		c.failf("no unconditional branch instruction")
		return
	}
	c.Emit(&mir.Inst{Meta: inst,
		Args:  []mir.Operand{mir.I(bv.Zero(inst.Operands[0].Width))},
		Succs: []int{target}})
}

// emitFallthrough validates layout or inserts an extra jump.
func (c *Ctx) emitFallthrough(blk *gmir.Block, next int) {
	idx := -1
	for i, b := range c.F.Blocks {
		if b == blk {
			idx = i
		}
	}
	if idx+1 < len(c.F.Blocks) && c.F.Blocks[idx+1].ID == next {
		return // natural fallthrough
	}
	// Conditional branch whose false edge is not the next block: append
	// an unconditional jump after it.
	c.emitUncondBr(next)
}

// materializeConst emits the constant materialization for a referenced
// G_CONSTANT.
func (c *Ctx) materializeConst(in *gmir.Inst) {
	if c.B.Hooks.MatConst == nil {
		c.failf("no constant materialization hook")
		return
	}
	reg, ok := c.B.Hooks.MatConst(c, in.Imm)
	if !ok {
		c.failf("cannot materialize constant %s", in.Imm)
		return
	}
	c.report.HookInsts++
	dst := c.ensureReg(in.Dst)
	c.Emit(&mir.Inst{Pseudo: mir.PCopy, Dsts: []mir.Reg{dst}, Args: []mir.Operand{mir.R(reg)}})
}

// tryRules attempts rule-based selection at root `in`, largest pattern
// first (greedy), falling through rule chains on failed immediate
// constraints.
func (c *Ctx) tryRules(in *gmir.Inst) bool {
	key := rules.RootKey{Op: int(in.Op), Bits: in.Ty.Bits, Pred: int(in.Pred), MemBits: in.MemBits}
	if in.Op == gmir.GStore {
		key.Bits = 0
	}
	for _, r := range c.B.Lib.Candidates(key) {
		if b := c.matchPattern(r, in); b != nil && c.emitRule(r, in, b) {
			return true
		}
	}
	// Bool-valued roots (s1) have no direct rules (ISA registers are
	// 32/64-bit): match as zext-to-32/64 and keep the 0/1 value.
	return in.Ty == gmir.S1 && in.Op != gmir.GStore && c.tryBoolRoot(in)
}

// tryBoolRoot wraps an s1 root in a synthetic zext pattern root: the
// matched rule produces the 0/1 value in a full-width register, which is
// exactly the s1 register convention.
func (c *Ctx) tryBoolRoot(in *gmir.Inst) bool {
	for _, bits := range []int{32, 64} {
		key := rules.RootKey{Op: int(gmir.GZExt), Bits: bits}
		for _, r := range c.B.Lib.Candidates(key) {
			root := r.Pattern.Root
			if len(root.Args) != 1 || root.Args[0].IsLeaf() {
				continue
			}
			// Match the zext's operand subtree directly at the root (no
			// single-use requirement: `in` IS the root being selected).
			if b := c.matchAt(r, root.Args[0], in); b != nil && c.emitRule(r, in, b) {
				return true
			}
		}
	}
	return false
}

// instPos locates an instruction for load-folding safety checks.
type instPos struct {
	blk *gmir.Block
	idx int
}

// valOperand identifies a matched gMIR operand.
type valOperand struct {
	val gmir.Value
	def *gmir.Inst
}

// binding maps pattern leaves to matched operands, and records interior
// instructions to cover.
type matchBinding struct {
	leafVals []valOperand
	interior []*gmir.Inst
}

// matchPattern matches a rule's full pattern at root `in`.
func (c *Ctx) matchPattern(r *rules.Rule, in *gmir.Inst) *matchBinding {
	return c.matchAt(r, r.Pattern.Root, in)
}

// matchAt matches the subtree n of r's pattern, whose leaves are all of
// the pattern's leaves, at instruction `in`, then checks r's constant
// and immediate constraints, returning nil on a miss. The binding it
// returns is c.bind: valid until the next match, and allocation-free
// once c.bind has grown to the largest pattern.
func (c *Ctx) matchAt(r *rules.Rule, n *pattern.Node, in *gmir.Inst) *matchBinding {
	b := &c.bind
	leaves := countLeaves(n)
	if cap(b.leafVals) < leaves {
		b.leafVals = make([]valOperand, leaves)
	}
	b.leafVals = b.leafVals[:leaves]
	clear(b.leafVals)
	b.interior = b.interior[:0]
	leafIdx := 0
	if !c.matchTree(n, in, b, &leafIdx) {
		return nil
	}
	// Exact-constant leaf constraints (manual rules like BIC's xor -1).
	for leaf, want := range r.LeafConsts {
		cv, ok := c.ConstOf(b.leafVals[leaf].val)
		if !ok || cv != want {
			return nil
		}
	}
	// Immediate constraints: every imm leaf must decode.
	for _, src := range r.Operands {
		if src.Kind != rules.SrcLeaf || src.Embed == nil {
			continue
		}
		cv, ok := c.ConstOf(b.leafVals[src.Leaf].val)
		if !ok {
			return nil
		}
		if _, ok := src.Embed.Decode(cv); !ok {
			return nil
		}
	}
	return b
}

func countLeaves(n *pattern.Node) int {
	if n.IsLeaf() {
		return 1
	}
	c := 0
	for _, a := range n.Args {
		c += countLeaves(a)
	}
	return c
}

// matchTree matches the root node against instruction `in`.
func (c *Ctx) matchTree(n *pattern.Node, in *gmir.Inst, b *matchBinding, leafIdx *int) bool {
	if n.IsLeaf() {
		return false
	}
	if n.Op != in.Op || n.Ty != in.Ty || n.Pred != in.Pred || n.MemBits != in.MemBits {
		return false
	}
	if len(n.Args) != len(in.Args) {
		return false
	}
	for i, a := range n.Args {
		vo := valOperand{val: in.Args[i], def: c.def[in.Args[i]]}
		if !c.matchSub(a, vo, b, leafIdx) {
			return false
		}
	}
	return true
}

// matchSub matches a pattern node (leaf or interior) against an operand.
func (c *Ctx) matchSub(n *pattern.Node, vo valOperand, b *matchBinding, leafIdx *int) bool {
	if n.IsLeaf() {
		if n.Ty != c.F.TypeOf(vo.val) {
			return false
		}
		if !n.LeafReg {
			// Immediate leaf: the operand must be a constant def.
			if vo.def == nil || vo.def.Op != gmir.GConstant {
				return false
			}
		}
		b.leafVals[*leafIdx] = vo
		*leafIdx++
		return true
	}
	// Interior: the operand must be defined by a matching, single-use,
	// not-yet-covered instruction (folding a multi-use def would
	// duplicate work).
	if vo.def == nil || c.cover[vo.def] || !c.SingleUse(vo.val) {
		return false
	}
	// Folding a load moves it to the root's position: only sound within
	// one block with no intervening store.
	if vo.def.Op == gmir.GLoad || vo.def.Op == gmir.GSLoad {
		if !c.loadFoldSafe(vo.def) {
			return false
		}
	}
	if !c.matchTree(n, vo.def, b, leafIdx) {
		return false
	}
	b.interior = append(b.interior, vo.def)
	return true
}

// loadFoldSafe reports whether folding `load` into the current root
// crosses no store.
func (c *Ctx) loadFoldSafe(load *gmir.Inst) bool {
	lp, ok1 := c.pos[load]
	rp, ok2 := c.pos[c.curRoot]
	if !ok1 || !ok2 || lp.blk != rp.blk {
		return false
	}
	for i := lp.idx + 1; i < rp.idx; i++ {
		if lp.blk.Insts[i].Op == gmir.GStore {
			return false
		}
	}
	return true
}

// emitRule emits the machine instructions of a matched rule.
func (c *Ctx) emitRule(r *rules.Rule, root *gmir.Inst, b *matchBinding) bool {
	// Resolve operand values first (no emission yet), parallel to
	// seq.Inputs.
	seq := r.Seq
	inVals := c.inVals[:0]
	for k, in := range seq.Inputs {
		src := r.Operands[k]
		var op mir.Operand
		switch src.Kind {
		case rules.SrcConst:
			op = mir.I(src.Const)
		case rules.SrcLeaf:
			vo := b.leafVals[src.Leaf]
			if src.Embed != nil {
				cv, _ := c.ConstOf(vo.val)
				e, ok := src.Embed.Decode(cv)
				if !ok {
					return false
				}
				if e.W() < in.Op.Width {
					e = e.ZExt(in.Op.Width)
				}
				op = mir.I(e)
			} else {
				op = mir.R(c.ValueReg(vo.val))
			}
		}
		inVals = append(inVals, op)
	}
	c.inVals = inVals

	// Wire intermediate results through fresh registers; the final
	// instruction writes the root's register.
	var prevReg mir.Reg
	var emitted []*mir.Inst
	for idx, inst := range seq.Insts {
		m := &mir.Inst{Meta: inst}
		for _, opnd := range inst.Operands {
			if k := inputOf(seq, idx, opnd.Name); k >= 0 {
				m.Args = append(m.Args, inVals[k])
				continue
			}
			wired := false
			for _, wname := range seq.Wirings[idx] {
				if wname == opnd.Name {
					wired = true
				}
			}
			if wired {
				m.Args = append(m.Args, mir.R(prevReg))
			} else if opnd.Kind == spec.OpImm {
				// Fixed by sequence specialization, else pruned as unused
				// (safe to emit zero).
				val := bv.Zero(opnd.Width)
				for _, fi := range seq.FixedImms {
					if fi.Inst == idx && fi.Op == opnd.Name {
						val = fi.Val
					}
				}
				m.Args = append(m.Args, mir.I(val))
			} else {
				return false
			}
		}
		// Destination registers.
		if hasRegEffect(inst) {
			var dst mir.Reg
			if idx == len(seq.Insts)-1 && root.Dst >= 0 {
				dst = c.ensureReg(root.Dst)
			} else {
				dst = c.NewReg()
			}
			m.Dsts = []mir.Reg{dst}
			prevReg = dst
		}
		emitted = append(emitted, m)
	}
	c.emitGroup(emitted)
	for _, in := range b.interior {
		c.MarkCovered(in)
	}
	c.report.RuleInsts += 1 + len(b.interior)
	c.report.RulesUsed = append(c.report.RulesUsed, r.SeqName())
	return true
}

// inputOf returns the index of the sequence input that feeds operand op
// of instruction idx (the last one, should two name it), or -1.
func inputOf(seq *isa.Sequence, idx int, op string) int {
	for k := len(seq.Inputs) - 1; k >= 0; k-- {
		if in := seq.Inputs[k]; in.Inst == idx && in.Op.Name == op {
			return k
		}
	}
	return -1
}

func hasRegEffect(inst *isa.Instruction) bool {
	for _, e := range inst.Effects {
		if e.Kind == spec.EffReg {
			return true
		}
	}
	return false
}

// Prepare runs the pre-selection gMIR passes a target expects — the
// analog of the last middle-end/legalization steps before GlobalISel's
// selector runs: constant CSE, plus expansions for operations the target
// has no instruction for (remainder on AArch64, abs on RISC-V).
func Prepare(f *gmir.Function, target string) {
	gmir.CSEConstants(f)
	switch PrepareVariant(target) {
	case "aarch64":
		gmir.LowerRem(f)
	case "riscv":
		gmir.LowerAbs(f)
	}
}

// PrepareVariant names the passes Prepare runs for a target: "aarch64"
// and "riscv" have their own, and every other target shares "". Two
// targets with one variant prepare every function alike.
func PrepareVariant(target string) string {
	switch target {
	case "aarch64", "riscv":
		return target
	}
	return ""
}
