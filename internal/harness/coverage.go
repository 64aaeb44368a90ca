package harness

import (
	"iselgen/internal/bv"
	"iselgen/internal/gmir"
	"iselgen/internal/pattern"
	"iselgen/internal/rules"
)

// functionForRule builds a one-function test case realizing a rule's
// pattern (§VIII-B): register leaves become parameters, immediate leaves
// become constants the rule's operand embeddings can represent.
func functionForRule(r *rules.Rule) (*gmir.Function, bool) {
	fb := gmir.NewFunc("case_" + r.Seq.Insts[0].Name)
	leaves := r.Pattern.Leaves()
	vals := make([]gmir.Value, len(leaves))
	for i, l := range leaves {
		if l.LeafReg {
			vals[i] = fb.Param(l.Ty)
			continue
		}
		v := bv.New(l.Ty.Bits, 1)
		for _, src := range r.Operands {
			if src.Kind == rules.SrcLeaf && src.Leaf == i && src.Embed != nil {
				v = bv.New(l.Ty.Bits, 1).ShlN(uint(src.Embed.Shift))
			}
		}
		if want, ok := r.LeafConsts[i]; ok {
			v = want
		}
		vals[i] = fb.ConstBV(v)
	}
	idx := 0
	var build func(n *pattern.Node) (gmir.Value, bool)
	build = func(n *pattern.Node) (gmir.Value, bool) {
		if n.IsLeaf() {
			v := vals[idx]
			idx++
			return v, true
		}
		var args []gmir.Value
		for _, a := range n.Args {
			v, ok := build(a)
			if !ok {
				return -1, false
			}
			args = append(args, v)
		}
		return emitInst(fb, &gmir.Inst{Op: n.Op, Ty: n.Ty, Pred: n.Pred, MemBits: n.MemBits, Args: args})
	}
	root, ok := build(r.Pattern.Root)
	if !ok {
		return nil, false
	}
	fb.Ret(root) // -1 for a store
	f, err := fb.Finish()
	return f, err == nil
}

// emitInst replays a pattern node through the builder API; a node the
// builder rejects reports false.
func emitInst(fb *gmir.FuncBuilder, in *gmir.Inst) (v gmir.Value, ok bool) {
	defer func() {
		if recover() != nil {
			v, ok = -1, false
		}
	}()
	a := in.Args
	switch in.Op {
	case gmir.GICmp:
		return fb.ICmp(in.Pred, a[0], a[1]), true
	case gmir.GSelect:
		return fb.Select(a[0], a[1], a[2]), true
	case gmir.GZExt:
		return fb.ZExt(in.Ty, a[0]), true
	case gmir.GSExt:
		return fb.SExt(in.Ty, a[0]), true
	case gmir.GTrunc:
		return fb.Trunc(in.Ty, a[0]), true
	case gmir.GLoad:
		return fb.Load(in.Ty, a[0], in.MemBits), true
	case gmir.GSLoad:
		return fb.SLoad(in.Ty, a[0], in.MemBits), true
	case gmir.GStore:
		fb.Store(a[0], a[1], in.MemBits)
		return -1, true
	case gmir.GCtpop, gmir.GCtlz, gmir.GCttz, gmir.GBSwap, gmir.GAbs:
		return fb.Unary(in.Op, a[0]), true
	}
	return fb.Binary(in.Op, a[0], a[1]), true
}
