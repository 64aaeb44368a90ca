// Package pattern represents IR patterns — trees of gMIR operations with
// free operand leaves — and implements the paper's corpus-driven pattern
// pool (§VII-B): instruction trees are extracted from compiled real-world
// functions, deduplicated, ranked by occurrence frequency, and fed to the
// synthesizer most-frequent-first.
package pattern

import (
	"fmt"
	"sort"
	"strings"

	"iselgen/internal/gmir"
	"iselgen/internal/term"
)

// Node is one node of a pattern tree: either an operation or a leaf.
type Node struct {
	// Leaf: Op == gmir.OpInvalid. LeafReg distinguishes register leaves
	// from immediate leaves (a G_CONSTANT operand becomes an immediate
	// leaf whose value is bound at selection time).
	Op      gmir.Opcode
	Ty      gmir.Type
	Pred    gmir.Pred
	MemBits int
	Args    []*Node
	LeafReg bool
}

// Pattern is a tree of gMIR operations rooted at a selectable
// instruction. Leaves are numbered left-to-right in depth-first order.
type Pattern struct {
	Root *Node
	key  string
}

// IsLeaf reports whether the node is a free operand.
func (n *Node) IsLeaf() bool { return n.Op == gmir.OpInvalid }

// Size returns the number of operation nodes (the paper's pattern-size
// metric: number of gMIR instructions).
func (p *Pattern) Size() int { return opCount(p.Root) }

func opCount(n *Node) int {
	if n.IsLeaf() {
		return 0
	}
	c := 1
	for _, a := range n.Args {
		c += opCount(a)
	}
	return c
}

// Leaves returns the leaf nodes in depth-first order.
func (p *Pattern) Leaves() []*Node {
	var out []*Node
	var walk func(*Node)
	walk = func(n *Node) {
		if n.IsLeaf() {
			out = append(out, n)
			return
		}
		for _, a := range n.Args {
			walk(a)
		}
	}
	walk(p.Root)
	return out
}

// Key returns a canonical string identity for deduplication and counting.
func (p *Pattern) Key() string {
	if p.key == "" {
		var sb strings.Builder
		writeKey(&sb, p.Root)
		p.key = sb.String()
	}
	return p.key
}

func writeKey(sb *strings.Builder, n *Node) {
	if n.IsLeaf() {
		kind := "r"
		if !n.LeafReg {
			kind = "i"
		}
		fmt.Fprintf(sb, "%s%d", kind, n.Ty.Bits)
		return
	}
	fmt.Fprintf(sb, "(%d:%d", int(n.Op), n.Ty.Bits)
	if n.Op == gmir.GICmp {
		fmt.Fprintf(sb, ":%d", int(n.Pred))
	}
	if n.MemBits != 0 {
		fmt.Fprintf(sb, "m%d", n.MemBits)
	}
	for _, a := range n.Args {
		sb.WriteByte(' ')
		writeKey(sb, a)
	}
	sb.WriteByte(')')
}

// String renders the pattern in a TableGen-flavoured form, e.g.
// "(s64 G_ADD r64:$p0, (s64 G_SHL r64:$p1, i64:$p2))".
func (p *Pattern) String() string {
	var sb strings.Builder
	idx := 0
	var walk func(*Node)
	walk = func(n *Node) {
		if n.IsLeaf() {
			kind := "r"
			if !n.LeafReg {
				kind = "i"
			}
			fmt.Fprintf(&sb, "%s%d:$p%d", kind, n.Ty.Bits, idx)
			idx++
			return
		}
		fmt.Fprintf(&sb, "(%s %s", n.Ty, n.Op)
		if n.Op == gmir.GICmp {
			fmt.Fprintf(&sb, " intpred(%s)", n.Pred)
		}
		if n.MemBits != 0 {
			fmt.Fprintf(&sb, " [mem %d]", n.MemBits)
		}
		for i, a := range n.Args {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteByte(' ')
			walk(a)
		}
		sb.WriteByte(')')
	}
	walk(p.Root)
	return sb.String()
}

// LeafName returns the canonical variable name for pattern leaf i. The
// kind and width are part of the name so that leaves of different
// patterns sharing one term builder never collide.
func LeafName(i int, leaf *Node) string {
	kind := "r"
	if !leaf.LeafReg {
		kind = "i"
	}
	return fmt.Sprintf("p%d.%s%d", i, kind, leaf.Ty.Bits)
}

// LeafVar returns the term variable used for pattern leaf i.
func LeafVar(b *term.Builder, i int, leaf *Node) *term.Term {
	if leaf.LeafReg {
		return b.VarT(LeafName(i, leaf), term.KindReg, leaf.Ty.Bits)
	}
	return b.VarT(LeafName(i, leaf), term.KindImm, leaf.Ty.Bits)
}

// Compile builds the pattern's semantics as a bitvector term over leaf
// variables p0, p1, ... (the IR side of a synthesis query).
func (p *Pattern) Compile(b *term.Builder) (*term.Term, error) {
	idx := 0
	var walk func(n *Node) (*term.Term, error)
	walk = func(n *Node) (*term.Term, error) {
		if n.IsLeaf() {
			v := LeafVar(b, idx, n)
			idx++
			return v, nil
		}
		args := make([]*term.Term, len(n.Args))
		for i, a := range n.Args {
			t, err := walk(a)
			if err != nil {
				return nil, err
			}
			args[i] = t
		}
		in := &gmir.Inst{Op: n.Op, Ty: n.Ty, Pred: n.Pred, MemBits: n.MemBits}
		return gmir.InstTerm(b, in, args)
	}
	return walk(p.Root)
}

// IsStore reports whether the pattern's root is a store (its compiled
// term is a memory effect rather than a value).
func (p *Pattern) IsStore() bool { return p.Root.Op == gmir.GStore }

// --- corpus extraction (§VII-B) ---

// Extractor counts pattern-tree occurrences across a corpus of gMIR
// functions, the reproduction's analog of running LLVM on CTMark and
// tracking all instruction trees up to depth 6.
type Extractor struct {
	MaxSize int // maximum operation nodes per pattern (paper: 6)
	counts  map[string]*entry
}

type entry struct {
	pat   *Pattern
	count int
}

// NewExtractor returns an extractor with the paper's size limit.
func NewExtractor() *Extractor {
	return &Extractor{MaxSize: 6, counts: map[string]*entry{}}
}

// AddFunction extracts and counts all trees of every function instruction.
func (e *Extractor) AddFunction(f *gmir.Function) {
	uses := map[gmir.Value]int{}
	def := map[gmir.Value]*gmir.Inst{}
	for _, b := range f.Blocks {
		for _, in := range b.Insts {
			for _, a := range in.Args {
				uses[a]++
			}
			if in.Dst >= 0 {
				def[in.Dst] = in
			}
		}
	}
	for _, b := range f.Blocks {
		for _, in := range b.Insts {
			if !in.Op.IsSelectable() || in.Op == gmir.GConstant {
				continue
			}
			for _, tree := range e.trees(f, in, def, uses, e.MaxSize) {
				p := &Pattern{Root: tree}
				k := p.Key()
				if ent, ok := e.counts[k]; ok {
					ent.count++
				} else {
					e.counts[k] = &entry{pat: p, count: 1}
				}
			}
		}
	}
}

// trees enumerates all pattern trees rooted at in with at most budget
// operation nodes: each operand either becomes a leaf or (when it is a
// single-use selectable def in the same function) is expanded further.
func (e *Extractor) trees(f *gmir.Function, in *gmir.Inst, def map[gmir.Value]*gmir.Inst, uses map[gmir.Value]int, budget int) []*Node {
	if budget <= 0 {
		return nil
	}
	// Enumerate choices per operand.
	perArg := make([][]*Node, len(in.Args))
	for i, a := range in.Args {
		ty := f.TypeOf(a)
		leaf := &Node{Ty: ty, LeafReg: true}
		d := def[a]
		if d != nil && d.Op == gmir.GConstant {
			leaf = &Node{Ty: ty, LeafReg: false}
		}
		perArg[i] = []*Node{leaf}
		if d != nil && d.Op.IsSelectable() && d.Op != gmir.GConstant &&
			d.Op != gmir.GStore && uses[a] == 1 {
			for _, sub := range e.trees(f, d, def, uses, budget-1) {
				perArg[i] = append(perArg[i], sub)
			}
		}
	}
	// Cartesian product, pruned by total size.
	var out []*Node
	var build func(i int, args []*Node, used int)
	build = func(i int, args []*Node, used int) {
		if used > budget-1 {
			return
		}
		if i == len(in.Args) {
			n := &Node{Op: in.Op, Ty: in.Ty, Pred: in.Pred, MemBits: in.MemBits,
				Args: append([]*Node(nil), args...)}
			out = append(out, n)
			return
		}
		for _, choice := range perArg[i] {
			build(i+1, append(args, choice), used+opCount(choice))
		}
	}
	build(0, nil, 0)
	return out
}

// Ranked returns the distinct patterns ordered by descending frequency
// (ties broken by smaller size, then key, for determinism).
func (e *Extractor) Ranked() []*Pattern {
	ents := make([]*entry, 0, len(e.counts))
	for _, ent := range e.counts {
		ents = append(ents, ent)
	}
	sort.Slice(ents, func(i, j int) bool {
		if ents[i].count != ents[j].count {
			return ents[i].count > ents[j].count
		}
		si, sj := ents[i].pat.Size(), ents[j].pat.Size()
		if si != sj {
			return si < sj
		}
		return ents[i].pat.Key() < ents[j].pat.Key()
	})
	out := make([]*Pattern, len(ents))
	for i, ent := range ents {
		out[i] = ent.pat
	}
	return out
}

// --- convenience constructors for tests and manual rules ---

// Leaf builds a register leaf.
func Leaf(ty gmir.Type) *Node { return &Node{Ty: ty, LeafReg: true} }

// ImmLeaf builds an immediate (constant-operand) leaf.
func ImmLeaf(ty gmir.Type) *Node { return &Node{Ty: ty, LeafReg: false} }

// Op builds an operation node.
func Op(op gmir.Opcode, ty gmir.Type, args ...*Node) *Node {
	return &Node{Op: op, Ty: ty, Args: args}
}

// LoadOp builds a load node.
func LoadOp(op gmir.Opcode, ty gmir.Type, memBits int, addr *Node) *Node {
	return &Node{Op: op, Ty: ty, MemBits: memBits, Args: []*Node{addr}}
}

// StoreOp builds a store node.
func StoreOp(memBits int, val, addr *Node) *Node {
	return &Node{Op: gmir.GStore, MemBits: memBits, Args: []*Node{val, addr}}
}

// New wraps a root node into a Pattern.
func New(root *Node) *Pattern { return &Pattern{Root: root} }
