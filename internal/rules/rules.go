// Package rules defines synthesized instruction selection rules: an IR
// pattern, a matched instruction sequence, the operand correspondence
// between them, and the immediate constraints discovered during
// unification or SMT search (paper §V-A2, §VI-A). It also implements the
// paper's cost metric and the TableGen-flavoured textual emission of
// Listing 1.
package rules

import (
	"fmt"
	"sort"
	"strings"

	"iselgen/internal/bv"
	"iselgen/internal/cost"
	"iselgen/internal/isa"
	"iselgen/internal/pattern"
	"iselgen/internal/term"
)

// Embed describes how an IR constant embeds into a narrower ISA
// immediate: value = ext(e) << Shift, where ext is zero- or
// sign-extension to the IR width. A rule with an Embed applies only to
// constants in the image of the embedding (checked by Decode at
// selection time) — the representability constraints of §V-A2.
type Embed struct {
	Width  int  // ISA immediate width
	Signed bool // sign-extended embedding
	Shift  int  // scale (log2): scaled addressing / shifted immediates
}

// Decode returns the ISA immediate operand encoding v, and whether v is
// representable under the embedding.
func (em Embed) Decode(v bv.BV) (bv.BV, bool) {
	shifted := v.LShrN(uint(em.Shift))
	if em.Width > shifted.W() {
		return bv.BV{}, false
	}
	e := shifted.Trunc(em.Width)
	var back bv.BV
	if em.Signed {
		back = e.SExt(v.W())
	} else {
		back = e.ZExt(v.W())
	}
	back = back.ShlN(uint(em.Shift))
	if back != v {
		return bv.BV{}, false
	}
	return e, true
}

// Term builds embed(e) as a term of the given width, for verification
// queries: the IR pattern's immediate variable is substituted by this
// term over the ISA immediate variable e.
func (em Embed) Term(b *term.Builder, e *term.Term, width int) *term.Term {
	var t *term.Term
	if em.Signed {
		t = b.SExt(width, e)
	} else {
		t = b.ZExt(width, e)
	}
	if em.Shift != 0 {
		t = b.Shl(t, b.Const(width, uint64(em.Shift)))
	}
	return t
}

func (em Embed) String() string {
	s := "zext"
	if em.Signed {
		s = "sext"
	}
	if em.Shift != 0 {
		return fmt.Sprintf("%s%d_shl%d", s, em.Width, em.Shift)
	}
	return fmt.Sprintf("%s%d", s, em.Width)
}

// SourceKind says where an ISA operand's value comes from at selection
// time.
type SourceKind int

// Operand source kinds.
const (
	SrcLeaf  SourceKind = iota // a pattern leaf (register or immediate)
	SrcConst                   // a fixed constant (e.g. an immediate bound to zero)
)

// OperandSource maps one sequence input to its origin.
type OperandSource struct {
	Kind  SourceKind
	Leaf  int    // pattern leaf index (SrcLeaf)
	Embed *Embed // for immediate leaves with a representability constraint
	Const bv.BV  // SrcConst value
}

// Rule is one synthesized (or manual) instruction selection rule.
type Rule struct {
	Pattern  *pattern.Pattern
	Seq      *isa.Sequence
	Operands []OperandSource // parallel to Seq.Inputs
	// LeafConsts constrains immediate leaves to exact constant values
	// (e.g. the xor-with-minus-one of a BIC pattern); keyed by leaf index.
	LeafConsts map[int]bv.BV
	// Source records the discovery path: "index", "smt", or "manual"
	// (§VIII: manual rules cover operations outside the synthesis scope).
	// Together with Prov it forms the rule's provenance: Source is the
	// proof origin, Prov the facts the proof depends on.
	Source string
	// Prov lists, per supporting instruction, the content fingerprint its
	// semantics had when the rule was established (name-sorted). Stamped
	// by Library.Add; the incremental planner reuses a rule only if every
	// supporting fingerprint is unchanged in the new spec.
	Prov []InstFP

	seqName string // Seq.String(), stamped by Library.Add
}

// SeqName is the rule's sequence rendered as Seq.String() ("INST1 ;
// INST2"). Library.Add computes it once (a rule is immutable after Add),
// so the selector's Report.RulesUsed reuses one string per rule.
func (r *Rule) SeqName() string {
	if r.seqName != "" {
		return r.seqName
	}
	return r.Seq.String()
}

// Cost is the paper's metric: total input operands over the sequence.
func (r *Rule) Cost() int { return r.Seq.Cost() }

// String renders the rule in the TableGen-flavoured form of Listing 1.
func (r *Rule) String() string {
	var sb strings.Builder
	sb.WriteString("def : GeneratedPattern<\n  ")
	sb.WriteString(r.Pattern.String())
	sb.WriteString(",\n  (")
	for i, inst := range r.Seq.Insts {
		if i > 0 {
			sb.WriteString(" ; ")
		}
		sb.WriteString(inst.Name)
	}
	for i, src := range r.Operands {
		if i < len(r.Seq.Inputs) {
			sb.WriteByte(' ')
		}
		switch src.Kind {
		case SrcLeaf:
			if src.Embed != nil {
				fmt.Fprintf(&sb, "(%s $p%d)", src.Embed, src.Leaf)
			} else {
				fmt.Fprintf(&sb, "$p%d", src.Leaf)
			}
		case SrcConst:
			fmt.Fprintf(&sb, "%s", src.Const)
		}
	}
	sb.WriteString(")>;")
	return sb.String()
}

// RootKey identifies the pattern root shape for selector dispatch.
type RootKey struct {
	Op      int // gmir.Opcode
	Bits    int
	Pred    int
	MemBits int
}

// KeyOf computes the dispatch key of a pattern.
func KeyOf(p *pattern.Pattern) RootKey {
	return RootKey{
		Op:      int(p.Root.Op),
		Bits:    p.Root.Ty.Bits,
		Pred:    int(p.Root.Pred),
		MemBits: p.Root.MemBits,
	}
}

// Library is a set of rules indexed for greedy largest-pattern-first
// selection (paper §II-B). Multiple rules may exist per pattern with
// different immediate constraints; the selector tries them
// cheapest-first and falls through on unrepresentable constants.
type Library struct {
	Target  string
	Rules   []*Rule
	byRoot  map[RootKey][]*Rule
	byKey   map[string][]*Rule // cost-sorted rules per pattern key
	sortedQ bool
	// Model is ignored: rules rank by the paper's operand count
	// (Rule.Cost).
	//
	// Deprecated: only the frozen benchmark's replay (cmd/iselperf) still
	// sets it; the benchmark change of ROADMAP item 2 deletes it.
	Model *cost.Table
}

// maxRulesPerPattern caps constraint-variant chains per pattern.
const maxRulesPerPattern = 8

// NewLibrary returns an empty rule library.
func NewLibrary(target string) *Library {
	return &Library{Target: target, byRoot: map[RootKey][]*Rule{}, byKey: map[string][]*Rule{}}
}

// Add inserts a rule, keeping the per-pattern chain cost-sorted and
// dropping exact duplicates (same sequence and operand shape). Rules are
// stamped with their provenance (supporting instruction fingerprints) on
// insertion, so every library — synthesized, manual, or loaded — carries
// the reuse metadata the incremental planner needs.
func (l *Library) Add(r *Rule) {
	// Stamp only once: a rule reused into a new library may be read by
	// selectors of the library it came from.
	if r.seqName == "" {
		r.seqName = r.Seq.String()
	}
	if r.Prov == nil {
		r.Prov = SupportOf(r.Seq)
	}
	key := r.Pattern.Key()
	chain := l.byKey[key]
	sig := ruleSig(r)
	for _, old := range chain {
		if ruleSig(old) == sig {
			return
		}
	}
	if len(chain) >= maxRulesPerPattern {
		return
	}
	// Insertion point: cost, then content signature — equal-cost rules
	// land in the same slot whatever order Add saw them in, so Lookup's
	// winner never depends on worker scheduling.
	pos := len(chain)
	rc := r.Cost()
	for i, old := range chain {
		oc := old.Cost()
		if rc < oc || (rc == oc && sig < ruleSig(old)) {
			pos = i
			break
		}
	}
	chain = append(chain, nil)
	copy(chain[pos+1:], chain[pos:])
	chain[pos] = r
	l.byKey[key] = chain
	l.Rules = append(l.Rules, r)
	rk := KeyOf(r.Pattern)
	l.byRoot[rk] = append(l.byRoot[rk], r)
	l.sortedQ = false
}

func ruleSig(r *Rule) string {
	var sb strings.Builder
	sb.WriteString(r.SeqName())
	for leaf, v := range r.LeafConsts {
		fmt.Fprintf(&sb, "|k%d=%s", leaf, v)
	}
	for _, op := range r.Operands {
		switch op.Kind {
		case SrcLeaf:
			fmt.Fprintf(&sb, "|l%d", op.Leaf)
			if op.Embed != nil {
				fmt.Fprintf(&sb, ":%s", op.Embed)
			}
		case SrcConst:
			fmt.Fprintf(&sb, "|c%s", op.Const)
		}
	}
	return sb.String()
}

// RuleFP computes the content-addressed identity of a single rule: the
// SHA-256 over its pattern key and a deterministic rendering of its
// sequence, bound constants (key-sorted — ruleSig's map order is fine
// for intra-process dedupe but a fingerprint must be stable across
// processes), and operand sources. The service's provenance endpoint
// (/v1/rules/{fingerprint}/why) addresses rules by this value.
func RuleFP(r *Rule) string {
	parts := []string{"rule-v1", r.Pattern.Key(), r.Seq.String()}
	if len(r.LeafConsts) > 0 {
		ks := make([]int, 0, len(r.LeafConsts))
		for leaf := range r.LeafConsts {
			ks = append(ks, leaf)
		}
		sort.Ints(ks)
		for _, leaf := range ks {
			parts = append(parts, fmt.Sprintf("k%d=%s", leaf, r.LeafConsts[leaf]))
		}
	}
	for _, op := range r.Operands {
		switch op.Kind {
		case SrcLeaf:
			s := fmt.Sprintf("l%d", op.Leaf)
			if op.Embed != nil {
				s += ":" + op.Embed.String()
			}
			parts = append(parts, s)
		case SrcConst:
			parts = append(parts, fmt.Sprintf("c%s", op.Const))
		}
	}
	return isa.Fingerprint(parts...)
}

// Lookup returns the cheapest rule for a pattern key, or nil.
func (l *Library) Lookup(key string) *Rule {
	if chain := l.byKey[key]; len(chain) > 0 {
		return chain[0]
	}
	return nil
}

// LookupAll returns the cost-sorted rule chain for a pattern key.
func (l *Library) LookupAll(key string) []*Rule { return l.byKey[key] }

// Candidates returns rules whose pattern root matches the key, ordered
// largest-pattern-first (greedy matching), ties by cost, then by number
// of folded immediates (an immediate operand avoids materializing the
// constant into a register).
func (l *Library) Candidates(k RootKey) []*Rule {
	if !l.sortedQ {
		l.Freeze()
	}
	return l.byRoot[k]
}

// Freeze sorts every per-root candidate chain into greedy dispatch
// order. Candidates does this lazily on first use, which mutates the
// library; a caller that will serve a library to concurrent selectors
// (the selection service) must Freeze it once after the last Add, after
// which Candidates is a pure read and safe to call from many goroutines.
func (l *Library) Freeze() {
	for _, rs := range l.byRoot {
		sort.Slice(rs, func(i, j int) bool {
			si, sj := rs[i].Pattern.Size(), rs[j].Pattern.Size()
			if si != sj {
				return si > sj
			}
			if ci, cj := rs[i].Cost(), rs[j].Cost(); ci != cj {
				return ci < cj
			}
			if ii, ij := immLeafCount(rs[i]), immLeafCount(rs[j]); ii != ij {
				return ii > ij
			}
			// Full content order last: equal-rank rules dispatch in a
			// stable order regardless of synthesis worker scheduling.
			if ki, kj := rs[i].Pattern.Key(), rs[j].Pattern.Key(); ki != kj {
				return ki < kj
			}
			return ruleSig(rs[i]) < ruleSig(rs[j])
		})
	}
	l.sortedQ = true
}

func immLeafCount(r *Rule) int {
	n := 0
	for _, l := range r.Pattern.Leaves() {
		if !l.LeafReg {
			n++
		}
	}
	return n
}

// Len returns the number of rules.
func (l *Library) Len() int { return len(l.Rules) }

// Emit renders the whole library as TableGen-flavoured text.
func (l *Library) Emit() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "// Generated instruction selection rules for %s: %d rules.\n",
		l.Target, len(l.Rules))
	for _, r := range l.Rules {
		fmt.Fprintf(&sb, "// cost %d, source %s\n%s\n", r.Cost(), r.Source, r)
	}
	return sb.String()
}

// Stats summarizes the library composition (used by the Fig. 6 harness).
type Stats struct {
	Rules          int            `json:"rules"`
	BySource       map[string]int `json:"by_source"`
	BySeqLen       map[int]int    `json:"by_seq_len"`
	ByPatternSize  map[int]int    `json:"by_pattern_size"`
	RulesWithImmCs int            `json:"rules_with_imm_constraints"`
}

// Summarize computes library statistics.
func (l *Library) Summarize() Stats {
	s := Stats{
		Rules:         len(l.Rules),
		BySource:      map[string]int{},
		BySeqLen:      map[int]int{},
		ByPatternSize: map[int]int{},
	}
	for _, r := range l.Rules {
		s.BySource[r.Source]++
		s.BySeqLen[r.Seq.Len()]++
		s.ByPatternSize[r.Pattern.Size()]++
		for _, op := range r.Operands {
			if op.Kind == SrcLeaf && op.Embed != nil {
				s.RulesWithImmCs++
				break
			}
		}
	}
	return s
}
