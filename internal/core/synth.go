package core

import (
	"context"
	"slices"
	"sort"
	"sync"
	"time"

	"iselgen/internal/bv"
	"iselgen/internal/canon"
	"iselgen/internal/obs"
	"iselgen/internal/pattern"
	"iselgen/internal/rules"
	"iselgen/internal/smt"
	"iselgen/internal/spec"
	"iselgen/internal/term"
	"iselgen/internal/trie"
)

// worker holds the per-goroutine state for parallel matching: a private
// term builder, canonicalization context, and SMT checker. The shared
// synthesizer state (pool, index, canon context) is read-only during
// matching.
type worker struct {
	s       *Synthesizer
	wb      *term.Builder
	wcx     *canon.Ctx
	checker *smt.Checker
	ic      *inputCache
	v0      *vector0

	lookupT time.Duration
	probeT  time.Duration
	evalT   time.Duration
	smtT    time.Duration

	// curtailed is set when a cancellation made this worker skip the SMT
	// fallback for at least one pattern, i.e. rules may have been missed.
	curtailed bool

	// probeRun scratch, reused across calls to keep the matcher's hot
	// loop allocation-free.
	probeBinds []probeBinding
	probeVals  []bv.BV
}

// probeBinding pairs one pattern leaf with the cached test vectors of
// the sequence input it is assigned to.
type probeBinding struct {
	raw   []bv.BV // cached 128-bit test vectors for the sequence input
	leafW int
	opW   int
	slot  int // program value slot, -1 when unused by the term
}

func (s *Synthesizer) newWorker() *worker {
	memo := s.Cfg.Verdicts
	if memo == nil {
		memo = fallbackVerdicts
	}
	return &worker{
		s:   s,
		wb:  term.NewBuilder(),
		wcx: canon.NewCtx(),
		ic:  newInputCache(s.Cfg.TestInputs),
		v0:  newVector0(),
		checker: &smt.Checker{
			MaxConflicts: s.Cfg.SMTMaxConflicts,
			Obs:          s.Cfg.Obs,
			Context:      "synthesis",
			// All workers share the configured verdict memo: a query
			// settled by any worker — this run, an earlier run on the same
			// store, or a replayed journal — answers instantly, guarded by
			// the spec fingerprint, and its stored counterexamples screen
			// candidates for every other pattern.
			Memo:   memo,
			SpecFP: s.SpecFP,
		},
	}
}

// Synthesize runs stage 2 over the given patterns (most-frequent-first
// ordering is the caller's choice, per §VII-B) and adds discovered rules
// to lib. Every pattern is matched in one parallel pass; the
// beneficial-rule filter (§VI) then admits the rules size by size, so
// that a multi-op rule is weighed against the smaller rules admitted
// before it. Matching never reads lib, so taking the filter out of the
// pass leaves the library unchanged.
func (s *Synthesizer) Synthesize(patterns []*pattern.Pattern, lib *rules.Library) {
	s.Stats.Patterns += len(patterns)
	bySize := slices.Clone(patterns)
	slices.SortStableFunc(bySize, func(a, b *pattern.Pattern) int { return a.Size() - b.Size() })
	tm := obs.Timed(s.Cfg.Obs.TracerOrNil(), "synth/match")
	for _, r := range s.match(bySize) {
		if r == nil {
			continue
		}
		// Beneficial-rule filter (§VI): a multi-op rule must beat the
		// best cover by smaller rules.
		if r.Pattern.Size() > 1 {
			if cover, ok := coverCost(r.Pattern.Root, lib); ok && r.Seq.Cost() >= cover {
				continue
			}
		}
		if r.Source == "index" {
			s.Stats.IndexRules++
		} else {
			s.Stats.SMTRules++
		}
		lib.Add(r)
	}
	maxSize := 0
	if n := len(bySize); n > 0 {
		maxSize = bySize[n-1].Size()
	}
	tm.Span().SetInt("patterns", int64(len(patterns))).SetInt("max_size", int64(maxSize))
	s.Stats.LookupTime += tm.Done()
}

// SynthesizeCtx runs Synthesize under a context. Cancellation is
// cooperative and degrades gracefully rather than aborting: once the
// context is done, workers skip the expensive SMT fallback (and bail out
// of in-progress candidate enumeration) but keep answering patterns from
// the term index, which is cheap — so a deadline yields a *partial*
// library containing only index-proven rules instead of a hung request.
// Reports whether the run was curtailed (i.e. SMT-provable rules may be
// missing from lib).
func (s *Synthesizer) SynthesizeCtx(ctx context.Context, patterns []*pattern.Pattern, lib *rules.Library) bool {
	s.cancelFn = func() bool {
		select {
		case <-ctx.Done():
			return true
		default:
			return false
		}
	}
	defer func() { s.cancelFn = nil }()
	s.Stats.Curtailed = false
	s.Synthesize(patterns, lib)
	return s.Stats.Curtailed
}

// cancelled reports whether a SynthesizeCtx deadline has fired.
func (s *Synthesizer) cancelled() bool {
	return s.cancelFn != nil && s.cancelFn()
}

// match finds each pattern's rule in parallel; the result is aligned
// with patterns, nil where nothing matched. A worker's panic is handed
// back to the caller once every worker has stopped, as BuildPool does
// with its enumerator's.
func (s *Synthesizer) match(patterns []*pattern.Pattern) []*rules.Rule {
	nw := s.Cfg.Workers
	if nw > len(patterns) {
		nw = len(patterns)
	}
	if nw < 1 {
		nw = 1
	}
	results := make([]*rules.Rule, len(patterns))
	var wg sync.WaitGroup
	next := make(chan int, len(patterns))
	for i := range patterns {
		next <- i
	}
	close(next)
	var mu sync.Mutex
	var panicked any
	for k := 0; k < nw; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					mu.Lock()
					if panicked == nil {
						panicked = p
					}
					mu.Unlock()
				}
			}()
			w := s.newWorker()
			for i := range next {
				results[i] = w.synthesizeOne(patterns[i])
			}
			mu.Lock()
			s.Stats.IndexLookupT += w.lookupT
			s.Stats.ProbeTime += w.probeT
			s.Stats.EvalTime += w.evalT
			s.Stats.SMTTime += w.smtT
			s.Stats.SMTQueries += w.checker.Stats.Queries
			s.Stats.SMTTimeouts += w.checker.Stats.TimedOut
			s.Stats.CexScreens += w.checker.Stats.CexScreens
			s.Stats.CexHits += w.checker.Stats.CexHits
			s.Stats.MemoHits += w.checker.Stats.MemoHits
			s.Stats.BitBlasts += w.checker.Stats.BitBlasts
			s.Stats.SATDecisions += w.checker.Stats.Decisions
			s.Stats.SATPropagations += w.checker.Stats.Propagations
			s.Stats.SATConflicts += w.checker.Stats.Conflicts
			s.Stats.SATRestarts += w.checker.Stats.Restarts
			if w.curtailed {
				s.Stats.Curtailed = true
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
	return results
}

// SynthesizeOne synthesizes the best rule for a single pattern (used by
// tests and the tuning experiments); nil when nothing matches.
func (s *Synthesizer) SynthesizeOne(p *pattern.Pattern) *rules.Rule {
	return s.newWorker().synthesizeOne(p)
}

// synthesizeOne wraps the per-pattern flow with observability: a span
// (pattern key, outcome source) and a latency histogram keyed by how the
// rule was found. When no Obs is attached this is a single nil check.
func (w *worker) synthesizeOne(p *pattern.Pattern) *rules.Rule {
	o := w.s.Cfg.Obs
	if o == nil || (o.Trace == nil && o.Metrics == nil) {
		return w.synthesizeOneInner(p)
	}
	sp := o.Trace.Start("synth/pattern")
	t0 := time.Now()
	r := w.synthesizeOneInner(p)
	d := time.Since(t0)
	src := "none"
	if r != nil {
		src = r.Source
	}
	sp.SetStr("pattern", p.Key()).SetStr("source", src).EndWith(d)
	if m := o.Metrics; m != nil {
		m.Histogram("synth_pattern_ns",
			"per-pattern synthesis latency by outcome", "source", src).Observe(d.Nanoseconds())
	}
	return r
}

// synthesizeOneInner implements the per-pattern flow of Fig. 1: index
// lookup (3a/3b), then the evaluation-probed SMT fallback (3c/3d).
func (w *worker) synthesizeOneInner(p *pattern.Pattern) *rules.Rule {
	tp, err := p.Compile(w.wb)
	if err != nil {
		return nil
	}
	// Label this pattern's solver queries: the context rides provenance
	// events and memo entries, joining "why is this rule in the library"
	// to the exact queries that proved (and disproved) its candidates.
	w.checker.Context = "synthesis:" + p.Key()
	leaves := p.Leaves()

	t0 := time.Now()
	var matches []trie.Match
	if !w.s.Cfg.DisableIndex {
		query := w.wcx.Canon(tp)
		matches = w.s.Index.Lookup(query)
	}
	// Cheapest sequences first. Keys are precomputed: seqCostOf scans
	// every payload, which is far too expensive to re-derive inside the
	// comparator.
	if len(matches) > 1 {
		keys := make([]int, len(matches))
		for i := range matches {
			keys[i] = w.seqCostOf(matches[i])
		}
		sort.Sort(&matchesByCost{matches, keys})
	}
	var best *rules.Rule
	for _, m := range matches {
		for _, payload := range m.Payloads {
			entry := payload.(*PoolEntry)
			if r := w.ruleFromBinding(p, tp, leaves, entry, m.Binding); r != nil {
				if best == nil || r.Seq.Cost() < best.Seq.Cost() {
					best = r
				}
			}
		}
		if best != nil {
			break // matches are cost-sorted; first verified hit is cheapest
		}
	}
	w.lookupT += time.Since(t0)
	if best != nil {
		best.Source = "index"
		return best
	}
	// Deadline hit: keep serving index-proven rules, skip the solver.
	if w.s.cancelled() {
		w.curtailed = true
		return nil
	}
	return w.smtFallback(p, tp, leaves)
}

// matchesByCost sorts matches by precomputed cost keys, keeping the two
// slices aligned.
type matchesByCost struct {
	m    []trie.Match
	keys []int
}

func (s *matchesByCost) Len() int           { return len(s.m) }
func (s *matchesByCost) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s *matchesByCost) Swap(i, j int) {
	s.m[i], s.m[j] = s.m[j], s.m[i]
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
}

func (w *worker) seqCostOf(m trie.Match) int {
	min := 1 << 40
	for _, p := range m.Payloads {
		if c := p.(*PoolEntry).cost; c < min {
			min = c
		}
	}
	return min
}

// ruleFromBinding converts a unification binding into a verified rule.
func (w *worker) ruleFromBinding(p *pattern.Pattern, tp *term.Term,
	leaves []*pattern.Node, entry *PoolEntry, bind *trie.Binding) *rules.Rule {

	// Resolve bindings into per-sequence-input sources.
	leafByName := map[string]int{}
	for i, l := range leaves {
		leafByName[pattern.LeafName(i, l)] = i
	}
	regTo := map[string]int{} // seq var name -> pattern leaf
	type immInfo struct {
		leaf  int
		embed rules.Embed
		cval  bv.BV
		conly bool
	}
	immTo := map[string]immInfo{}
	for _, rb := range bind.Regs {
		li, ok := leafByName[rb.Query.Var.Name]
		if !ok {
			return nil
		}
		regTo[rb.ISA.Var.Name] = li
	}
	for _, ib := range bind.Imms {
		if ib.PCRel {
			return nil // relocation-dependent; handled by manual rules
		}
		if ib.ISALo != 0 {
			return nil
		}
		embedW := ib.ISAHi - ib.ISALo + 1
		shift, ok := coefShift(ib.CoefQ, ib.CoefI)
		if !ok {
			return nil
		}
		if ib.Query == nil {
			// Constant-bound immediate: must roundtrip through the
			// operand width.
			v := ib.Const
			if v.W() > embedW {
				tr := v.Trunc(embedW)
				if tr.ZExt(v.W()) != v {
					return nil
				}
				v = tr
			} else if v.W() < embedW {
				v = v.ZExt(embedW)
			}
			immTo[ib.ISA.Var.Name] = immInfo{cval: v, conly: true}
			continue
		}
		li, ok := leafByName[ib.Query.Var.Name]
		if !ok {
			return nil
		}
		immTo[ib.ISA.Var.Name] = immInfo{
			leaf:  li,
			embed: rules.Embed{Width: embedW, Shift: shift},
		}
	}

	// Assemble operand sources in sequence-input order; every input must
	// be covered.
	var ops []rules.OperandSource
	for _, in := range entry.Seq.Inputs {
		if in.Op.Kind == spec.OpImm {
			info, ok := immTo[in.Var.Name]
			if !ok {
				return nil
			}
			if info.conly {
				ops = append(ops, rules.OperandSource{Kind: rules.SrcConst, Const: info.cval.ZExt(in.Op.Width)})
			} else {
				em := info.embed
				ops = append(ops, rules.OperandSource{Kind: rules.SrcLeaf, Leaf: info.leaf, Embed: &em})
			}
		} else {
			li, ok := regTo[in.Var.Name]
			if !ok {
				return nil
			}
			ops = append(ops, rules.OperandSource{Kind: rules.SrcLeaf, Leaf: li})
		}
	}

	r := &rules.Rule{Pattern: p, Seq: entry.Seq, Operands: ops, Source: "index"}
	if !w.verify(tp, leaves, entry, r, false) {
		// Retry immediates as sign-extended embeddings.
		if !retrySigned(r) || !w.verify(tp, leaves, entry, r, false) {
			return nil
		}
	}
	return r
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [8]byte
	n := len(b)
	for i > 0 {
		n--
		b[n] = byte('0' + i%10)
		i /= 10
	}
	return string(b[n:])
}

// coefShift interprets the coefficient pair as a power-of-two scaling.
// The coefficients may come from linear combinations of different widths
// (nested unification); compare at the wider width.
func coefShift(coefQ, coefI bv.BV) (int, bool) {
	w := coefQ.W()
	if coefI.W() > w {
		w = coefI.W()
	}
	coefQ, coefI = coefQ.ZExt(w), coefI.ZExt(w)
	if coefQ == coefI {
		return 0, true
	}
	// coefI = coefQ << k  =>  IR constant = ISA imm << k.
	q, r := coefI, coefQ
	if r.IsZero() {
		return 0, false
	}
	div := q.UDiv(r)
	if div.Mul(r) != q {
		return 0, false
	}
	if k, ok := div.IsPow2(); ok {
		return k, true
	}
	return 0, false
}

// retrySigned flips all leaf-immediate embeds to signed; reports whether
// any embed existed.
func retrySigned(r *rules.Rule) bool {
	any := false
	for i := range r.Operands {
		if r.Operands[i].Kind == rules.SrcLeaf && r.Operands[i].Embed != nil {
			em := *r.Operands[i].Embed
			em.Signed = true
			r.Operands[i].Embed = &em
			any = true
		}
	}
	return any
}

// verify checks a candidate rule: the pattern term with immediates
// substituted by their embeddings must equal the sequence effect with
// registers renamed to pattern leaves. Canonical-form comparison proves
// most cases instantly; useSMT additionally consults the solver.
func (w *worker) verify(tp *term.Term, leaves []*pattern.Node, entry *PoolEntry,
	r *rules.Rule, useSMT bool) bool {

	// Substitution for the sequence side.
	seqSubst := map[*term.Term]*term.Term{}
	// Substitution for the pattern side (immediate embeds).
	patSubst := map[*term.Term]*term.Term{}
	for k, in := range entry.Seq.Inputs {
		src := r.Operands[k]
		switch src.Kind {
		case rules.SrcConst:
			seqSubst[in.Var] = w.wb.ConstBV(src.Const)
		case rules.SrcLeaf:
			leaf := leaves[src.Leaf]
			pv := pattern.LeafVar(w.wb, src.Leaf, leaf)
			if src.Embed == nil {
				if in.Op.Width != leaf.Ty.Bits {
					return false
				}
				seqSubst[in.Var] = pv
			} else {
				// Fresh ISA immediate variable e_k.
				e := w.wb.VarT("e"+itoa(k)+"w"+itoa(in.Op.Width), term.KindImm, in.Op.Width)
				seqSubst[in.Var] = e
				useW := src.Embed.Width
				var ev *term.Term = e
				if useW < in.Op.Width {
					ev = w.wb.Trunc(useW, e)
				} else if useW > in.Op.Width {
					return false
				}
				if leaf.Ty.Bits < useW {
					return false
				}
				patSubst[pv] = src.Embed.Term(w.wb, ev, leaf.Ty.Bits)
			}
		}
	}
	teW := w.wb.Rebuild(entry.Effect.T, seqSubst)
	tpW := w.wb.Rebuild(tp, patSubst)
	// Canonical comparison settles most verifications structurally; the
	// no-index ablation disables it so that every proof goes through the
	// solver, as in the paper's "without the index" measurement.
	if !w.s.Cfg.DisableIndex {
		if tpW == teW {
			return true
		}
		if w.wcx.Canon(tpW) == w.wcx.Canon(teW) {
			return true
		}
	}
	if !useSMT {
		return false
	}
	t0 := time.Now()
	res := w.checker.Equiv(w.wb, tpW, teW)
	w.smtT += time.Since(t0)
	return res == smt.Equal
}

// smtFallback implements Fig. 1 steps 3c/3d: filter candidates by
// operand/memory signature, probe the cached test evaluations per
// operand assignment, and verify survivors with the SMT solver, stopping
// at the first match (cheapest-first).
//
// The whole call is timed once: what it spends outside the solver and
// digest evaluation, which keep timers of their own, is probe time.
func (w *worker) smtFallback(p *pattern.Pattern, tp *term.Term, leaves []*pattern.Node) *rules.Rule {
	t0, smt0, eval0 := time.Now(), w.smtT, w.evalT
	defer func() {
		w.probeT += time.Since(t0) - (w.smtT - smt0) - (w.evalT - eval0)
	}()
	key, regLeaves, immLeaves := patternFilterKey(p, tp, leaves)
	// Buckets are pre-sorted cheapest-first by BuildPool; iteration stops
	// at the first verified match.
	sorted := w.s.byFilter[key]
	if len(sorted) == 0 {
		return nil
	}
	pp := newPatternProbe(tp, leaves)
	asg := make([]int, len(leaves))
	var r *rules.Rule
	for _, entry := range sorted {
		// Candidate enumeration can run many solver queries; honor the
		// deadline between entries.
		if w.s.cancelled() {
			w.curtailed = true
			return nil
		}
		if forEachAssignment(leaves, regLeaves, immLeaves, entry, asg, func() bool {
			if !w.probe(pp, entry, asg) {
				return false
			}
			r = w.tryAssignment(p, tp, leaves, entry, asg)
			return r != nil
		}) {
			r.Source = "smt"
			return r
		}
	}
	return nil
}

// forEachAssignment sets asg (pattern leaf -> sequence input index) to
// each operand assignment the SMT fallback tries for entry — register
// leaves one-to-one onto register inputs of their width, immediate
// leaves onto immediate inputs no wider than the leaf — and calls fn on
// it, until fn returns true. It reports whether fn did.
func forEachAssignment(leaves []*pattern.Node, regLeaves, immLeaves []int, entry *PoolEntry, asg []int, fn func() bool) bool {
	var regBuf, immBuf [8]int
	regIns, immIns := regBuf[:0], immBuf[:0]
	for k, in := range entry.Seq.Inputs {
		if in.Op.Kind == spec.OpImm {
			immIns = append(immIns, k)
		} else {
			regIns = append(regIns, k)
		}
	}
	for _, regPerm := range permutations(len(regIns)) {
		for _, immPerm := range permutations(len(immIns)) {
			// asg is reused across permutation combinations.
			for i := range asg {
				asg[i] = -1
			}
			ok := true
			for a, b := range regPerm {
				li, ki := regLeaves[a], regIns[b]
				if leaves[li].Ty.Bits != entry.Seq.Inputs[ki].Op.Width {
					ok = false
					break
				}
				asg[li] = ki
			}
			if !ok {
				continue
			}
			for a, b := range immPerm {
				li, ki := immLeaves[a], immIns[b]
				if leaves[li].Ty.Bits < entry.Seq.Inputs[ki].Op.Width {
					ok = false
					break
				}
				asg[li] = ki
			}
			if ok && fn() {
				return true
			}
		}
	}
	return false
}

// patternFilterKey returns the SMT-fallback bucket a pattern draws its
// candidates from, with the indices of its register and immediate
// leaves.
func patternFilterKey(p *pattern.Pattern, tp *term.Term, leaves []*pattern.Node) (key filterKey, regLeaves, immLeaves []int) {
	class := ClassValue
	if p.IsStore() {
		class = ClassStore
	}
	for i, l := range leaves {
		if l.LeafReg {
			regLeaves = append(regLeaves, i)
		} else {
			immLeaves = append(immLeaves, i)
		}
	}
	key = filterKey{class, tp.W(), len(regLeaves), len(immLeaves), loadSignature(tp)}
	return key, regLeaves, immLeaves
}

// resolveLeafSlots maps each pattern leaf to its variable slot in the
// compiled pattern program (-1 when the leaf's variable does not occur
// in the term). Program variable names are exactly the pattern leaf
// names tp was compiled from.
func resolveLeafSlots(prog *term.Program, leaves []*pattern.Node) []int {
	slotOf := make(map[string]int, len(prog.Vars()))
	for i, v := range prog.Vars() {
		slotOf[v.Name] = i
	}
	out := make([]int, len(leaves))
	for i, l := range leaves {
		if s, ok := slotOf[pattern.LeafName(i, l)]; ok {
			out[i] = s
		} else {
			out[i] = -1
		}
	}
	return out
}

// probeCap bounds how many usable vectors a probe compares before
// accepting a candidate. The probe is purely a performance filter: the
// SMT check remains the decider for every accepted candidate, so the
// cap can only forward more candidates to verification — it can never
// reject one the full scan would have kept, and the synthesized library
// is identical for any cap value.
const probeCap = 32

// patternProbe is one pattern's side of the probe: its term compiled
// once, so each evaluation runs with no allocation, each leaf's slot in
// the program (-1 when the leaf's variable does not occur in the term),
// and the first-vector memo of precheck.
type patternProbe struct {
	prog     *term.Program
	leaves   []*pattern.Node
	leafSlot []int
	// first is nil for a pattern with more than maxKeyLeaves leaves,
	// which skips the precheck.
	first map[inputKey]firstVec
}

// maxKeyLeaves is how many leaves an inputKey records: the largest
// pattern of the builtin corpora has 8.
const maxKeyLeaves = 8

// inputKey is all the pattern side of a probe depends on under an
// assignment: for each leaf, the name hash and operand width of the
// sequence input bound to it (zero when unbound). Test vectors are keyed
// by name hash, and a leaf's own width is fixed by the pattern.
type inputKey struct {
	hash  [maxKeyLeaves]uint64
	width [maxKeyLeaves]uint8
}

// firstVec is the index of the first usable test vector under an
// inputKey and the pattern's digest there; j is -1 when no vector is
// usable.
type firstVec struct {
	j int
	d uint64
}

func newPatternProbe(tp *term.Term, leaves []*pattern.Node) *patternProbe {
	pp := &patternProbe{prog: term.Compile(tp), leaves: leaves}
	pp.leafSlot = resolveLeafSlots(pp.prog, leaves)
	if len(leaves) <= maxKeyLeaves {
		pp.first = make(map[inputKey]firstVec)
	}
	return pp
}

// probe compares the pattern's evaluations under the assignment against
// the entry's cached evaluations (§V-C). Vectors whose input value is
// not representable in the bound immediate are skipped. The pattern side
// runs as a compiled program; the entry side comes from the lazily
// computed digest cache, so a probe that rejects on the first vector
// never pays for the remaining ones. Most candidates fail on the first
// usable vector, so precheck decides that one from a memo first.
func (w *worker) probe(pp *patternProbe, entry *PoolEntry, asg []int) bool {
	if w.s.Cfg.DisableProbe {
		return true
	}
	return w.precheck(pp, entry, asg, &w.evalT) && w.probeRun(pp, entry, asg, &w.evalT)
}

// precheck is probeRun's verdict on the first usable vector alone: false
// when no vector is usable or the entry's digest there differs from the
// pattern's, which are exactly the ways probeRun fails before comparing a
// second vector. The pattern side of that comparison is memoized per
// inputKey, so most candidates cost one map lookup and the entry's first
// digest.
func (w *worker) precheck(pp *patternProbe, entry *PoolEntry, asg []int, evalDur *time.Duration) bool {
	if pp.first == nil {
		return true
	}
	var k inputKey
	for li, ki := range asg {
		if ki >= 0 {
			in := entry.Seq.Inputs[ki]
			k.hash[li], k.width[li] = nameHash(in.Var.Name), uint8(in.Op.Width)
		}
	}
	fv, ok := pp.first[k]
	if !ok {
		fv = firstVec{j: -1}
		binds, vals := w.bindInputs(pp, entry, asg)
		for j := 0; j < entry.evalN; j++ {
			if loadVector(binds, vals, j) {
				fv = firstVec{j: j, d: digest(pp.prog.Run(vals))}
				break
			}
		}
		pp.first[k] = fv
	}
	return fv.j >= 0 && entry.digestsUpTo(fv.j+1, w.ic, w.v0, evalDur)[fv.j] == fv.d
}

// bindInputs pairs every assigned leaf with the test vectors of its
// sequence input, and returns the bindings with the program's zeroed
// variable values. Both live in worker scratch: the probe is the
// innermost hot call of the matcher and a fresh pair of slices per call
// is measurable GC traffic. vals must start zeroed — slots no binding
// writes (constant-bound leaves) read as zero vectors.
func (w *worker) bindInputs(pp *patternProbe, entry *PoolEntry, asg []int) ([]probeBinding, []bv.BV) {
	binds := w.probeBinds[:0]
	for li, ki := range asg {
		if ki < 0 {
			continue
		}
		in := entry.Seq.Inputs[ki]
		binds = append(binds, probeBinding{
			raw:   w.ic.vecs(nameHash(in.Var.Name)),
			leafW: pp.leaves[li].Ty.Bits,
			opW:   in.Op.Width,
			slot:  pp.leafSlot[li],
		})
	}
	w.probeBinds = binds
	nv := len(pp.prog.Vars())
	if cap(w.probeVals) < nv {
		w.probeVals = make([]bv.BV, nv)
	}
	vals := w.probeVals[:nv]
	clear(vals)
	return binds, vals
}

// loadVector writes test vector j of every binding into vals and
// reports whether the vector is usable.
func loadVector(binds []probeBinding, vals []bv.BV, j int) bool {
	for _, b := range binds {
		r := b.raw[j]
		v := bv.New128(b.leafW, r.Hi, r.Lo)
		if b.leafW > b.opW {
			// The sequence only saw the low Op.Width bits. To keep
			// the probe sound for both zero- and sign-extended
			// embeddings, only use vectors where the two coincide
			// (narrow value non-negative and round-tripping) —
			// "in cases where an input value cannot be represented
			// in an immediate binding, we ignore the test input".
			narrow := v.Trunc(b.opW)
			if narrow.SignBit() != 0 || narrow.ZExt(b.leafW) != v {
				return false
			}
		}
		if b.slot >= 0 {
			vals[b.slot] = v
		}
	}
	return true
}

// probeRun compares up to probeCap usable vectors, and accepts when at
// least one was usable and all compared equal.
func (w *worker) probeRun(pp *patternProbe, entry *PoolEntry, asg []int, evalDur *time.Duration) bool {
	binds, vals := w.bindInputs(pp, entry, asg)
	evals := entry.digestsUpTo(1, w.ic, w.v0, evalDur)
	checked := 0
	for j := 0; j < entry.evalN; j++ {
		if j >= len(evals) {
			evals = entry.digestsUpTo(j+1, w.ic, w.v0, evalDur)
		}
		if !loadVector(binds, vals, j) {
			continue
		}
		checked++
		if digest(pp.prog.Run(vals)) != evals[j] {
			return false
		}
		if checked >= probeCap {
			return true
		}
	}
	return checked > 0
}

// tryAssignment builds embed candidates for an assignment and verifies
// them with the SMT solver.
func (w *worker) tryAssignment(p *pattern.Pattern, tp *term.Term,
	leaves []*pattern.Node, entry *PoolEntry, asg []int) *rules.Rule {

	inv := make([]int, len(entry.Seq.Inputs)) // seq input index -> pattern leaf
	for i := range inv {
		inv[i] = -1
	}
	for li, ki := range asg {
		if ki >= 0 {
			inv[ki] = li
		}
	}
	var ops []rules.OperandSource
	hasImm := false
	for k, in := range entry.Seq.Inputs {
		li := inv[k]
		if li < 0 {
			return nil
		}
		src := rules.OperandSource{Kind: rules.SrcLeaf, Leaf: li}
		if in.Op.Kind == spec.OpImm {
			hasImm = true
			// Sign-extension heuristic (§V-C): prefer sext when the
			// sequence term sign-extends its immediate.
			signed := immLooksSigned(entry.Effect.T, in.Var)
			src.Embed = &rules.Embed{Width: in.Op.Width, Signed: signed}
		}
		ops = append(ops, src)
	}
	r := &rules.Rule{Pattern: p, Seq: entry.Seq, Operands: ops}
	if w.verify(tp, leaves, entry, r, true) {
		return r
	}
	if hasImm {
		// Flip the extension guess and retry once.
		for i := range r.Operands {
			if r.Operands[i].Embed != nil {
				em := *r.Operands[i].Embed
				em.Signed = !em.Signed
				r.Operands[i].Embed = &em
			}
		}
		if w.verify(tp, leaves, entry, r, true) {
			return r
		}
	}
	return nil
}

// immLooksSigned applies the paper's sign heuristic: the immediate is
// treated as sign-extended when the instruction's formula sign-extends
// it (the DSL analog of "the sign bit is accessed more than five times").
func immLooksSigned(t *term.Term, immVar *term.Term) bool {
	found := false
	seen := map[*term.Term]bool{}
	var walk func(*term.Term)
	walk = func(u *term.Term) {
		if found || seen[u] {
			return
		}
		seen[u] = true
		if u.Op == term.SExt && u.Args[0] == immVar {
			found = true
			return
		}
		if u.Op == term.Extract && u.Args[0] == immVar && u.Aux0 == int32(immVar.W()-1) {
			found = true
			return
		}
		for _, a := range u.Args {
			walk(a)
		}
	}
	walk(t)
	return found
}

// permTable holds the permutations of [0,n) for every n the fallback
// can ask for; the fallback requests them once per candidate entry, so
// they are enumerated a single time at init. Callers must not mutate
// the returned slices.
var permTable = func() [6][][]int {
	var t [6][][]int
	for n := 0; n < 6; n++ {
		t[n] = enumPerms(n)
	}
	return t
}()

// permutations returns the permutations of [0,n); n is small (operand
// counts are below five in practice, as the paper notes).
func permutations(n int) [][]int {
	if n > 5 {
		n = 5 // defensive cap; no real instruction has more inputs
	}
	return permTable[n]
}

func enumPerms(n int) [][]int {
	if n == 0 {
		return [][]int{nil}
	}
	var out [][]int
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			out = append(out, append([]int(nil), perm...))
			return
		}
		for i := k; i < n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			rec(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(0)
	return out
}

// coverCost computes the cheapest cover of a pattern by existing
// single-operation rules (§VI's beneficial-rule check).
func coverCost(n *pattern.Node, lib *rules.Library) (int, bool) {
	if n.IsLeaf() {
		return 0, true
	}
	args := make([]*pattern.Node, len(n.Args))
	for i, a := range n.Args {
		if a.IsLeaf() {
			args[i] = a
		} else {
			args[i] = pattern.Leaf(a.Ty)
		}
	}
	single := pattern.New(&pattern.Node{Op: n.Op, Ty: n.Ty, Pred: n.Pred,
		MemBits: n.MemBits, Args: args})
	r := lib.Lookup(single.Key())
	if r == nil {
		return 0, false
	}
	total := r.Seq.Cost()
	for _, a := range n.Args {
		if a.IsLeaf() {
			continue
		}
		c, ok := coverCost(a, lib)
		if !ok {
			return 0, false
		}
		total += c
	}
	return total, true
}
