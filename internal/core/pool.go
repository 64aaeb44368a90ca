// Package core implements the paper's contribution: synthesis of an
// instruction selection rule library by memoizing the most relevant IR
// patterns and their cheapest matching instruction sequences (Fig. 1).
//
// Stage 1 (this file) preprocesses the ISA into a pool: instruction
// sequences are enumerated under the composition rules of §IV-A, their
// primary effects canonicalized (§V-B1) and inserted into the term index
// (§V-B2), and their test-input evaluations cached (§V-C).
//
// Stage 2 (synth.go) queries the pool for each IR pattern: index lookup
// with unification first, then the evaluation-probed SMT fallback.
package core

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"iselgen/internal/bv"
	"iselgen/internal/canon"
	"iselgen/internal/cost"
	"iselgen/internal/isa"
	"iselgen/internal/obs"
	"iselgen/internal/solver"
	"iselgen/internal/spec"
	"iselgen/internal/term"
	"iselgen/internal/trie"
)

// Config controls the synthesis.
type Config struct {
	// TestInputs is the number of cached sample evaluations per sequence
	// (paper Fig. 8 picks ~400 at full scale; the default here is tuned
	// to this reproduction's pool sizes).
	TestInputs int
	// MaxSeqLen bounds enumerated sequence length (paper §VII-A: 2, with
	// hand-added longer special forms).
	MaxSeqLen int
	// SMTMaxConflicts is the per-query solver budget (the 500 ms timeout
	// analog).
	SMTMaxConflicts int64
	// Workers parallelizes pattern matching (paper: 60 threads).
	Workers int
	// ExtraSequences contributes target-specific longer sequences (the
	// §VII-A length-3 zero-extension chains and length-4 immediate
	// materializations).
	ExtraSequences func(b *term.Builder, t *isa.Target) []*isa.Sequence
	// DisableIndex skips the term-index lookup so every pattern takes the
	// SMT fallback path — the paper's "without the index" ablation.
	DisableIndex bool
	// DisableProbe disables the test-evaluation candidate filter so every
	// filtered candidate goes straight to the solver — the paper's
	// "without sample evaluation" ablation (which did not terminate at
	// their scale).
	DisableProbe bool
	// PoolFilter, when set, restricts stage 1 to the sequences whose
	// instruction list it accepts. Enumeration asks it before building a
	// pair (the slice is only valid during the call), so rejected pairs
	// are counted but never constructed; rejected singles and extras
	// skip canonicalization, test evaluation, and index insertion. The
	// incremental planner uses it to build a reduced pool containing only
	// sequences that touch changed instructions.
	PoolFilter func(insts []*isa.Instruction) bool
	// CostModel is ignored: every synthesis ranks sequences by the
	// paper's operand count (isa.Sequence.Cost).
	//
	// Deprecated: only the frozen benchmark's replay (cmd/iselperf) still
	// sets it; the benchmark change of ROADMAP item 2 deletes it.
	CostModel *cost.Table
	// Obs, when set, receives stage/pattern spans, latency histograms,
	// and SMT decision-provenance events from the synthesis run. Purely
	// observational — never part of CacheKey (it cannot change which
	// rules are produced), and nil costs only a pointer check on the hot
	// path.
	Obs *obs.Obs
	// Verdicts is the SMT verdict memo every worker consults and feeds: a
	// verdict or counterexample found while matching one pattern serves
	// every other pattern, and every later run handed the same store.
	// Like Workers it never changes which rules are produced, so it is
	// not part of CacheKey. Nil falls back to fallbackVerdicts.
	Verdicts *solver.Store
}

// fallbackVerdicts is the store the workers of a synthesizer without
// Verdicts consult.
//
// Deprecated: only the frozen benchmark's in-process replay
// (cmd/iselperf's synthReplay) leaves Verdicts nil, because its warm run
// must see the verdicts its cold run stored; the benchmark change of
// ROADMAP item 2 passes a store and deletes this.
var fallbackVerdicts = solver.New(0)

// CacheKey renders the configuration knobs that influence *which rules*
// a synthesis run produces, for content-addressed caching of rule
// libraries. Every knob that changes the output must appear here —
// TestInputs steers the probe filter (and thus which candidates reach
// the solver), MaxSeqLen changes the pool, SMTMaxConflicts
// changes which equivalences the solver proves before timing out, and
// the ablation switches change whole code paths. Workers is
// deliberately excluded: it parallelizes matching without affecting the
// result.
func (c Config) CacheKey() string {
	norm := c
	if norm.TestInputs == 0 {
		norm.TestInputs = DefaultConfig().TestInputs
	}
	if norm.MaxSeqLen == 0 {
		norm.MaxSeqLen = 2
	}
	if norm.SMTMaxConflicts == 0 {
		norm.SMTMaxConflicts = DefaultConfig().SMTMaxConflicts
	}
	extra := "-"
	if norm.ExtraSequences != nil {
		extra = "+" // presence only; callers pass target-determined extras
	}
	filter := "-"
	if norm.PoolFilter != nil {
		filter = "+" // a filtered pool produces a different (partial) library
	}
	return fmt.Sprintf("inputs=%d|seqlen=%d|conflicts=%d|noindex=%t|noprobe=%t|extra=%s|filter=%s",
		norm.TestInputs, norm.MaxSeqLen, norm.SMTMaxConflicts,
		norm.DisableIndex, norm.DisableProbe, extra, filter)
}

// DefaultConfig returns the settings used by the experiments.
func DefaultConfig() Config {
	return Config{
		TestInputs:      128,
		MaxSeqLen:       2,
		SMTMaxConflicts: 60000,
		Workers:         DefaultWorkers(),
	}
}

// DefaultWorkers derives the matching-pool width from the machine
// (the paper used 60 threads on their host; a hardcoded 8 ignored
// machine size in both directions). Worker count never changes which
// rules are produced (it is excluded from CacheKey), only how fast.
func DefaultWorkers() int { return runtime.NumCPU() }

// ResolveWorkers returns a positive -workers flag value, otherwise
// DefaultWorkers. The CLIs all thread their -workers flag through here.
func ResolveWorkers(flagVal int) int {
	if flagVal > 0 {
		return flagVal
	}
	return DefaultWorkers()
}

// EffectClass distinguishes what a pool entry (or pattern) computes.
type EffectClass int

// Effect classes.
const (
	ClassValue EffectClass = iota // a register result
	ClassStore                    // a memory store
)

// PoolEntry is one indexed instruction sequence with its primary effect.
type PoolEntry struct {
	Seq    *isa.Sequence
	Effect spec.Effect
	Class  EffectClass
	CT     *canon.CTerm
	// filter signature (§V-C candidate elimination).
	NRegs, NImms int
	LoadSig      string
	Width        int
	cost         int        // Seq.Cost(), the ranking key
	evalN        int        // vector count (Config.TestInputs at build time)
	evalMu       sync.Mutex // guards prog/evals extension
	prog         *term.Program
	evals        []uint64 // per-test-vector digests, extended block-wise
}

// digestBlock is the granularity of lazy digest evaluation. Most probe
// calls reject a candidate within the first few vectors (or accept
// after probeCap), so evaluating an entry on all configured vectors up
// front wastes the bulk of the work.
const digestBlock = 32

// digestsUpTo returns the entry's evaluation digests for at least the
// first min(k, evalN) test vectors, extending the cache block-wise on
// demand. Stage 1 used to evaluate every pool entry eagerly on every
// vector, which dominated full synthesis — most entries are never
// probed, and most probes touch only a handful of vectors. The digests
// depend only on the effect term and the vector index, never on timing
// or which goroutine asks first, so laziness cannot change any probe
// verdict. Time spent extending is added to *dur.
//
// The first extension evaluates just what is asked: the probe's
// precheck asks for one vector, and most entries are never asked for a
// second. Vector 0 goes through the caller's v0, which evaluates without
// compiling the entry's program; later extensions compile it and go
// block-wise.
//
// Concurrent readers are safe: elements below a returned slice's length
// are never rewritten, and extension happens under the entry's mutex.
func (e *PoolEntry) digestsUpTo(k int, ic *inputCache, v0 *vector0, dur *time.Duration) []uint64 {
	if k > e.evalN {
		k = e.evalN
	}
	e.evalMu.Lock()
	defer e.evalMu.Unlock()
	if len(e.evals) >= k {
		return e.evals
	}
	t0 := time.Now()
	if k == 1 {
		if d, ok := v0.digest(e.Effect.T, ic); ok {
			e.evals = append(e.evals, d)
			*dur += time.Since(t0)
			return e.evals
		}
	}
	if e.prog == nil {
		e.prog = term.Compile(e.Effect.T)
	}
	target := k
	if len(e.evals) > 0 {
		target = min((k+digestBlock-1)/digestBlock*digestBlock, e.evalN)
	}
	p := e.prog
	pv := p.Vars()
	raws := make([][]bv.BV, len(pv))
	for i, v := range pv {
		raws[i] = ic.vecs(nameHash(v.Name))
	}
	vals := make([]bv.BV, len(pv))
	for j := len(e.evals); j < target; j++ {
		for i := range pv {
			r := raws[i][j]
			vals[i] = bv.New128(pv[i].Width, r.Hi, r.Lo)
		}
		e.evals = append(e.evals, digest(p.Run(vals)))
	}
	*dur += time.Since(t0)
	return e.evals
}

// vector0 evaluates terms on test vector 0 under one memo, owned by one
// worker. Entries composed from a common base share its effect subterm,
// so most of an entry's vector-0 value is already in the memo, where a
// program compiled per entry would recompute it. A value depends only
// on the subterm and the vector, so sharing cannot change a digest.
type vector0 struct {
	env  *term.Env
	memo map[*term.Term]bv.BV
}

func newVector0() *vector0 {
	return &vector0{env: term.NewEnv(), memo: make(map[*term.Term]bv.BV)}
}

// digest returns t's digest on vector 0. It reports false, leaving t to
// a compiled program, when a variable of t shares its name with one
// already bound at another width.
func (v *vector0) digest(t *term.Term, ic *inputCache) (uint64, bool) {
	for _, x := range t.Vars() {
		if b, ok := v.env.Vals[x.Name]; ok {
			if b.W() != x.W() {
				return 0, false
			}
			continue
		}
		r := ic.vecs(nameHash(x.Name))[0]
		v.env.Bind(x.Name, bv.New128(x.W(), r.Hi, r.Lo))
	}
	return digest(t.EvalMemo(v.env, v.memo)), true
}

// inputCache memoizes the raw 128-bit test vectors per variable-name
// hash. rawInputH seeds a fresh RNG for every (vector, name) pair;
// probing asks for the same few dozen sequence-operand names tens of
// thousands of times, so each worker expands a name's full vector
// column once. The cached values are a pure function of the hash, so
// caching cannot change any probe verdict.
type inputCache struct {
	n int
	m map[uint64][]bv.BV
}

func newInputCache(n int) *inputCache {
	return &inputCache{n: n, m: make(map[uint64][]bv.BV)}
}

// vecs returns the n raw 128-bit test values for name hash h.
func (c *inputCache) vecs(h uint64) []bv.BV {
	if vs, ok := c.m[h]; ok {
		return vs
	}
	vs := make([]bv.BV, c.n)
	for j := 0; j < c.n; j++ {
		hi, lo := rawInputH(j, h)
		vs[j] = bv.BV{Hi: hi, Lo: lo, Width: 128}
	}
	c.m[h] = vs
	return vs
}

// Stats aggregates stage timings and counters for Table II.
type Stats struct {
	Sequences    int
	IndexEntries int
	InstrGenTime time.Duration
	CanonTime    time.Duration
	EvalTime     time.Duration
	InsertTime   time.Duration

	Patterns     int
	LookupTime   time.Duration
	IndexLookupT time.Duration
	ProbeTime    time.Duration // SMT fallback time outside the solver and digest evaluation
	SMTTime      time.Duration
	IndexRules   int
	SMTRules     int
	SMTQueries   int64
	SMTTimeouts  int64
	// Counterexample-screen effectiveness: how many memo misses were
	// screened against the memo's stored counterexamples, and how many a
	// stored witness refuted outright.
	CexScreens int64
	CexHits    int64
	// Verdict-memo effectiveness: MemoHits counts queries answered by a
	// stored (trust-checked) verdict, BitBlasts the queries that still
	// reached circuit construction — the pair the warm-resynthesis gate
	// watches (memo_hits > 0, bit_blasts == 0 on an unchanged spec).
	MemoHits  int64
	BitBlasts int64
	// SAT-core work summed over every solver query of the run — the
	// per-query distribution is in the provenance log; these totals ride
	// the Table II snapshot (and /v1/metrics) so solver effort is visible
	// without tracing enabled.
	SATDecisions    int64
	SATPropagations int64
	SATConflicts    int64
	SATRestarts     int64
	// Curtailed records that a SynthesizeCtx deadline fired mid-run, so
	// the produced library is partial: SMT-provable rules may be missing.
	Curtailed bool
}

// StageStats is the JSON-friendly snapshot of Stats, the per-stage
// synthesis breakdown of Table II lifted from the worker timers. All
// durations are nanoseconds so that even sub-millisecond stages survive
// serialization; counters sum across runs when aggregated.
type StageStats struct {
	Sequences    int   `json:"sequences"`
	IndexEntries int   `json:"index_entries"`
	Patterns     int   `json:"patterns"`
	IndexRules   int   `json:"index_rules"`
	SMTRules     int   `json:"smt_rules"`
	SMTQueries   int64 `json:"smt_queries"`
	SMTTimeouts  int64 `json:"smt_timeouts"`

	CexScreens int64 `json:"cex_screens"`
	CexHits    int64 `json:"cex_cache_hits"`
	MemoHits   int64 `json:"memo_hits"`
	BitBlasts  int64 `json:"bit_blasts"`

	SATDecisions    int64 `json:"sat_decisions"`
	SATPropagations int64 `json:"sat_propagations"`
	SATConflicts    int64 `json:"sat_conflicts"`
	SATRestarts     int64 `json:"sat_restarts"`

	InstrGenNS    int64 `json:"instr_gen_ns"`
	CanonNS       int64 `json:"canonicalize_ns"`
	EvalNS        int64 `json:"test_eval_ns"`
	InsertNS      int64 `json:"index_insert_ns"`
	LookupWallNS  int64 `json:"lookup_wall_ns"`
	IndexLookupNS int64 `json:"index_lookup_cpu_ns"`
	ProbeNS       int64 `json:"probe_cpu_ns"`
	SMTNS         int64 `json:"smt_cpu_ns"`
}

// Snapshot converts the internal stage timers into the exported form.
func (st *Stats) Snapshot() StageStats {
	return StageStats{
		Sequences:       st.Sequences,
		IndexEntries:    st.IndexEntries,
		Patterns:        st.Patterns,
		IndexRules:      st.IndexRules,
		SMTRules:        st.SMTRules,
		SMTQueries:      st.SMTQueries,
		SMTTimeouts:     st.SMTTimeouts,
		CexScreens:      st.CexScreens,
		CexHits:         st.CexHits,
		MemoHits:        st.MemoHits,
		BitBlasts:       st.BitBlasts,
		SATDecisions:    st.SATDecisions,
		SATPropagations: st.SATPropagations,
		SATConflicts:    st.SATConflicts,
		SATRestarts:     st.SATRestarts,
		InstrGenNS:      st.InstrGenTime.Nanoseconds(),
		CanonNS:         st.CanonTime.Nanoseconds(),
		EvalNS:          st.EvalTime.Nanoseconds(),
		InsertNS:        st.InsertTime.Nanoseconds(),
		LookupWallNS:    st.LookupTime.Nanoseconds(),
		IndexLookupNS:   st.IndexLookupT.Nanoseconds(),
		ProbeNS:         st.ProbeTime.Nanoseconds(),
		SMTNS:           st.SMTTime.Nanoseconds(),
	}
}

// Accumulate sums another snapshot into this one (service-level metric
// aggregation across synthesis runs).
func (ss *StageStats) Accumulate(o StageStats) {
	ss.Sequences += o.Sequences
	ss.IndexEntries += o.IndexEntries
	ss.Patterns += o.Patterns
	ss.IndexRules += o.IndexRules
	ss.SMTRules += o.SMTRules
	ss.SMTQueries += o.SMTQueries
	ss.SMTTimeouts += o.SMTTimeouts
	ss.CexScreens += o.CexScreens
	ss.CexHits += o.CexHits
	ss.MemoHits += o.MemoHits
	ss.BitBlasts += o.BitBlasts
	ss.SATDecisions += o.SATDecisions
	ss.SATPropagations += o.SATPropagations
	ss.SATConflicts += o.SATConflicts
	ss.SATRestarts += o.SATRestarts
	ss.InstrGenNS += o.InstrGenNS
	ss.CanonNS += o.CanonNS
	ss.EvalNS += o.EvalNS
	ss.InsertNS += o.InsertNS
	ss.LookupWallNS += o.LookupWallNS
	ss.IndexLookupNS += o.IndexLookupNS
	ss.ProbeNS += o.ProbeNS
	ss.SMTNS += o.SMTNS
}

// Synthesizer holds the shared, read-only-after-build synthesis state.
type Synthesizer struct {
	B      *term.Builder
	CX     *canon.Ctx
	Target *isa.Target
	Index  *trie.Index
	Pool   []*PoolEntry
	// byFilter groups entries for the SMT-fallback candidate filter.
	byFilter map[filterKey][]*PoolEntry
	Cfg      Config
	Stats    Stats
	// SpecFP fingerprints the loaded specification (every instruction's
	// effect fingerprint, name-sorted): the proof fingerprint stamped on
	// memoized SMT verdicts, so an Equal proved under one spec is never
	// trusted under another.
	SpecFP string
	// cancelFn, when set by SynthesizeCtx, lets workers observe a
	// deadline cooperatively (set before workers spawn, cleared after
	// they join).
	cancelFn func() bool
}

// New creates a synthesizer for a target. The target must have been
// loaded into b.
func New(b *term.Builder, target *isa.Target, cfg Config) *Synthesizer {
	if cfg.TestInputs == 0 {
		cfg.TestInputs = DefaultConfig().TestInputs
	}
	if cfg.MaxSeqLen == 0 {
		cfg.MaxSeqLen = 2
	}
	if cfg.Workers == 0 {
		cfg.Workers = DefaultConfig().Workers
	}
	if cfg.SMTMaxConflicts == 0 {
		cfg.SMTMaxConflicts = DefaultConfig().SMTMaxConflicts
	}
	return &Synthesizer{
		B:        b,
		CX:       canon.NewCtx(),
		Target:   target,
		Index:    trie.New(),
		byFilter: map[filterKey][]*PoolEntry{},
		Cfg:      cfg,
		SpecFP:   SpecFingerprint(target),
	}
}

// SpecFingerprint derives the content identity of a loaded target spec:
// the name-sorted instruction effect fingerprints, hashed together. Two
// loads of semantically identical specs agree (isa.Instruction.FP hashes
// symbolically executed effects, not text), and any semantic edit to
// any instruction changes it — which is exactly the granularity the
// memo's Equal-trust guard needs, since a sequence's effects can depend
// on any instruction it composes.
func SpecFingerprint(target *isa.Target) string {
	parts := make([]string, 0, len(target.Insts)+1)
	parts = append(parts, "spec-v1")
	for _, inst := range target.Insts {
		parts = append(parts, inst.Name+"="+inst.FP)
	}
	sort.Strings(parts[1:])
	return isa.Fingerprint(parts...)
}

// poolChunk is how many sequences the enumerator hands to the entry
// builder at a time.
const poolChunk = 512

// BuildPool runs stage 1: sequence enumeration, canonicalization, test
// evaluation, and index insertion. Stage durations are read once each
// (obs.Timed): the same measurement feeds both Stats and the trace, so
// the Table II numbers and the exported spans can never drift.
//
// Enumeration, the only writer of s.B, runs on its own goroutine and
// hands finished sequences over in order; canonicalization and
// insertion, which never touch a term.Builder, run here meanwhile. Pool
// order, canon IDs and insertion order are those of a serial run, but
// the two stage spans overlap.
func (s *Synthesizer) BuildPool() {
	tr := s.Cfg.Obs.TracerOrNil()
	sp := tr.Start("synth/pool")
	// Room for 64k sequences, more than any builtin target builds, so the
	// enumerator never waits for the slower entry side. The prune leaves
	// few built sequences that the pool drops, so the buffer holds
	// little that would not stay live in the pool anyway.
	chunks := make(chan []*isa.Sequence, 128)
	var gen struct {
		n        int
		d        time.Duration
		panicked any
	}
	go func() {
		defer func() {
			gen.panicked = recover()
			close(chunks)
		}()
		tm := obs.Timed(tr, "pool/enumerate")
		var buf []*isa.Sequence
		gen.n = s.enumerate(func(seq *isa.Sequence) {
			buf = append(buf, seq)
			if len(buf) == poolChunk {
				chunks <- buf
				buf = nil
			}
		})
		if len(buf) > 0 {
			chunks <- buf
		}
		gen.d = tm.Done()
	}()
	// Should addEntry panic, keep draining so the enumerator can finish.
	defer func() {
		for range chunks {
		}
	}()

	esp := tr.Start("pool/entries")
	for chunk := range chunks {
		for _, seq := range chunk {
			s.addEntry(seq)
		}
	}
	if gen.panicked != nil {
		panic(gen.panicked)
	}
	s.Stats.InstrGenTime = gen.d
	s.Stats.Sequences = gen.n
	// Pre-sort every fallback filter bucket cheapest-first, once. The
	// SMT fallback consumes candidates in cost order; sorting per
	// pattern — with costs recomputed inside the comparator —
	// was pure overhead, since bucket contents and costs are fixed for
	// the synthesizer's lifetime.
	for _, bucket := range s.byFilter {
		sort.Slice(bucket, func(i, j int) bool {
			return bucket[i].cost < bucket[j].cost
		})
	}
	esp.SetInt("canonicalize_ns", s.Stats.CanonTime.Nanoseconds()).
		SetInt("test_eval_ns", s.Stats.EvalTime.Nanoseconds()).
		SetInt("index_insert_ns", s.Stats.InsertTime.Nanoseconds()).
		End()
	sp.SetInt("sequences", int64(s.Stats.Sequences)).
		SetInt("index_entries", int64(s.Stats.IndexEntries)).
		End()
}

// enumerate emits the candidate sequences in pool order — singles,
// wired/flag-consuming pairs, target extras — and returns how many
// compositions it accepted, pairs pruned before construction included.
func (s *Synthesizer) enumerate(emit func(*isa.Sequence)) int {
	bases := s.singles(emit)
	n := len(s.Target.Insts)
	if s.Cfg.MaxSeqLen >= 2 {
		n += s.pairs(bases, true, emit)
	}
	if s.Cfg.ExtraSequences != nil {
		for _, seq := range s.Cfg.ExtraSequences(s.B, s.Target) {
			emit(seq)
			n++
		}
	}
	return n
}

// singles emits every instruction as a one-instruction sequence and
// returns the pair bases.
func (s *Synthesizer) singles(emit func(*isa.Sequence)) []*isa.Sequence {
	var bases []*isa.Sequence
	for _, inst := range s.Target.Insts {
		seq := isa.Single(s.B, inst)
		emit(seq)
		bases = append(bases, seq)
		// Flag-setting instructions with an immediate also enter the
		// pool with the immediate bound to zero: compare-against-zero is
		// its own idiom (cmp x, #0) whose flag terms simplify in ways
		// structural unification cannot see with a free immediate.
		if writesFlags(seq) {
			zeroed := seq
			ok := true
			for _, op := range inst.Operands {
				if op.Kind != spec.OpImm {
					continue
				}
				z, err := isa.BindImm(s.B, zeroed, 0, op.Name, bv.Zero(op.Width))
				if err != nil {
					ok = false
					break
				}
				zeroed = z
			}
			if ok && zeroed != seq {
				bases = append(bases, zeroed)
			}
		}
	}
	return bases
}

// pairs composes each base with every instruction that may follow it
// and emits the compositions in order; it returns how many it composed.
// Every call it makes is one Append accepts: CanAppend holds, a wired
// operand matches the base's result width, and a flag consumer follows
// a flag writer.
//
// With prune set, a pair that addEntry would drop is counted but never
// built: Config.PoolFilter rejects its instructions, the appended
// instruction has no single primary effect, or the result is certain
// to read a flag (any effect) or the PC (the primary effect).
// AppendCache.MustRead decides the last without building, and only
// where no builder fold can erase the variable. addEntry's rules stay
// the backstop for every pair that is built.
func (s *Synthesizer) pairs(bases []*isa.Sequence, prune bool, emit func(*isa.Sequence)) int {
	// The template cache amortizes the rename/rebuild work of Append
	// across the O(bases × insts) pair loop (enumerate runs on one
	// goroutine, so the cache needs no locking).
	ac := isa.NewAppendCache()
	var insts []*isa.Instruction // PoolFilter's view of a pair
	// One wiring slice per operand name, shared by every pair that wires
	// that operand; Append and MustRead never write to it.
	wires := map[string][]string{}
	for _, inst := range s.Target.Insts {
		for _, op := range inst.Operands {
			if wires[op.Name] == nil {
				wires[op.Name] = []string{op.Name}
			}
		}
	}
	doomed := func(base *isa.Sequence, inst *isa.Instruction, wire []string, flags bool) bool {
		if s.Cfg.PoolFilter != nil {
			insts = append(append(insts[:0], base.Insts...), inst)
			if !s.Cfg.PoolFilter(insts) {
				return true
			}
		}
		primary, _, ok := primaryEffect(inst.Effects)
		if !ok {
			return true
		}
		fl, pc, err := ac.MustRead(s.B, base, inst, wire, flags)
		return err == nil && (fl != 0 || pc&(1<<primary) != 0)
	}
	n := 0
	compose := func(base *isa.Sequence, inst *isa.Instruction, wire []string, flags bool) {
		if prune && doomed(base, inst, wire, flags) {
			n++
			return
		}
		if seq, err := ac.Append(s.B, base, inst, wire, flags); err == nil {
			n++
			emit(seq)
		}
	}
	for _, base := range bases {
		prevW := resultWidth(base)
		for _, inst := range s.Target.Insts {
			if !base.CanAppend(inst) {
				continue
			}
			// Wire each width-compatible register operand.
			for _, op := range inst.Operands {
				if op.Kind == spec.OpImm || op.Width != prevW {
					continue
				}
				compose(base, inst, wires[op.Name], false)
			}
			// Flag-consuming composition (cmp+csel chains, §VI-A).
			if readsFlags(inst) && writesFlags(base) {
				compose(base, inst, nil, true)
			}
		}
	}
	return n
}

func resultWidth(seq *isa.Sequence) int {
	for _, e := range seq.Effects {
		if e.Kind == spec.EffReg && e.Dest == "rd" {
			return e.T.W()
		}
	}
	return 0
}

func readsFlags(inst *isa.Instruction) bool {
	for _, e := range inst.Effects {
		for _, v := range e.T.Vars() {
			if v.Kind == term.KindFlag {
				return true
			}
		}
	}
	return false
}

func writesFlags(seq *isa.Sequence) bool {
	for _, e := range seq.Effects {
		if e.Kind == spec.EffFlag {
			return true
		}
	}
	return false
}

// poolEffect applies the pool's drop rules to seq: it returns the
// primary effect an entry for seq indexes, or false when seq stays out
// of the pool.
func (s *Synthesizer) poolEffect(seq *isa.Sequence) (spec.Effect, EffectClass, bool) {
	if s.Cfg.PoolFilter != nil && !s.Cfg.PoolFilter(seq.Insts) {
		return spec.Effect{}, 0, false
	}
	i, class, ok := primaryEffect(seq.Effects)
	if !ok {
		return spec.Effect{}, 0, false
	}
	eff := seq.Effects[i]
	// Sequences with unconsumed flag or PC inputs cannot match IR
	// patterns (IR has neither); they only exist as composition bases.
	for _, in := range seq.Inputs {
		if in.Flags || in.Var.Kind == term.KindPC {
			return spec.Effect{}, 0, false
		}
	}
	for _, v := range eff.T.Vars() {
		if v.Kind == term.KindFlag || v.Kind == term.KindPC {
			return spec.Effect{}, 0, false
		}
	}
	return eff, class, true
}

// addEntry canonicalizes, evaluates, and indexes one sequence's primary
// effect, unless poolEffect drops the sequence.
func (s *Synthesizer) addEntry(seq *isa.Sequence) {
	eff, class, ok := s.poolEffect(seq)
	if !ok {
		return
	}

	e := &PoolEntry{Seq: seq, Effect: eff, Class: class, Width: eff.T.W()}
	e.cost = seq.Cost()
	for _, in := range seq.Inputs {
		if in.Op.Kind == spec.OpImm {
			e.NImms++
		} else {
			e.NRegs++
		}
	}
	e.LoadSig = loadSignature(eff.T)

	t0 := time.Now()
	e.CT = s.CX.Canon(eff.T)
	s.Stats.CanonTime += time.Since(t0)

	// Test evaluations are lazy (PoolEntry.digests): stage 1 only records
	// the vector count, and Stats.EvalTime accrues in stage 2 as probed
	// entries are evaluated on demand.
	e.evalN = s.Cfg.TestInputs

	t0 = time.Now()
	s.Index.Insert(e.CT, e)
	s.Stats.InsertTime += time.Since(t0)
	s.Stats.IndexEntries++

	s.Pool = append(s.Pool, e)
	key := e.filterKey()
	s.byFilter[key] = append(s.byFilter[key], e)
}

// filterKey is the SMT-fallback bucket key: pool entries are filed under
// it in addEntry and patterns look their candidates up by it.
type filterKey struct {
	class        EffectClass
	width        int
	nRegs, nImms int
	loads        string // loadSignature, "" without loads
}

// filterKey is the SMT-fallback bucket the entry is filed under.
func (e *PoolEntry) filterKey() filterKey {
	return filterKey{e.Class, e.Width, e.NRegs, e.NImms, e.LoadSig}
}

// primaryEffect picks the effect a rule would match: the register result
// for value sequences, the store for store sequences. Sequences with
// extra visible effects (write-backs, PC updates, live flag outputs are
// fine — flags are simply clobbered, like LLVM's implicit-def NZCV) are
// still indexed by their primary effect; write-backs and PC effects are
// not matchable and are skipped. It reads only effect kinds and
// destinations, so an instruction's own effects answer it for every
// sequence that ends in that instruction.
func primaryEffect(effects []spec.Effect) (int, EffectClass, bool) {
	reg, mem := -1, -1
	for i, e := range effects {
		switch e.Kind {
		case spec.EffPC, spec.EffWB:
			return 0, 0, false
		case spec.EffReg:
			if e.Dest == "rd" && reg < 0 {
				reg = i
			} else {
				return 0, 0, false // rd2: multi-output
			}
		case spec.EffMem:
			if mem >= 0 {
				return 0, 0, false
			}
			mem = i
		}
	}
	switch {
	case reg >= 0 && mem < 0:
		return reg, ClassValue, true
	case mem >= 0 && reg < 0:
		return mem, ClassStore, true
	}
	return 0, 0, false
}

// loadSignature summarizes load widths for the candidate filter.
func loadSignature(t *term.Term) string {
	sig := ""
	for _, l := range t.Loads() {
		sig += "l" + itoa(l.W()) + ";"
	}
	return sig
}

// --- deterministic test inputs (§V-C) ---

// nameHash is the FNV-1a hash of a variable name — the name-dependent
// half of the test-input derivation, hoisted so per-vector loops hash
// each name once instead of once per (vector, name) pair.
func nameHash(name string) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 1099511628211
	}
	return h
}

// rawInputH produces the fixed 128-bit random input for test vector j
// and the variable whose name hashes (nameHash) to h. Values are keyed
// by name (not position) so pattern-side probing can reproduce exactly
// the value a sequence variable received.
func rawInputH(j int, h uint64) (hi, lo uint64) {
	rng := bv.NewRNG(h ^ uint64(j)*0x9e3779b97f4a7c15)
	v := rng.BV(128)
	return v.Hi, v.Lo
}

// digest reduces an evaluation result to 64 bits for compact caching.
func digest(v bv.BV) uint64 {
	x := v.Lo ^ (v.Hi * 0x9e3779b97f4a7c15) ^ uint64(v.Width)<<56
	x ^= x >> 29
	return x
}
