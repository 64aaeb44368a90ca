// Package harness wires the full reproduction together: it loads a
// target, builds the synthesis pool, extracts the IR pattern corpus from
// the benchmark suite (the CTMark analog, §VII-B), synthesizes the rule
// library, constructs all backends (synthesized + baselines), and runs
// the SPEC-analog workload suite. Evaluate computes every table and
// figure of the paper's evaluation from these as data.
package harness

import (
	"fmt"
	"math"
	"time"

	"iselgen/internal/bench"
	"iselgen/internal/core"
	"iselgen/internal/cost"
	"iselgen/internal/gmir"
	"iselgen/internal/isa"
	"iselgen/internal/isel"
	"iselgen/internal/pattern"
	"iselgen/internal/rules"
	"iselgen/internal/sim"
	"iselgen/internal/targets"
	"iselgen/internal/term"
)

// Setup is a fully-loaded target with its baselines and (after
// Synthesize) the synthesized backend.
type Setup struct {
	Name      string
	B         *term.Builder
	ISA       *isa.Target
	Baselines []*isel.Backend // ordered: most optimized first
	Synth     *isel.Backend
	SynthLib  *rules.Library
	Synther   *core.Synthesizer
	// Handwritten is the GlobalISel-analog baseline (also the fallback
	// backend when selection fails, mirroring §VIII-A).
	Handwritten *isel.Backend

	builtin *targets.Builtin
}

// New loads a builtin selection target and its baselines.
func New(name string) (*Setup, error) {
	bt, err := targets.LookupSelecting(name)
	if err != nil {
		return nil, err
	}
	b := term.NewBuilder()
	tgt, err := bt.Load(b)
	if err != nil {
		return nil, err
	}
	s := &Setup{Name: bt.Name, B: b, ISA: tgt, builtin: bt}
	s.Baselines, s.Handwritten = bt.Baselines(b, tgt)
	return s, nil
}

// MinWidth is the target's legalization floor (see targets.Builtin).
func (s *Setup) MinWidth() int { return s.builtin.MinWidth }

// CostModel derives the cost table of a builtin target from its spec's
// latency and size metadata, loading the spec on every call.
//
// Deprecated: only the frozen benchmark's replay (cmd/iselperf) calls
// it; the benchmark change of ROADMAP item 2 deletes it.
func CostModel(name string) (*cost.Table, error) {
	bt, err := targets.Lookup(name)
	if err != nil {
		return nil, fmt.Errorf("cost model: %w", err)
	}
	tgt, err := bt.Load(term.NewBuilder())
	if err != nil {
		return nil, err
	}
	return cost.FromTarget(tgt), nil
}

// ExtraSequences returns a builtin target's §VII-A special sequences
// (nil for unknown targets and targets without any).
func ExtraSequences(name string) func(b *term.Builder, t *isa.Target) []*isa.Sequence {
	if bt, err := targets.Lookup(name); err == nil {
		return bt.Extra
	}
	return nil
}

// CorpusPatterns extracts the ranked pattern pool from the benchmark
// suite, prepared the way the target's selector will see it, and unions
// in the seed patterns. The corpus plays the role of CTMark (§VII-B);
// because it is far smaller than CTMark, the systematically important
// single-operation and comparison-chain shapes are seeded explicitly
// (they all occur in CTMark-scale corpora).
func CorpusPatterns(targetName string, maxPatterns int) []*pattern.Pattern {
	ex := pattern.NewExtractor()
	for _, w := range bench.Suite(1) {
		f := w.Build()
		isel.Prepare(f, targetName)
		ex.AddFunction(f)
	}
	ranked := ex.Ranked()
	seen := map[string]bool{}
	for _, p := range ranked {
		seen[p.Key()] = true
	}
	for _, p := range SeedPatterns() {
		if !seen[p.Key()] {
			seen[p.Key()] = true
			ranked = append(ranked, p)
		}
	}
	if maxPatterns > 0 && len(ranked) > maxPatterns {
		ranked = ranked[:maxPatterns]
	}
	return ranked
}

// SeedPatterns enumerates the baseline pattern shapes every corpus of
// CTMark scale contains: one pattern per selectable operation and type,
// immediate variants, comparison-to-boolean chains for every predicate,
// select-of-comparison, and the load/store addressing shapes.
func SeedPatterns() []*pattern.Pattern {
	var out []*pattern.Pattern
	add := func(n *pattern.Node) { out = append(out, pattern.New(n)) }
	r := func(bits int) *pattern.Node { return pattern.Leaf(gmir.Type{Bits: bits}) }
	i := func(bits int) *pattern.Node { return pattern.ImmLeaf(gmir.Type{Bits: bits}) }
	op := func(o gmir.Opcode, bits int, args ...*pattern.Node) *pattern.Node {
		return pattern.Op(o, gmir.Type{Bits: bits}, args...)
	}
	for _, w := range []int{32, 64} {
		for _, o := range []gmir.Opcode{gmir.GAdd, gmir.GSub, gmir.GMul,
			gmir.GUDiv, gmir.GSDiv, gmir.GURem, gmir.GSRem,
			gmir.GAnd, gmir.GOr, gmir.GXor, gmir.GShl, gmir.GLShr, gmir.GAShr,
			gmir.GSMin, gmir.GSMax, gmir.GUMin, gmir.GUMax} {
			add(op(o, w, r(w), r(w)))
			add(op(o, w, r(w), i(w)))
		}
		for _, o := range []gmir.Opcode{gmir.GCtlz, gmir.GCtpop, gmir.GBSwap, gmir.GAbs} {
			add(op(o, w, r(w)))
		}
		// Comparison chains for every predicate.
		for p := gmir.PredEQ; p <= gmir.PredSGE; p++ {
			cmpRR := &pattern.Node{Op: gmir.GICmp, Ty: gmir.S1, Pred: p,
				Args: []*pattern.Node{r(w), r(w)}}
			cmpRI := &pattern.Node{Op: gmir.GICmp, Ty: gmir.S1, Pred: p,
				Args: []*pattern.Node{r(w), i(w)}}
			for _, zw := range []int{32, 64} {
				add(op(gmir.GZExt, zw, cmpRR))
				add(op(gmir.GZExt, zw, cmpRI))
			}
			add(op(gmir.GSelect, w, cmpRR, r(w), r(w)))
			add(op(gmir.GSelect, w, cmpRI, r(w), r(w)))
		}
	}
	add(op(gmir.GZExt, 64, r(32)))
	add(op(gmir.GSExt, 64, r(32)))
	add(op(gmir.GTrunc, 32, r(64)))
	add(op(gmir.GPtrAdd, 64, r(64), r(64)))
	add(op(gmir.GPtrAdd, 64, r(64), i(64)))
	// Loads and stores: plain, immediate-offset, register-offset,
	// shifted-register addressing.
	addrs := func() []*pattern.Node {
		return []*pattern.Node{
			r(64),
			op(gmir.GPtrAdd, 64, r(64), i(64)),
			op(gmir.GPtrAdd, 64, r(64), r(64)),
			op(gmir.GPtrAdd, 64, r(64), op(gmir.GShl, 64, r(64), i(64))),
		}
	}
	for _, mem := range []int{8, 16, 32, 64} {
		for _, lo := range []gmir.Opcode{gmir.GLoad, gmir.GSLoad} {
			for _, ty := range []int{32, 64} {
				if mem > ty || (mem == ty && lo == gmir.GSLoad) {
					continue
				}
				for _, a := range addrs() {
					add(pattern.LoadOp(lo, gmir.Type{Bits: ty}, mem, a))
				}
			}
		}
		for _, ty := range []int{32, 64} {
			if mem > ty {
				continue
			}
			for _, a := range addrs() {
				add(pattern.StoreOp(mem, r(ty), a))
			}
		}
	}
	return out
}

// Synthesize builds the pool (if needed) and synthesizes the rule
// library from the corpus, then constructs the synthesized backend.
func (s *Setup) Synthesize(cfg core.Config, maxPatterns int) *rules.Library {
	if cfg.ExtraSequences == nil {
		cfg.ExtraSequences = s.builtin.Extra
	}
	if s.Synther == nil {
		s.Synther = core.New(s.B, s.ISA, cfg)
		s.Synther.BuildPool()
	}
	lib := rules.NewLibrary(s.Name)
	pats := CorpusPatterns(s.Name, maxPatterns)
	s.Synther.Synthesize(pats, lib)
	s.SynthLib = lib
	s.Synth = s.builtin.Synth(s.ISA, lib)
	return lib
}

// Row is one (workload, backend) measurement.
type Row struct {
	Workload string `json:"workload"`
	Backend  string `json:"backend"`
	Cycles   int64  `json:"cycles"`
	Insts    int64  `json:"insts"`
	Size     int    `json:"size"`
	Fallback bool   `json:"fallback"`
}

// RunSuite compiles and simulates the whole workload suite on every
// backend (baselines plus synthesized, when present), validating each
// run against the gMIR interpreter. A backend that cannot select a
// function is recorded as a fallback and measured with the handwritten
// baseline's code for that function, the way LLVM falls back to
// SelectionDAG (§VIII-A).
func (s *Setup) RunSuite(scale int) ([]Row, error) {
	backends := append([]*isel.Backend(nil), s.Baselines...)
	if s.Synth != nil {
		backends = append(backends, s.Synth)
	}
	var rows []Row
	for _, w := range bench.Suite(scale) {
		// Reference result.
		refMem := gmir.NewMemory()
		if w.InitMem != nil {
			w.InitMem(refMem)
		}
		ip := &gmir.Interp{Mem: refMem}
		ref, err := ip.Run(w.Build(), w.Args...)
		if err != nil {
			return nil, fmt.Errorf("%s: interp: %w", w.Name, err)
		}
		for _, bk := range backends {
			f := w.Build()
			isel.Prepare(f, s.Name)
			mf, rep := bk.Select(f)
			row := Row{Workload: w.Name, Backend: bk.Name}
			if rep.Fallback {
				row.Fallback = true
				// Fall back to the handwritten baseline for the whole
				// function.
				f2 := w.Build()
				isel.Prepare(f2, s.Name)
				mf, rep = s.Handwritten.Select(f2)
				if rep.Fallback {
					return nil, fmt.Errorf("%s: even baseline fell back: %s", w.Name, rep.FallbackReason)
				}
			}
			mem := gmir.NewMemory()
			if w.InitMem != nil {
				w.InitMem(mem)
			}
			m := &sim.Machine{Mem: mem}
			res, err := m.Run(mf, w.Args)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: sim: %w", w.Name, bk.Name, err)
			}
			if sim.Adjust(res.Ret, 64) != ref {
				return nil, fmt.Errorf("%s/%s: checksum %v, want %v", w.Name, bk.Name, res.Ret, ref)
			}
			row.Cycles = res.Cycles
			row.Insts = res.Insts
			row.Size = mf.BinarySize()
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// Normalized returns, per workload, each backend's cycles normalized to
// the named reference backend — the presentation of Figs. 9 and 11.
func Normalized(rows []Row, refBackend string) map[string]map[string]float64 {
	ref := map[string]int64{}
	for _, r := range rows {
		if r.Backend == refBackend {
			ref[r.Workload] = r.Cycles
		}
	}
	out := map[string]map[string]float64{}
	for _, r := range rows {
		if ref[r.Workload] == 0 {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string]float64{}
		}
		out[r.Workload][r.Backend] = float64(r.Cycles) / float64(ref[r.Workload])
	}
	return out
}

// GeoMean computes the geometric mean of one backend's normalized
// runtimes across workloads.
func GeoMean(norm map[string]map[string]float64, backend string) float64 {
	prod := 1.0
	n := 0
	for _, per := range norm {
		if v, ok := per[backend]; ok && v > 0 {
			prod *= v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Pow(prod, 1/float64(n))
}

// TableII renders the synthesis-time breakdown.
func (s *Setup) TableII(lib *rules.Library) string {
	st := s.Synther.Stats
	out := fmt.Sprintf("Table II analog — %s synthesis breakdown\n", s.Name)
	out += fmt.Sprintf("  Instruction Generation  %8d instr. seq. %12v\n", st.Sequences, st.InstrGenTime.Round(time.Millisecond))
	out += fmt.Sprintf("    Canonicalize          %25v\n", st.CanonTime.Round(time.Millisecond))
	out += fmt.Sprintf("    SMT Test Eval.        %25v\n", st.EvalTime.Round(time.Millisecond))
	out += fmt.Sprintf("    Index Insert          %25v\n", st.InsertTime.Round(time.Millisecond))
	out += fmt.Sprintf("  Pattern Generation      %8d patterns\n", st.Patterns)
	w := s.Synther.Cfg.Workers
	if w < 1 {
		w = 1
	}
	perThread := func(d time.Duration) time.Duration {
		return (d / time.Duration(w)).Round(time.Millisecond)
	}
	out += fmt.Sprintf("  Lookup (parallel)       %8d rules %17v wall\n", lib.Len(), st.LookupTime.Round(time.Millisecond))
	out += fmt.Sprintf("    Index Lookup          %8d rules %17v cpu/thread\n", st.IndexRules, perThread(st.IndexLookupT))
	out += fmt.Sprintf("    SMT Test Eval.        %25v cpu/thread\n", perThread(st.ProbeTime))
	out += fmt.Sprintf("    SMT Time              %8d rules %17v cpu/thread (%d queries, %d timeouts)\n",
		st.SMTRules, perThread(st.SMTTime), st.SMTQueries, st.SMTTimeouts)
	return out
}
