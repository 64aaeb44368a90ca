package harness

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"

	"iselgen/internal/bench"
	"iselgen/internal/core"
	"iselgen/internal/enc"
	"iselgen/internal/gmir"
	"iselgen/internal/isel"
	"iselgen/internal/pattern"
	"iselgen/internal/rules"
	"iselgen/internal/solver"
	"iselgen/internal/targets"
	"iselgen/internal/term"
)

// Report is the paper's evaluation (§VII–§IX) as data, one field per
// leg in the order Evaluate runs them; `go run ./cmd/iselbench` writes
// it as EXPERIMENTS.json. Every key ending in _ms is a Timing, Machine
// and Workers say where the report was taken, and every other value is
// a count that depends only on the code.
type Report struct {
	Machine Machine `json:"machine"`
	// Workers is the synthesis worker count of each leg that synthesizes.
	Workers  map[string]int `json:"workers"`
	Fig6     []Fig6         `json:"fig6"`
	Fig7     Fig7           `json:"fig7"`
	Fig8     Fig8           `json:"fig8"`
	TableII  TableII        `json:"table2"`
	Suites   []Suite        `json:"suites"`
	Coverage []Coverage     `json:"coverage"`
	Fig10    Fig10          `json:"fig10"`
	X86      X86            `json:"x86"`
	Ablation Ablation       `json:"ablation"`
	Encoding []Encoding     `json:"encoding"`
}

// Machine records where a report was taken.
type Machine struct {
	// Commit is the build's vcs.revision, empty when the toolchain did
	// not stamp one (go run and go test do not).
	Commit string `json:"commit"`
	GOOS   string `json:"goos"`
	GOARCH string `json:"goarch"`
	CPU    string `json:"cpu"`
	NProc  int    `json:"nproc"`
}

// Timing is one time column in milliseconds over N runs: the median and
// the interquartile range (0 below two runs).
type Timing struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	IQR    float64 `json:"iqr"`
}

// Work is what one synthesis produced and what the solver spent on it,
// in counts that do not depend on the worker count.
type Work struct {
	Sequences  int   `json:"sequences"`
	Rules      int   `json:"rules"`
	IndexRules int   `json:"index_rules"`
	SMTRules   int   `json:"smt_rules"`
	SMTQueries int64 `json:"smt_queries"`
}

// Run is one synthesis configuration at one worker, timed over repeated
// runs that each load the target afresh. Bit-blasts repeat only at one
// worker: with more, the counterexample screen's hits depend on which
// worker's refutation reaches the shared memo first.
type Run struct {
	Work
	BitBlasts int64  `json:"bit_blasts"`
	PoolMS    Timing `json:"pool_ms"`
	MatchMS   Timing `json:"match_ms"`
	TotalMS   Timing `json:"total_ms"`
}

// Fig6 is one target's rule-length distributions (Fig. 6): the
// handwritten and the synthesized library's rules per sequence length
// and per pattern size in gMIR operations.
type Fig6 struct {
	Target      string      `json:"target"`
	Handwritten rules.Stats `json:"handwritten"`
	Synthesized rules.Stats `json:"synthesized"`
}

// Fig7 is the rule count as the pattern budget grows (Fig. 7), over one
// pool.
type Fig7 struct {
	Target string    `json:"target"`
	Rows   []Fig7Row `json:"rows"`
}

// Fig7Row is one pattern budget.
type Fig7Row struct {
	Patterns   int `json:"patterns"`
	Rules      int `json:"rules"`
	IndexRules int `json:"index_rules"`
	SMTRules   int `json:"smt_rules"`
}

// Fig8 sweeps the number of test inputs per sequence (Fig. 8).
type Fig8 struct {
	Target string    `json:"target"`
	Rows   []Fig8Row `json:"rows"`
}

// Fig8Row is one input count: pool build and matching time beside the
// solver work that the inputs' filtering leaves.
type Fig8Row struct {
	Inputs int `json:"inputs"`
	Run
}

// TableII is the synthesis breakdown (Table II) of one default-config
// synthesis. Fig. 8's default-input row has its bit-blasts at one
// worker. The CPU columns sum over workers.
type TableII struct {
	Target string `json:"target"`
	Work
	IndexEntries     int    `json:"index_entries"`
	Patterns         int    `json:"patterns"`
	SMTTimeouts      int64  `json:"smt_timeouts"`
	InstrGenMS       Timing `json:"instr_gen_ms"`
	CanonicalizeMS   Timing `json:"canonicalize_ms"`
	TestEvalMS       Timing `json:"test_eval_ms"`
	IndexInsertMS    Timing `json:"index_insert_ms"`
	LookupWallMS     Timing `json:"lookup_wall_ms"`
	IndexLookupCPUMS Timing `json:"index_lookup_cpu_ms"`
	ProbeCPUMS       Timing `json:"probe_cpu_ms"`
	SMTCPUMS         Timing `json:"smt_cpu_ms"`
	TotalMS          Timing `json:"total_ms"`
}

// Suite is one target's workload suite on every backend: Table III's
// fallbacks, Fig. 9/11's runtimes and §VIII-C's code sizes.
type Suite struct {
	Target string `json:"target"`
	Scale  int    `json:"scale"`
	Rows   []Row  `json:"rows"`
	// Fallbacks counts, per backend, the workload functions it could not
	// select (Table III).
	Fallbacks map[string]int `json:"fallbacks"`
	// Geomean is each backend's geometric mean over the workloads of
	// cycles normalized to the SelectionDAG analog (Figs. 9 and 11).
	Geomean map[string]float64 `json:"geomean"`
	// SizeRatio is the synthesized backend's code bytes over the
	// GlobalISel analog's, summed over the suite (§VIII-C).
	SizeRatio float64 `json:"size_ratio"`
}

// Coverage turns every synthesized rule into a one-function test case
// (§VIII-B) and counts how each backend selects them.
type Coverage struct {
	Target         string `json:"target"`
	Cases          int    `json:"cases"`
	Skipped        int    `json:"skipped"`
	SynthHooks     int    `json:"synth_hooks"`
	SynthFallbacks int    `json:"synth_fallbacks"`
	HandHooks      int    `json:"hand_hooks"`
	HandFallbacks  int    `json:"hand_fallbacks"`
}

// Fig10 is the synthesized backend's code for a comparison that feeds
// both a select and a zero-extension (Fig. 10).
type Fig10 struct {
	Target  string   `json:"target"`
	Listing []string `json:"listing"`
}

// X86 is the §IX synthesis from the simplified x86-32 spec over the
// 32-bit seed patterns.
type X86 struct {
	Patterns int `json:"patterns"`
	Run
}

// Ablation is the §VII-D ablation on a small pattern budget: the full
// pipeline, without the index, and without the index and the probe.
type Ablation struct {
	Target          string        `json:"target"`
	Patterns        int           `json:"patterns"`
	TestInputs      int           `json:"test_inputs"`
	SMTMaxConflicts int64         `json:"smt_max_conflicts"`
	Rows            []AblationRow `json:"rows"`
}

// AblationRow is one configuration.
type AblationRow struct {
	Config string `json:"config"`
	Run
}

// Encoding is one target's workload suite, selected by the handwritten
// backend, assembled to machine bytes and decoded back: every
// instruction must re-encode to the same bytes.
type Encoding struct {
	Target     string `json:"target"`
	Workloads  int    `json:"workloads"`
	Insts      int    `json:"insts"`
	CodeBytes  int    `json:"code_bytes"`
	RoundTrips int    `json:"round_trips"`
}

// Evaluate runs every leg of the evaluation. Each leg, and each run of
// a timed leg, starts from an empty solver.Shared, so no leg is warmed
// by another. The timed legs (Fig. 8, Table II, §IX, the ablation) run
// repeats times; a count that differs between runs is an error, as is a
// machine-code round trip that diverges.
func Evaluate(repeats int) (*Report, error) {
	r := &Report{Machine: machine(), Workers: map[string]int{}}
	var both []*Setup
	def := core.DefaultConfig().Workers
	legs := []struct {
		name    string
		workers int // 0: the leg does not synthesize
		run     func() error
	}{
		{"fig6", def, func() (err error) {
			if both, err = each([]string{"aarch64", "riscv"}, synthesized); err == nil {
				r.Fig6, err = each(both, fig6)
			}
			return err
		}},
		{"fig7", def, func() error { r.Fig7 = fig7(both[0]); return nil }},
		{"fig8", 1, func() (err error) { r.Fig8, err = fig8(repeats); return err }},
		{"table2", def, func() (err error) { r.TableII, err = tableII(repeats); return err }},
		{"suites", def, func() (err error) { r.Suites, err = each(both, suite); return err }},
		{"coverage", def, func() (err error) { r.Coverage, err = each(both, coverage); return err }},
		{"fig10", def, func() (err error) { r.Fig10, err = fig10(both[0]); return err }},
		{"x86", 1, func() (err error) { r.X86, err = x86(repeats); return err }},
		{"ablation", 1, func() (err error) { r.Ablation, err = ablation(repeats); return err }},
		{"encoding", 0, func() (err error) { r.Encoding, err = each(both, encoding); return err }},
	}
	for _, leg := range legs {
		if leg.workers > 0 {
			r.Workers[leg.name] = leg.workers
		}
		solver.Shared.Reset()
		if err := leg.run(); err != nil {
			return nil, fmt.Errorf("%s: %w", leg.name, err)
		}
	}
	return r, nil
}

// each applies f to every input in order, stopping at the first error.
func each[I, O any](in []I, f func(I) (O, error)) ([]O, error) {
	out := make([]O, 0, len(in))
	for _, x := range in {
		y, err := f(x)
		if err != nil {
			return nil, err
		}
		out = append(out, y)
	}
	return out, nil
}

func machine() Machine {
	m := Machine{GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, NProc: runtime.NumCPU()}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				m.Commit = s.Value
			}
		}
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		_, rest, _ := strings.Cut(string(b), "model name")
		_, rest, _ = strings.Cut(rest, ":")
		rest, _, _ = strings.Cut(rest, "\n")
		m.CPU = strings.TrimSpace(rest)
	}
	return m
}

// synthesized loads a builtin target and synthesizes its library the
// way iselgen does: default configuration, full corpus, empty verdict
// store.
func synthesized(name string) (*Setup, error) {
	s, err := New(name)
	if err != nil {
		return nil, err
	}
	solver.Shared.Reset()
	s.Synthesize(core.DefaultConfig(), 0)
	return s, nil
}

// timed runs f repeats times, each from an empty verdict store and a
// collected heap, and returns the first run's row with each of its
// durations summarized over the runs. f returns its row without times;
// rows that differ between runs are an error, because the legs report
// work that must not depend on the run.
func timed[R comparable](repeats int, f func() (R, []time.Duration, error)) (R, []Timing, error) {
	var first R
	var samples [][]float64
	for i := 0; i < max(repeats, 1); i++ {
		solver.Shared.Reset()
		runtime.GC()
		row, ds, err := f()
		if err != nil {
			return first, nil, err
		}
		if i == 0 {
			first, samples = row, make([][]float64, len(ds))
		} else if row != first {
			return first, nil, fmt.Errorf("run %d counted %+v, run 1 %+v", i+1, row, first)
		}
		for j, d := range ds {
			samples[j] = append(samples[j], float64(d.Nanoseconds())/1e6)
		}
	}
	ts := make([]Timing, len(samples))
	for j, xs := range samples {
		ts[j] = summarize(xs)
	}
	return first, ts, nil
}

// summarize reduces one time column to its median and interquartile
// range. The quartiles interpolate as Python's
// statistics.quantiles(xs, n=4) does, as cmd/iselperf's do.
func summarize(xs []float64) Timing {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	t := Timing{N: n, Median: round((s[(n-1)/2]+s[n/2])/2, 2)}
	if n >= 2 {
		m := n + 1
		cut := func(i int) float64 {
			j := max(1, min(i*m/4, n-1))
			d := i*m - j*4
			return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
		}
		t.IQR = round(cut(3)-cut(1), 2)
	}
	return t
}

// round keeps digits decimals, so derived ratios compare equal across
// platforms whose floating point differs in the last bits.
func round(x float64, digits int) float64 {
	p := math.Pow(10, float64(digits))
	return math.Round(x*p) / p
}

// synth loads target name afresh, builds its pool under cfg and
// matches pats against it, timing the two stages apart.
func synth(name string, cfg core.Config, pats []*pattern.Pattern) (*core.Synthesizer, Work, [2]time.Duration, error) {
	bt, err := targets.Lookup(name)
	if err != nil {
		return nil, Work{}, [2]time.Duration{}, err
	}
	b := term.NewBuilder()
	tgt, err := bt.Load(b)
	if err != nil {
		return nil, Work{}, [2]time.Duration{}, err
	}
	cfg.ExtraSequences = bt.Extra
	t0 := time.Now()
	sy := core.New(b, tgt, cfg)
	sy.BuildPool()
	t1 := time.Now()
	lib := rules.NewLibrary(tgt.Name)
	sy.Synthesize(pats, lib)
	d := [2]time.Duration{t1.Sub(t0), time.Since(t1)}
	by := lib.Summarize().BySource
	return sy, Work{Sequences: sy.Stats.Sequences, Rules: lib.Len(), IndexRules: by["index"],
		SMTRules: by["smt"], SMTQueries: sy.Stats.SMTQueries}, d, nil
}

// run times synth of pats on target name at one worker, where the
// solver's work repeats exactly.
func run(repeats int, name string, cfg core.Config, pats []*pattern.Pattern) (Run, error) {
	cfg.Workers = 1
	r, ts, err := timed(repeats, func() (Run, []time.Duration, error) {
		sy, w, d, err := synth(name, cfg, pats)
		if err != nil {
			return Run{}, nil, err
		}
		return Run{Work: w, BitBlasts: sy.Stats.BitBlasts}, []time.Duration{d[0], d[1], d[0] + d[1]}, nil
	})
	if err != nil {
		return Run{}, err
	}
	r.PoolMS, r.MatchMS, r.TotalMS = ts[0], ts[1], ts[2]
	return r, nil
}

func fig6(s *Setup) (Fig6, error) {
	return Fig6{s.Name, s.Handwritten.Lib.Summarize(), s.SynthLib.Summarize()}, nil
}

// fig7 matches growing corpus prefixes against s's pool.
func fig7(s *Setup) Fig7 {
	out := Fig7{Target: s.Name}
	for _, budget := range []int{25, 50, 100, 200, 400, 0} {
		solver.Shared.Reset()
		pats := CorpusPatterns(s.Name, budget)
		lib := rules.NewLibrary(s.Name)
		s.Synther.Synthesize(pats, lib)
		by := lib.Summarize().BySource
		out.Rows = append(out.Rows, Fig7Row{Patterns: len(pats), Rules: lib.Len(),
			IndexRules: by["index"], SMTRules: by["smt"]})
	}
	return out
}

func fig8(repeats int) (Fig8, error) {
	out := Fig8{Target: "aarch64"}
	pats := CorpusPatterns(out.Target, 0)
	for _, inputs := range []int{8, 32, 128, 512} {
		cfg := core.DefaultConfig()
		cfg.TestInputs = inputs
		r, err := run(repeats, out.Target, cfg, pats)
		if err != nil {
			return out, err
		}
		out.Rows = append(out.Rows, Fig8Row{Inputs: inputs, Run: r})
	}
	return out, nil
}

func tableII(repeats int) (TableII, error) {
	pats := CorpusPatterns("aarch64", 0)
	row, ts, err := timed(repeats, func() (TableII, []time.Duration, error) {
		sy, w, d, err := synth("aarch64", core.DefaultConfig(), pats)
		if err != nil {
			return TableII{}, nil, err
		}
		st := &sy.Stats
		return TableII{Target: "aarch64", Work: w, IndexEntries: st.IndexEntries, Patterns: st.Patterns,
				SMTTimeouts: st.SMTTimeouts},
			[]time.Duration{st.InstrGenTime, st.CanonTime, st.EvalTime, st.InsertTime,
				st.LookupTime, st.IndexLookupT, st.ProbeTime, st.SMTTime, d[0] + d[1]}, nil
	})
	if err != nil {
		return row, err
	}
	row.InstrGenMS, row.CanonicalizeMS, row.TestEvalMS, row.IndexInsertMS = ts[0], ts[1], ts[2], ts[3]
	row.LookupWallMS, row.IndexLookupCPUMS, row.ProbeCPUMS, row.SMTCPUMS = ts[4], ts[5], ts[6], ts[7]
	row.TotalMS = ts[8]
	return row, nil
}

// suite runs the workload suite at scale 2 on every backend of s.
func suite(s *Setup) (Suite, error) {
	rows, err := s.RunSuite(2)
	if err != nil {
		return Suite{}, err
	}
	out := Suite{Target: s.Name, Scale: 2, Rows: rows,
		Fallbacks: map[string]int{}, Geomean: map[string]float64{}}
	norm := Normalized(rows, "selectiondag")
	size := map[string]int{}
	for _, r := range rows {
		out.Fallbacks[r.Backend] += 0
		if r.Fallback {
			out.Fallbacks[r.Backend]++
		}
		out.Geomean[r.Backend] = round(GeoMean(norm, r.Backend), 4)
		size[r.Backend] += r.Size
	}
	out.SizeRatio = round(float64(size["synth"])/float64(size["globalisel"]), 4)
	return out, nil
}

// coverage selects a test case per synthesized rule with both the
// synthesized backend and the handwritten one.
func coverage(s *Setup) (Coverage, error) {
	out := Coverage{Target: s.Name}
	for _, r := range s.SynthLib.Rules {
		f, ok := functionForRule(r)
		if !ok {
			out.Skipped++
			continue
		}
		out.Cases++
		if _, rep := s.Synth.Select(f); rep.Fallback {
			out.SynthFallbacks++
		} else if rep.HookInsts > 0 {
			out.SynthHooks++
		}
		f, _ = functionForRule(r)
		if _, rep := s.Handwritten.Select(f); rep.Fallback {
			out.HandFallbacks++
		} else if rep.HookInsts > 0 {
			out.HandHooks++
		}
	}
	return out, nil
}

// fig10 selects a comparison whose result feeds both a select and a
// zero-extension: greedy matching lets both consumers claim the
// comparison, so it is emitted twice where an optimal cover shares it.
func fig10(s *Setup) (Fig10, error) {
	fb := gmir.NewFunc("fig10")
	x10, x11 := fb.Param(gmir.S64), fb.Param(gmir.S64)
	w1, w2 := fb.Param(gmir.S64), fb.Param(gmir.S64)
	cmp := fb.ICmp(gmir.PredEQ, x10, x11)
	sel := fb.Select(cmp, w1, w2)
	fb.Ret(fb.Add(sel, fb.ZExt(gmir.S64, cmp)))
	f := fb.MustFinish()
	isel.Prepare(f, s.Name)
	mf, rep := s.Synth.Select(f)
	if rep.Fallback {
		return Fig10{}, fmt.Errorf("%s fell back: %s", s.Name, rep.FallbackReason)
	}
	return Fig10{s.Name, strings.Split(strings.TrimRight(mf.String(), "\n"), "\n")}, nil
}

// x86 synthesizes from the simplified x86-32 spec of the CGO'18
// comparator, whose own synthesis needed over 100 hours.
func x86(repeats int) (X86, error) {
	pats := slices.DeleteFunc(SeedPatterns(), func(p *pattern.Pattern) bool { return p.Root.Ty.Bits != 32 })
	r, err := run(repeats, "x86", core.DefaultConfig(), pats)
	return X86{Patterns: len(pats), Run: r}, err
}

// ablation reruns a small riscv synthesis without the index, then also
// without the probe. Without the probe every signature-compatible
// candidate reaches the solver (the paper's run did not terminate in
// five days), so the budget is small; the ordering of the work is the
// result.
func ablation(repeats int) (Ablation, error) {
	out := Ablation{Target: "riscv", Patterns: 12, TestInputs: 48, SMTMaxConflicts: 2000}
	pats := CorpusPatterns(out.Target, out.Patterns)
	for _, leg := range []struct {
		name             string
		noIndex, noProbe bool
	}{{"full pipeline", false, false}, {"no index", true, false}, {"no index, no probe", true, true}} {
		cfg := core.DefaultConfig()
		cfg.TestInputs, cfg.SMTMaxConflicts = out.TestInputs, out.SMTMaxConflicts
		cfg.DisableIndex, cfg.DisableProbe = leg.noIndex, leg.noProbe
		r, err := run(repeats, out.Target, cfg, pats)
		if err != nil {
			return out, err
		}
		out.Rows = append(out.Rows, AblationRow{Config: leg.name, Run: r})
	}
	return out, nil
}

// encoding selects the workload suite with s's handwritten backend,
// assembles it and demands that every instruction decode and re-encode
// to the same bytes. A function whose selection falls back is left out
// of the counts.
func encoding(s *Setup) (Encoding, error) {
	out := Encoding{Target: s.Name}
	c, err := enc.NewCodec(s.ISA)
	if err != nil {
		return out, err
	}
	a := enc.NewAssembler(c)
	for _, w := range bench.Suite(1) {
		f := w.Build()
		isel.Prepare(f, s.Name)
		mf, rep := s.Handwritten.Select(f)
		if rep.Fallback {
			continue
		}
		img, err := a.Assemble(mf)
		if err != nil {
			return out, fmt.Errorf("%s: %s: assemble: %w", s.Name, w.Name, err)
		}
		out.Workloads++
		out.Insts += len(img.Units)
		out.CodeBytes += len(img.Code)
		listing := c.Disassemble(img.Code, img.Base)
		if len(listing) != len(img.Units) {
			return out, fmt.Errorf("%s: %s: %d units decoded as %d lines", s.Name, w.Name, len(img.Units), len(listing))
		}
		for i, ln := range listing {
			u := img.Units[i]
			re, err := ln.Inst.Encode(ln.Ops)
			if err != nil || ln.Inst != u.IC || !bytes.Equal(re, u.Bytes) {
				return out, fmt.Errorf("%s: %s: unit %d (%s) does not round-trip", s.Name, w.Name, i, u.IC.Inst.Name)
			}
			out.RoundTrips++
		}
	}
	return out, nil
}
