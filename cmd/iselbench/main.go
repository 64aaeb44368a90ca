// Command iselbench reproduces the paper's evaluation (§VIII): it
// synthesizes a rule library, compiles the SPEC-CPU-2017-Integer-analog
// workload suite with every backend, simulates the generated code, and
// prints the figures and tables:
//
//	-fig9 / -fig11   normalized runtimes (target-selected via -target)
//	-table3          GlobalISel-fallback accounting
//	-fig6            pattern / sequence length distributions
//	-sizes           binary-size comparison (§VIII-C)
//	-json            machine-readable results (rows + normalized + geomeans)
//	-synthjson       synthesis timing baseline (both selection targets):
//	                 sequential vs parallel full synthesis (proven
//	                 byte-identical), counterexample-screen accounting,
//	                 and the incremental floor; -gate-full-ms N fails the
//	                 run when aarch64 full synthesis exceeds N ms (the CI
//	                 regression gate); see EXPERIMENTS.md for the schema
//	-cost            attach the target cost model: rules are ranked by the
//	                 model and the simulator charges model latencies
//	-trace FILE      record the run's pipeline spans as Chrome trace-event
//	                 JSON (synthesis stages, per-pattern spans, selection)
//	-obsjson         observability-overhead baseline (BENCH_obs.json):
//	                 synthesis with observability off vs on, the
//	                 estimated disabled-path overhead (distributed-
//	                 tracing calls included) guarded under 2%, and a
//	                 two-replica fleet-trace sample: one traced
//	                 cross-node request assembled into a single trace,
//	                 plus the latency-histogram exemplar coverage
//	-encjson         machine-encoding baseline (BENCH_enc.json): per target,
//	                 the workload suite is selected and assembled to bytes,
//	                 every instruction is round-trip-verified (decode +
//	                 re-encode byte identity), and encode/decode throughput
//	                 is measured in MB/s
//
// Usage: iselbench -target aarch64|riscv [-scale N] [-workers N] [-json] [...]
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"sort"
	"strings"
	"time"

	"iselgen/internal/bench"
	"iselgen/internal/cluster"
	"iselgen/internal/core"
	"iselgen/internal/enc"
	"iselgen/internal/fuzz"
	"iselgen/internal/harness"
	"iselgen/internal/incr"
	"iselgen/internal/isel"
	"iselgen/internal/obs"
	"iselgen/internal/service"
	"iselgen/internal/solver"
	"iselgen/internal/targets"

	"path/filepath"
)

func main() {
	target := flag.String("target", "aarch64", "target: aarch64 or riscv")
	scale := flag.Int("scale", 1, "workload scale factor")
	workers := flag.Int("workers", 0, "synthesis matcher threads (0 = default)")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON instead of tables")
	fig6 := flag.Bool("fig6", false, "print length distributions (Fig. 6)")
	table3 := flag.Bool("table3", false, "print fallback table (Table III)")
	sizes := flag.Bool("sizes", false, "print binary sizes (§VIII-C)")
	synthJSON := flag.Bool("synthjson", false, "emit the full-vs-incremental synthesis baseline JSON")
	withCost := flag.Bool("cost", false, "attach the target cost model (rule ranking and simulated latencies)")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON of the run to this file")
	obsJSON := flag.Bool("obsjson", false, "emit the observability-overhead baseline JSON (BENCH_obs.json) and enforce the disabled-overhead guard")
	encJSON := flag.Bool("encjson", false, "emit the machine-encoding baseline JSON (BENCH_enc.json): round-trip counts and encode/decode throughput")
	gateFullMS := flag.Float64("gate-full-ms", 0, "with -synthjson: fail if aarch64 full_synth_ms exceeds this (0 = no gate)")
	gateWarmMS := flag.Float64("gate-warm-ms", 0, "with -synthjson: fail if aarch64 warm_full_synth_ms exceeds this (0 = no gate)")
	journalStats := flag.String("journal-stats", "", "with -synthjson: write the per-target solver journal stats JSON to this file")
	flag.Parse()

	if *synthJSON {
		emitSynthJSON(*workers, *gateFullMS, *gateWarmMS, *journalStats)
		return
	}
	if *obsJSON {
		emitObsJSON(*workers)
		return
	}
	if *encJSON {
		emitEncJSON()
		return
	}

	s := mustSetup(*target)

	cfg := core.DefaultConfig()
	if *workers > 0 {
		cfg.Workers = *workers
	}
	if *withCost {
		model, merr := harness.CostModel(*target)
		if merr != nil {
			fmt.Fprintln(os.Stderr, "iselbench:", merr)
			os.Exit(1)
		}
		cfg.CostModel = model
	}
	var o *obs.Obs
	if *traceOut != "" {
		o = obs.New()
		obs.SetDefault(o) // spec parse/symexec spans
		cfg.Obs = o
		defer writeTrace(o, *traceOut)
	}

	if !*jsonOut {
		fmt.Printf("synthesizing %s rule library...\n", s.Name)
	}
	t0 := time.Now()
	lib := s.Synthesize(cfg, 0)
	synthElapsed := time.Since(t0)
	if o != nil {
		s.AttachObs(o) // selection spans + decision provenance too
	}
	if !*jsonOut {
		fmt.Printf("%d rules\n\n", lib.Len())
	}

	if *fig6 {
		fmt.Println(harness.Fig6(s, lib))
		return
	}

	rows, err := s.RunSuite(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "iselbench:", err)
		os.Exit(1)
	}

	if *jsonOut {
		emitJSON(s, lib.Len(), synthElapsed, *scale, rows)
		return
	}

	if *table3 {
		fmt.Println(harness.TableIII(rows))
		return
	}
	if *sizes {
		fmt.Println(harness.SizeTable(rows))
		return
	}

	figName := "Fig. 9"
	if s.Name == "riscv" {
		figName = "Fig. 11"
	}
	fmt.Printf("%s analog — runtime normalized to the SelectionDAG analog (%s, scale %d)\n\n",
		figName, s.Name, *scale)
	norm := harness.Normalized(rows, "selectiondag")
	var workloads []string
	for w := range norm {
		workloads = append(workloads, w)
	}
	sort.Strings(workloads)
	backends := []string{"selectiondag", "globalisel", "fastisel", "synth"}
	fmt.Printf("%-16s", "")
	for _, bk := range backends {
		if _, ok := norm[workloads[0]][bk]; ok {
			fmt.Printf(" %12s", bk)
		}
	}
	fmt.Println()
	for _, w := range workloads {
		fmt.Printf("%-16s", w)
		for _, bk := range backends {
			if v, ok := norm[w][bk]; ok {
				fmt.Printf(" %12.4f", v)
			}
		}
		fmt.Println()
	}
	fmt.Printf("%-16s", "geomean")
	for _, bk := range backends {
		if g := harness.GeoMean(norm, bk); g > 0 {
			fmt.Printf(" %12.4f", g)
		}
	}
	fmt.Println()
}

// benchReport is the -json output: everything the tables print, in a
// shape a perf-trajectory tracker can diff across commits.
type benchReport struct {
	Target     string                        `json:"target"`
	Scale      int                           `json:"scale"`
	Rules      int                           `json:"rules"`
	SynthMS    float64                       `json:"synth_ms"`
	Stages     core.StageStats               `json:"synth_stages"`
	Rows       []benchRow                    `json:"rows"`
	Normalized map[string]map[string]float64 `json:"normalized"`
	Geomean    map[string]float64            `json:"geomean"`
	// FuzzThroughput is programs/second through the differential-fuzzing
	// pipeline (generate + select + simulate) against the synthesized
	// backend — the sustained rate iselfuzz achieves on this machine.
	FuzzThroughput float64 `json:"fuzz_throughput"`
}

type benchRow struct {
	Workload string  `json:"workload"`
	Backend  string  `json:"backend"`
	Cycles   int64   `json:"cycles"`
	Insts    int64   `json:"insts"`
	Size     int     `json:"size"`
	Fallback bool    `json:"fallback,omitempty"`
	HookPct  float64 `json:"hook_pct,omitempty"`
}

// synthBaseline is one row of the -synthjson output: the same synthesis
// run in parallel (default worker pool) and sequentially (Workers=1),
// proven byte-identical, and then incrementally from its own artifact (a
// no-op delta — the floor of incremental cost, every rule reused, no
// solver). The cex_* fields account for the counterexample screen during
// the parallel run.
type synthBaseline struct {
	Target           string  `json:"target"`
	Rules            int     `json:"rules"`
	Workers          int     `json:"workers"`
	FullSynthMS      float64 `json:"full_synth_ms"`
	SeqFullSynthMS   float64 `json:"seq_full_synth_ms"`
	FingerprintMatch bool    `json:"fingerprint_match"`
	IncrSynthMS      float64 `json:"incr_synth_ms"`
	Speedup          float64 `json:"speedup"`
	Reused           int     `json:"reused"`
	ReusedFraction   float64 `json:"reused_fraction"`
	Resynthesized    int     `json:"resynthesized"`
	IncrSMTQueries   int64   `json:"incr_smt_queries"`
	CexScreens       int64   `json:"cex_screens"`
	CexHits          int64   `json:"cex_cache_hits"`
	CexHitRate       float64 `json:"cex_hit_rate"`
	SMTQueries       int64   `json:"smt_queries"`
	// The warm leg simulates a daemon restart: the in-memory verdict memo
	// is wiped, the journal the parallel run wrote is replayed, and the
	// full synthesis runs again. WarmBitBlasts must be zero — every
	// equivalence verdict answered by the memo, none re-solved.
	WarmFullSynthMS    float64 `json:"warm_full_synth_ms"`
	MemoHits           int64   `json:"memo_hits"`
	WarmBitBlasts      int64   `json:"warm_bit_blasts"`
	MemoJournalEntries int64   `json:"memo_journal_entries"`
}

// ruleFingerprints extracts the sorted rule-line fingerprint set from a
// saved artifact (the #% header carries builder-dependent provenance the
// comparison must ignore; rule lines are content-only by construction).
func ruleFingerprints(artifact string) []string {
	var out []string
	for _, ln := range strings.Split(artifact, "\n") {
		if ln == "" || strings.HasPrefix(ln, "#") {
			continue
		}
		out = append(out, ln)
	}
	sort.Strings(out)
	return out
}

// mustSetup loads a builtin selection target and its baselines, or
// exits.
func mustSetup(name string) *harness.Setup {
	s, err := harness.New(name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "iselbench:", err)
		os.Exit(1)
	}
	return s
}

// emitSynthJSON measures, for both selection targets: a sequential
// (Workers=1) full synthesis, a parallel full synthesis with the default
// worker pool — each from a cold counterexample cache and a cold verdict
// memo — an incremental self-resynthesis from the parallel run's
// artifact on a fresh builder, and a warm full synthesis that simulates
// a daemon restart (in-memory memo wiped, the journal the parallel run
// wrote replayed from disk). The parallel library must be byte-identical
// to the sequential one, and the warm one to both; the warm run must do
// zero bit-blasts — for unchanged instructions every verdict comes from
// the replayed memo. Any divergence exits nonzero, as does an aarch64
// full synthesis slower than gateFullMS or a warm synthesis slower than
// gateWarmMS (0 = no gate). The output is the BENCH_synth.json baseline;
// journalStatsPath, when set, additionally receives the per-target
// solver-journal accounting (the CI artifact).
func emitSynthJSON(workers int, gateFullMS, gateWarmMS float64, journalStatsPath string) {
	jdir, err := os.MkdirTemp("", "iselbench-solver-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, "iselbench:", err)
		os.Exit(1)
	}
	defer os.RemoveAll(jdir)
	var out []synthBaseline
	journals := map[string]solver.JournalStats{}
	for _, name := range targets.Names(true) {
		jpath := filepath.Join(jdir, name+".journal")

		// Sequential reference run: cold counterexample cache, cold
		// verdict memo, no journal — the schedule-independence baseline.
		seqCfg := core.DefaultConfig()
		seqCfg.Workers = 1
		sSeq := mustSetup(name)
		solver.Shared.DetachJournal()
		solver.Shared.Reset()
		tSeq := time.Now()
		seqLib := sSeq.Synthesize(seqCfg, 0)
		seqMS := float64(time.Since(tSeq).Nanoseconds()) / 1e6
		seqArt := isel.SaveLibraryFor(seqLib, sSeq.ISA)

		// Parallel run, also from a cold cache and cold memo (hits below
		// are earned within the run, not inherited from the sequential
		// pass) — but journaling its verdicts, so the warm leg below can
		// replay them the way a restarted daemon would.
		cfg := core.DefaultConfig()
		cfg.Workers = core.ResolveWorkers(workers)
		s := mustSetup(name)
		solver.Shared.Reset()
		if err := solver.Shared.AttachJournal(jpath); err != nil {
			fmt.Fprintln(os.Stderr, "iselbench:", err)
			os.Exit(1)
		}
		t0 := time.Now()
		lib := s.Synthesize(cfg, 0)
		fullMS := float64(time.Since(t0).Nanoseconds()) / 1e6
		parArt := isel.SaveLibraryFor(lib, s.ISA)
		st := s.Synther.Stats

		seqFPs, parFPs := ruleFingerprints(seqArt), ruleFingerprints(parArt)
		fpMatch := slices.Equal(seqFPs, parFPs) && seqArt == parArt
		if !fpMatch {
			fmt.Fprintf(os.Stderr,
				"iselbench: %s: parallel library (%d rules) differs from sequential (%d rules) — synthesis must be schedule-independent\n",
				name, lib.Len(), seqLib.Len())
			os.Exit(1)
		}

		art, err := incr.ParseArtifact(parArt)
		if err != nil {
			fmt.Fprintln(os.Stderr, "iselbench:", err)
			os.Exit(1)
		}
		s2 := mustSetup(name)
		icfg := cfg
		icfg.ExtraSequences = harness.ExtraSequences(name)
		t1 := time.Now()
		lib2, rep, err := incr.Resynthesize(s2.B, s2.ISA, art,
			incr.Options{Config: icfg, Patterns: harness.CorpusPatterns(name, 0)})
		if err != nil {
			fmt.Fprintln(os.Stderr, "iselbench:", err)
			os.Exit(1)
		}
		incrMS := float64(time.Since(t1).Nanoseconds()) / 1e6
		if lib2.Len() != lib.Len() {
			fmt.Fprintf(os.Stderr, "iselbench: incremental library has %d rules, full has %d\n",
				lib2.Len(), lib.Len())
			os.Exit(1)
		}
		// Warm leg: simulate a daemon restart. Forget every in-memory
		// verdict, replay the journal the parallel run just wrote, and
		// run the full synthesis again on a fresh builder. Unchanged
		// instructions must be answered entirely from the memo: zero
		// bit-blasts, and the artifact byte-identical to the cold runs.
		solver.Shared.Reset()
		if err := solver.Shared.AttachJournal(jpath); err != nil {
			fmt.Fprintln(os.Stderr, "iselbench:", err)
			os.Exit(1)
		}
		s3 := mustSetup(name)
		t2 := time.Now()
		warmLib := s3.Synthesize(cfg, 0)
		warmMS := float64(time.Since(t2).Nanoseconds()) / 1e6
		wst := s3.Synther.Stats
		if warmArt := isel.SaveLibraryFor(warmLib, s3.ISA); warmArt != parArt {
			fmt.Fprintf(os.Stderr,
				"iselbench: %s: warm library (%d rules) differs from cold (%d rules) — memoization must be verdict-preserving\n",
				name, warmLib.Len(), lib.Len())
			os.Exit(1)
		}
		if wst.BitBlasts != 0 {
			fmt.Fprintf(os.Stderr,
				"iselbench: %s: warm synthesis bit-blasted %d queries; every verdict for an unchanged spec must come from the memo\n",
				name, wst.BitBlasts)
			os.Exit(1)
		}
		if wst.SMTQueries > 0 && wst.MemoHits == 0 {
			fmt.Fprintf(os.Stderr, "iselbench: %s: warm synthesis made %d SMT queries but hit the memo zero times\n",
				name, wst.SMTQueries)
			os.Exit(1)
		}
		js := solver.Shared.Journal()
		journals[name] = js
		solver.Shared.DetachJournal()

		hitRate := 0.0
		if st.CexScreens > 0 {
			hitRate = float64(st.CexHits) / float64(st.CexScreens)
		}
		out = append(out, synthBaseline{
			Target:           name,
			Rules:            lib.Len(),
			Workers:          cfg.Workers,
			FullSynthMS:      fullMS,
			SeqFullSynthMS:   seqMS,
			FingerprintMatch: fpMatch,
			IncrSynthMS:      incrMS,
			Speedup:          fullMS / incrMS,
			Reused:           rep.Reused,
			ReusedFraction:   rep.ReusedFraction(),
			Resynthesized:    rep.Resynthesized,
			IncrSMTQueries:   rep.SMTQueries,
			CexScreens:       st.CexScreens,
			CexHits:          st.CexHits,
			CexHitRate:       hitRate,
			SMTQueries:       st.SMTQueries,

			WarmFullSynthMS:    warmMS,
			MemoHits:           wst.MemoHits,
			WarmBitBlasts:      wst.BitBlasts,
			MemoJournalEntries: js.Entries,
		})
		if name == "aarch64" && gateFullMS > 0 && fullMS > gateFullMS {
			fmt.Fprintf(os.Stderr,
				"iselbench: aarch64 full synthesis took %.0fms, over the %.0fms gate — the speedup regressed\n",
				fullMS, gateFullMS)
			os.Exit(1)
		}
		if name == "aarch64" && gateWarmMS > 0 && warmMS > gateWarmMS {
			fmt.Fprintf(os.Stderr,
				"iselbench: aarch64 warm synthesis took %.0fms, over the %.0fms gate — the verdict memo regressed\n",
				warmMS, gateWarmMS)
			os.Exit(1)
		}
	}
	if journalStatsPath != "" {
		data, err := json.MarshalIndent(journals, "", "  ")
		if err == nil {
			err = os.WriteFile(journalStatsPath, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "iselbench:", err)
			os.Exit(1)
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "iselbench:", err)
		os.Exit(1)
	}
}

// obsGuardPct is the ceiling the disabled-instrumentation overhead
// estimate must stay under (the ISSUE's acceptance criterion): when the
// estimate reaches this, -obsjson exits nonzero, which is the CI guard.
const obsGuardPct = 2.0

// obsBench is the -obsjson output (BENCH_obs.json): per-target
// overhead baselines plus one fleet-level distributed-tracing health
// sample (schema in EXPERIMENTS.md).
type obsBench struct {
	Targets []obsReport `json:"targets"`
	Fleet   obsFleet    `json:"fleet"`
}

// obsFleet records one traced cross-replica request on a miniature
// in-process cluster: the assembled fleet trace's span and replica
// counts, and the latency-histogram exemplar coverage on the replica
// that served it.
type obsFleet struct {
	Replicas         int     `json:"replicas"`
	TraceFleetSpans  int     `json:"trace_fleet_spans"`
	TraceFleetNodes  int     `json:"trace_fleet_nodes"`
	ExemplarCoverage float64 `json:"exemplar_coverage"`
}

// obsReport is one target of the -obsjson output (BENCH_obs.json): the
// same synthesis run without and with observability attached, the event
// volume the instrumented run produced, and the measured cost of one
// disabled (nil-receiver) instrumentation operation — from which the
// disabled-path overhead is estimated as nil_op_ns × 3 ops/event ×
// events / baseline wall time.
type obsReport struct {
	Target          string  `json:"target"`
	Rules           int     `json:"rules"`
	BaselineSynthMS float64 `json:"baseline_synth_ms"`
	TracedSynthMS   float64 `json:"traced_synth_ms"`
	TracedOverPct   float64 `json:"traced_overhead_pct"`
	Spans           int     `json:"spans_recorded"`
	SpanStarts      uint64  `json:"span_starts"`
	SMTProvEvents   int64   `json:"smt_prov_events"`
	NilOpNS         float64 `json:"nil_op_ns"`
	DisabledOverPct float64 `json:"disabled_overhead_pct"`
	GuardPct        float64 `json:"guard_pct"`
}

// nilOpNS measures one fully disabled instrumentation site, the
// distributed-tracing calls included: a span start on a nil tracer, an
// attribute set, an end, a remote span start from a trace context, its
// end, and a bucket-exemplar observation on a nil histogram — the
// exact calls the pipeline and the cluster hops make when no Obs is
// attached.
func nilOpNS() float64 {
	var tr *obs.Tracer
	var h *obs.Histogram
	var sink *obs.Span
	const n = 1 << 21
	t0 := time.Now()
	for i := 0; i < n; i++ {
		sp := tr.Start("bench")
		sp.SetInt("k", int64(i))
		sp.End()
		rsp := tr.StartRemote("bench", obs.TraceContext{})
		rsp.End()
		h.ObserveExemplar(int64(i), "")
		sink = rsp
	}
	_ = sink
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// emitObsJSON measures, for both selection targets, the synthesis
// pipeline with observability off (the baseline every other benchmark
// runs) and on (full tracer + metrics + provenance), estimates the
// disabled-path overhead from the nil-op microbenchmark scaled by the
// observed event volume, and fails the run when that estimate breaks
// the guard. The output is the BENCH_obs.json baseline.
func emitObsJSON(workers int) {
	nilNS := nilOpNS()
	var out []obsReport
	for _, name := range targets.Names(true) {
		cfg := core.DefaultConfig()
		if workers > 0 {
			cfg.Workers = workers
		}
		s1 := mustSetup(name)
		t0 := time.Now()
		lib := s1.Synthesize(cfg, 0)
		baseNS := time.Since(t0).Nanoseconds()

		o := obs.New()
		tcfg := cfg
		tcfg.Obs = o
		s2 := mustSetup(name)
		t1 := time.Now()
		lib2 := s2.Synthesize(tcfg, 0)
		tracedNS := time.Since(t1).Nanoseconds()
		if lib2.Len() != lib.Len() {
			fmt.Fprintf(os.Stderr, "iselbench: traced synthesis found %d rules, baseline %d — observability must not change results\n",
				lib2.Len(), lib.Len())
			os.Exit(1)
		}
		smtEvents, _ := o.Prov.Totals()
		// Each instrumentation site costs at most one nilOpNS iteration
		// when disabled (a local span trio plus the remote-start and
		// exemplar calls a cluster hop adds); the ×3 keeps the estimate
		// deliberately conservative. The span-start count is the number
		// of sites the traced run actually passed through.
		events := float64(o.Trace.Started()) + float64(smtEvents)
		disabledPct := 100 * events * 3 * nilNS / float64(baseNS)
		rep := obsReport{
			Target:          name,
			Rules:           lib.Len(),
			BaselineSynthMS: float64(baseNS) / 1e6,
			TracedSynthMS:   float64(tracedNS) / 1e6,
			TracedOverPct:   100 * (float64(tracedNS) - float64(baseNS)) / float64(baseNS),
			Spans:           len(o.Trace.Snapshot()),
			SpanStarts:      o.Trace.Started(),
			SMTProvEvents:   smtEvents,
			NilOpNS:         nilNS,
			DisabledOverPct: disabledPct,
			GuardPct:        obsGuardPct,
		}
		if disabledPct >= obsGuardPct {
			fmt.Fprintf(os.Stderr,
				"iselbench: %s: estimated disabled-instrumentation overhead %.3f%% breaks the %.1f%% guard\n",
				name, disabledPct, obsGuardPct)
			os.Exit(1)
		}
		out = append(out, rep)
	}
	fleet, err := measureFleetTrace()
	if err != nil {
		fmt.Fprintln(os.Stderr, "iselbench: fleet trace:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(obsBench{Targets: out, Fleet: fleet}); err != nil {
		fmt.Fprintln(os.Stderr, "iselbench:", err)
		os.Exit(1)
	}
}

// obsFleetSpec is a miniature single-width ISA: big enough for a real
// synthesis, small enough that the fleet sample stays in milliseconds.
const obsFleetSpec = `
inst ADDrr(rn: reg64, rm: reg64) { rd = rn + rm; }
inst SUBrr(rn: reg64, rm: reg64) { rd = rn - rm; }
inst ANDrr(rn: reg64, rm: reg64) { rd = rn & rm; }
inst ORRrr(rn: reg64, rm: reg64) { rd = rn | rm; }
inst EORrr(rn: reg64, rm: reg64) { rd = rn ^ rm; }
inst MVNr(rm: reg64) { rd = ~rm; }
inst MOVZ(imm: imm16) { rd = zext(imm, 64); }
`

// measureFleetTrace boots a two-replica in-process cluster, sends one
// traced synthesis to the replica that does NOT own the fingerprint
// (so the fill crosses the wire), and reports the assembled fleet
// trace plus the caller's exemplar coverage — the BENCH_obs.json
// evidence that distributed tracing works end to end.
func measureFleetTrace() (obsFleet, error) {
	const replicas = 2
	mk := func(i int) (*service.Server, *obs.Obs, error) {
		o := obs.New()
		sv, err := service.New(service.Config{
			Workers:    2,
			QueueDepth: 8,
			Synth:      core.Config{TestInputs: 16, Workers: 2, SMTMaxConflicts: 64},
			Obs:        o,
		})
		return sv, o, err
	}
	lc, err := cluster.StartLocal(replicas, mk, cluster.Config{HedgeDelay: time.Millisecond})
	if err != nil {
		return obsFleet{}, err
	}
	defer lc.Close()

	fp, err := lc.Replica(0).SV.FingerprintRequest("mini", obsFleetSpec, "")
	if err != nil {
		return obsFleet{}, err
	}
	caller := lc.Replica(0).URL
	if lc.Replica(0).Node.OwnerOf(fp) == caller {
		caller = lc.Replica(1).URL
	}
	tc := obs.TraceContext{TraceID: obs.NewTraceID(), SpanID: 0x0b5f1ee7, Sampled: true}
	body, _ := json.Marshal(service.SynthesizeRequest{Target: "mini", Spec: obsFleetSpec})
	req, _ := http.NewRequest(http.MethodPost, caller+"/v1/synthesize", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.TraceHeader, tc.Header())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return obsFleet{}, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return obsFleet{}, fmt.Errorf("synthesize: HTTP %d", resp.StatusCode)
	}

	// Spans commit when they end, which trails the response; poll until
	// the trace validates with spans from both replicas.
	fl := obsFleet{Replicas: replicas}
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		r2, err := http.Get(caller + "/v1/trace/" + tc.TraceID.String() + "?format=spans")
		if err != nil {
			return obsFleet{}, err
		}
		var sr service.TraceSpansResponse
		ok := r2.StatusCode == http.StatusOK && json.NewDecoder(r2.Body).Decode(&sr) == nil
		io.Copy(io.Discard, r2.Body)
		r2.Body.Close()
		if ok && obs.ValidateTraceSpans(sr.Spans) == nil {
			nodes := map[string]bool{}
			for _, s := range sr.Spans {
				nodes[s.Node] = true
			}
			if len(nodes) >= replicas {
				fl.TraceFleetSpans = len(sr.Spans)
				fl.TraceFleetNodes = len(nodes)
				break
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	if fl.TraceFleetNodes < replicas {
		return obsFleet{}, fmt.Errorf("trace %s never spanned %d replicas", tc.TraceID, replicas)
	}

	r3, err := http.Get(caller + "/metrics?exemplars=1")
	if err != nil {
		return obsFleet{}, err
	}
	text, _ := io.ReadAll(r3.Body)
	r3.Body.Close()
	fams, err := obs.ParseProm(string(text))
	if err != nil {
		return obsFleet{}, fmt.Errorf("parse prom: %w", err)
	}
	withEx, populated := obs.ExemplarCoverage(fams["http_request_duration_ns"])
	if populated > 0 {
		fl.ExemplarCoverage = float64(withEx) / float64(populated)
	}
	return fl, nil
}

// encReport is one target of the -encjson output (BENCH_enc.json): the
// workload suite assembled to machine bytes, with every instruction
// round-trip-verified, and the raw encoder/decoder throughput.
type encReport struct {
	Target     string  `json:"target"`
	Workloads  int     `json:"workloads"`
	Insts      int     `json:"insts"`
	CodeBytes  int     `json:"code_bytes"`
	RoundTrips int     `json:"round_trips"`
	EncodeMBps float64 `json:"encode_mbps"`
	DecodeMBps float64 `json:"decode_mbps"`
}

// emitEncJSON selects and assembles the full workload suite for both
// selection targets, demands a byte-identical decode/re-encode round
// trip for every emitted instruction (any divergence exits nonzero),
// and then measures raw encode and decode throughput over the
// assembled images. The output is the BENCH_enc.json baseline.
func emitEncJSON() {
	var out []encReport
	for _, name := range targets.Names(true) {
		s := mustSetup(name)
		c, err := enc.NewCodec(s.ISA)
		if err != nil {
			fmt.Fprintln(os.Stderr, "iselbench:", err)
			os.Exit(1)
		}
		a := enc.NewAssembler(c)
		rep := encReport{Target: name}
		var imgs []*enc.Image
		for _, w := range bench.Suite(1) {
			f := w.Build()
			isel.Prepare(f, s.Name)
			mf, r := s.Handwritten.Select(f)
			if r.Fallback {
				fmt.Fprintf(os.Stderr, "iselbench: %s: %s: selection fell back (%s), excluded from the encoding baseline\n",
					name, w.Name, r.FallbackReason)
				continue
			}
			img, aerr := a.Assemble(mf)
			if aerr != nil {
				fmt.Fprintf(os.Stderr, "iselbench: %s: %s: assemble: %v\n", name, w.Name, aerr)
				os.Exit(1)
			}
			imgs = append(imgs, img)
			rep.Workloads++
			rep.Insts += len(img.Units)
			rep.CodeBytes += len(img.Code)
		}

		// Round-trip verification: decode each image and demand byte
		// identity against what was assembled, instruction by instruction.
		for _, img := range imgs {
			listing := c.Disassemble(img.Code, img.Base)
			if len(listing) != len(img.Units) {
				fmt.Fprintf(os.Stderr, "iselbench: %s: %d units decoded as %d lines\n", name, len(img.Units), len(listing))
				os.Exit(1)
			}
			for i, ln := range listing {
				u := img.Units[i]
				re, rerr := ln.Inst.Encode(ln.Ops)
				if rerr != nil || ln.Inst != u.IC || !bytes.Equal(re, u.Bytes) {
					fmt.Fprintf(os.Stderr, "iselbench: %s: unit %d (%s) does not round-trip\n", name, i, u.IC.Inst.Name)
					os.Exit(1)
				}
				rep.RoundTrips++
			}
		}

		// Encoder throughput: re-encode every assembled unit from its
		// operands, repeatedly, for a fixed wall-time budget.
		const budget = 300 * time.Millisecond
		encoded := 0
		t0 := time.Now()
		for time.Since(t0) < budget {
			for _, img := range imgs {
				for i := range img.Units {
					b, eerr := img.Units[i].IC.Encode(img.Units[i].Ops)
					if eerr != nil {
						fmt.Fprintln(os.Stderr, "iselbench:", eerr)
						os.Exit(1)
					}
					encoded += len(b)
				}
			}
		}
		rep.EncodeMBps = float64(encoded) / 1e6 / time.Since(t0).Seconds()

		// Decoder throughput: walk the images through the decode trie
		// (field extraction included, text formatting not).
		decoded := 0
		t1 := time.Now()
		for time.Since(t1) < budget {
			for _, img := range imgs {
				for off := 0; off < len(img.Code); {
					_, _, size, derr := c.DecodeAt(img.Code, off)
					if derr != nil {
						fmt.Fprintln(os.Stderr, "iselbench:", derr)
						os.Exit(1)
					}
					off += size
				}
				decoded += len(img.Code)
			}
		}
		rep.DecodeMBps = float64(decoded) / 1e6 / time.Since(t1).Seconds()
		out = append(out, rep)
	}
	je := json.NewEncoder(os.Stdout)
	je.SetIndent("", "  ")
	if err := je.Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "iselbench:", err)
		os.Exit(1)
	}
}

// writeTrace dumps the recorded spans as Chrome trace-event JSON.
func writeTrace(o *obs.Obs, path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "iselbench:", err)
		os.Exit(1)
	}
	defer f.Close()
	if err := o.Trace.WriteTraceJSON(f); err != nil {
		fmt.Fprintln(os.Stderr, "iselbench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "iselbench: wrote trace (%d spans) to %s\n",
		len(o.Trace.Snapshot()), path)
}

func emitJSON(s *harness.Setup, rules int, synthElapsed time.Duration, scale int, rows []harness.Row) {
	rep := benchReport{
		Target:  s.Name,
		Scale:   scale,
		Rules:   rules,
		SynthMS: float64(synthElapsed.Nanoseconds()) / 1e6,
		Geomean: map[string]float64{},
	}
	if s.Synther != nil {
		rep.Stages = s.Synther.Stats.Snapshot()
	}
	for _, r := range rows {
		rep.Rows = append(rep.Rows, benchRow{
			Workload: r.Workload, Backend: r.Backend,
			Cycles: r.Cycles, Insts: r.Insts, Size: r.Size,
			Fallback: r.Fallback, HookPct: r.HookPct,
		})
	}
	rep.FuzzThroughput = fuzz.Throughput(fuzz.SetupPipeline(s, true), 1, 300)
	rep.Normalized = harness.Normalized(rows, "selectiondag")
	seen := map[string]bool{}
	for _, r := range rows {
		if !seen[r.Backend] {
			seen[r.Backend] = true
			if g := harness.GeoMean(rep.Normalized, r.Backend); g > 0 {
				rep.Geomean[r.Backend] = g
			}
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "iselbench:", err)
		os.Exit(1)
	}
}
