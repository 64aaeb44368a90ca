package main

// metric describes one reported number. BENCHMARK.json at the repository
// root mirrors endToEnd and perLayer (a test keeps the two in step); the
// extras are workload-specific, so they cannot appear there, and only
// -compare applies their bounds.
type metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which the metric may
	// worsen before a change counts as a regression (end-to-end metrics
	// and extras only).
	Bound float64
	// Moves names the end-to-end metrics a per-layer metric should move
	// when its layer gets faster or does less work, written down before
	// any change is measured.
	Moves string
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the metrics every workload reports: what a back-end
// developer waiting for a library and a compiler waiting for selected
// code see. A timing is a median unless its name says otherwise.
var endToEnd = []metric{
	// Daemon process start until its warm-up synthesis answers; median
	// over the run's cold boots. The widest bound: set-up is a handful of
	// samples per run, and work moved into set-up must still show.
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
	// POST /v1/synthesize on a daemon with an empty verdict memo.
	{Name: "synth_cold_ms", Unit: "ms", Better: lower, Bound: 0.25},
	// The same request after a restart that replayed the verdict journal
	// (0 bit-blasts), with no cached library to answer from.
	{Name: "synth_warm_ms", Unit: "ms", Better: lower, Bound: 0.25},
	// Open-loop POST /v1/select, timed from each request's due time.
	{Name: "latency_p50_ms", Unit: "ms", Better: lower, Bound: 0.25},
	// Closed-loop capacity over the run's connections; median of the legs.
	{Name: "throughput_rps", Unit: "1/s", Better: higher, Bound: 0.25},
	// Highest VmHWM of any daemon process the run started.
	{Name: "peak_rss_mb", Unit: "MB", Better: lower, Bound: 0.25},
	// The SPEC-analog suite selected through /v1/select and simulated:
	// the paper's Fig. 9/11 quantities. Exact counts.
	{Name: "suite_cycles", Unit: "cycles", Better: lower, Bound: 0.01},
	{Name: "code_bytes", Unit: "bytes", Better: lower, Bound: 0.01},
}

// extras are end-to-end metrics that only some workloads can measure,
// that are 0 on a healthy run, or whose run-to-run spread on a 2-core
// machine exceeds any bound BENCHMARK.json may set (the read p99: it
// rests on the slowest 1% of requests, which the machine's noise and,
// on serve-rv-edit, the edits' bursts decide).
var extras = []metric{
	{Name: "latency_p99_ms", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "edit_ms", Unit: "ms", Better: lower, Bound: 0.25}, // serve-rv-edit only
	{Name: "error_ratio", Unit: "ratio", Better: lower, Bound: 0},
	{Name: "fallback_ratio", Unit: "ratio", Better: lower, Bound: 0},
}

const (
	movesSynth = "synth_cold_ms synth_warm_ms setup_s"
	movesCold  = "synth_cold_ms setup_s"
	movesServe = "latency_p50_ms throughput_rps"
)

// perLayer come from the traced run. Synthesis layers time one cold and
// one warm in-process synthesis of the workload's target; serving layers
// are means per request over in-process replays of the workload's reads.
var perLayer = []metric{
	// Spans around the public calls a daemon's synthesis job makes.
	{Name: "spec.load_ms", Unit: "ms", Better: lower, Moves: movesSynth},
	{Name: "harness.corpus_ms", Unit: "ms", Better: lower, Moves: movesSynth},
	{Name: "core.pool_ms", Unit: "ms", Better: lower, Moves: movesSynth},
	{Name: "core.match_ms", Unit: "ms", Better: lower, Moves: movesSynth},
	{Name: "isel.save_ms", Unit: "ms", Better: lower, Moves: movesSynth},
	// The synthesizer's own Table II stage counters (cold run).
	{Name: "core.enumerate_ms", Unit: "ms", Better: lower, Moves: movesSynth},
	{Name: "canon.canonicalize_ms", Unit: "ms", Better: lower, Moves: movesSynth},
	{Name: "core.test_eval_ms", Unit: "ms", Better: lower, Moves: movesSynth},
	{Name: "trie.insert_ms", Unit: "ms", Better: lower, Moves: movesSynth},
	{Name: "trie.lookup_cpu_ms", Unit: "ms", Better: lower, Moves: movesSynth},
	{Name: "core.probe_cpu_ms", Unit: "ms", Better: lower, Moves: movesSynth},
	{Name: "smt.cpu_ms", Unit: "ms", Better: lower, Moves: movesCold},
	{Name: "smt.bit_blasts", Unit: "count", Better: lower, Moves: movesCold},
	{Name: "sat.conflicts", Unit: "count", Better: lower, Moves: movesCold},
	{Name: "smt.cex_hits", Unit: "count", Better: higher, Moves: movesCold},
	// Warm run: verdicts answered from the memo instead of the solver.
	{Name: "solver.memo_hits", Unit: "count", Better: higher, Moves: "synth_warm_ms"},
	// Go runtime during the cold in-process synthesis.
	{Name: "gc.alloc_mb", Unit: "MB", Better: lower, Moves: movesSynth + " peak_rss_mb"},
	{Name: "gc.cycles", Unit: "count", Better: lower, Moves: movesSynth + " peak_rss_mb"},
	{Name: "gc.pause_ms", Unit: "ms", Better: lower, Moves: movesSynth + " peak_rss_mb"},
	// One /v1/select request, layer by layer.
	{Name: "http.decode_us", Unit: "us", Better: lower, Moves: movesServe},
	{Name: "service.fingerprint_us", Unit: "us", Better: lower, Moves: movesServe},
	{Name: "isel.backend_us", Unit: "us", Better: lower, Moves: movesServe},
	{Name: "fuzz.parse_us", Unit: "us", Better: lower, Moves: movesServe},
	{Name: "gmir.legalize_us", Unit: "us", Better: lower, Moves: movesServe},
	{Name: "isel.prepare_us", Unit: "us", Better: lower, Moves: movesServe},
	{Name: "isel.select_us", Unit: "us", Better: lower, Moves: movesServe},
	{Name: "sim.run_us", Unit: "us", Better: lower, Moves: movesServe},
	{Name: "cost.static_us", Unit: "us", Better: lower, Moves: movesServe},
	// Building the answer (it carries the cost table's version hash) and
	// encoding it as the daemon does.
	{Name: "http.encode_us", Unit: "us", Better: lower, Moves: movesServe},
	// GET /healthz on the same connection: transport plus the daemon's
	// request middleware, with no handler work.
	{Name: "http.roundtrip_us", Unit: "us", Better: lower, Moves: movesServe},
	// Traced HTTP latency minus the layers above and the round trip:
	// cache lookup, scheduling between client and daemon processes, and
	// anything else the replay does not model.
	{Name: "http.other_us", Unit: "us", Better: lower, Moves: movesServe},
	// Selected instructions a hook emitted rather than a rule, and
	// programs that fell back: work the matcher did without a result.
	{Name: "isel.hook_share", Unit: "ratio", Better: lower, Moves: movesServe},
	{Name: "isel.fallback_share", Unit: "ratio", Better: lower, Moves: movesServe},
	// The serving daemon's heap during the open-loop phase.
	{Name: "gc.alloc_kb_per_req", Unit: "KB", Better: lower, Moves: "latency_p99_ms"},
	{Name: "gc.cycles_per_1k_req", Unit: "count", Better: lower, Moves: "latency_p99_ms"},
	// Validity of the open loop itself, not a property of the system.
	{Name: "loadgen.late_ms_p99", Unit: "ms", Better: lower, Moves: "none"},
	// Sampled from /v1/metrics: synthesis jobs waiting or running, and
	// libraries held in memory at the end of the run.
	{Name: "service.queue_depth_max", Unit: "count", Better: lower, Moves: "edit_ms synth_cold_ms"},
	{Name: "service.cached_entries", Unit: "count", Better: lower, Moves: "peak_rss_mb"},
}

// extraLayers are per-layer metrics of the edit path (serve-rv-edit only).
var extraLayers = []metric{
	{Name: "spec.check_ms", Unit: "ms", Better: lower, Moves: "edit_ms latency_p99_ms"},
	{Name: "incr.resynth_ms", Unit: "ms", Better: lower, Moves: "edit_ms latency_p99_ms"},
}

// lookupMetric finds a metric definition by name in any table.
func lookupMetric(name string) (metric, bool) {
	for _, tab := range [][]metric{endToEnd, extras, perLayer, extraLayers} {
		for _, m := range tab {
			if m.Name == name {
				return m, true
			}
		}
	}
	return metric{}, false
}
