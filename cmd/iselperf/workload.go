package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"iselgen/internal/isa/riscv"
	"iselgen/internal/obs"
)

// workload is one traffic mix against one daemon. Every workload
// measures every end-to-end metric (set-up, cold and warm synthesis,
// reads, capacity, the suite); they differ in the target, the read rate,
// and whether edits run beside the reads.
//
// Read rates sit near a third of the capacity the capacity legs measure
// on a 2-core machine, where latency follows the machine's speed rather
// than amplifying it through queueing.
type workload struct {
	name   string
	why    string
	target string  // builtin target the daemon serves
	rate   float64 // open-loop reads per second
	// boots is how many cold boots and warm restarts each round makes:
	// more of the short riscv syntheses, whose times the machine's noise
	// scatters most, for about the same time per round.
	boots int
	// editRate is the open-loop rate of inline-spec edits sent to the
	// serving daemon beside the reads, on a connection of their own
	// (0 = no edits).
	editRate float64
	// limit is the latency_p99_ms this mix should meet; a run over it is
	// flagged, not failed.
	limit time.Duration
}

var workloads = []workload{
	{
		name:   "serve-rv",
		why:    "riscv reads at 600/s: every program selects, so latency is HTTP, parse, legalize, select and simulate; the small riscv spec keeps fingerprinting cheap",
		target: "riscv", rate: 600, boots: 3,
		limit: 25 * time.Millisecond,
	},
	{
		name:   "serve-a64",
		why:    "aarch64 reads at 65/s: about a third of programs fall back, wasting matcher work, and fingerprinting each request re-derives the large aarch64 spec",
		target: "aarch64", rate: 65, boots: 1,
		limit: 150 * time.Millisecond,
	},
	{
		name:   "serve-rv-edit",
		why:    "riscv reads at 300/s beside one inline-spec edit per second: the only mix that runs incremental resynthesis and grows the library cache",
		target: "riscv", rate: 300, boots: 3, editRate: 1,
		limit: 150 * time.Millisecond,
	},
}

// readConns is how many of the generator's connections carry reads; an
// edit stream takes one of them.
func (w workload) readConns() int {
	if w.editRate > 0 {
		return maxConns - 1
	}
	return maxConns
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// plan sizes one run. A run is rounds rounds; each boots cold daemons
// (round 0's first becomes the serving daemon), restarts warm ones,
// sends one slice of the open loop and runs one capacity leg. Every
// metric's samples so spread over the whole run, and a burst of machine
// noise lands on one sample of each instead of on all of one.
type plan struct {
	rounds int
	slice  time.Duration // open-loop reads per round
	leg    time.Duration // closed-loop capacity leg per round
	suite  []string      // suite functions to select (nil = all nine)
	pool   int           // distinct generated programs, sent round-robin
	replay int           // reads the traced run replays layer by layer
}

// planFor splits a run of the given length into five rounds, each 80%
// open loop and 20% capacity leg. Boots, restarts, the suite and the
// traced replays come on top and are not part of the measured time.
func planFor(seconds int) plan {
	const rounds = 5
	s := time.Duration(seconds) * time.Second
	return plan{rounds: rounds, slice: s * 4 / 5 / rounds, leg: s / 5 / rounds, pool: 2048, replay: 200}
}

// reads is how many open-loop reads the plan sends at rate.
func (p plan) reads(rate float64) int { return p.rounds * scheduled(rate, p.slice) }

// checkEvery is the stride of read answers verified against the
// interpreter after the run.
const checkEvery = 16

// An edit rewrites riscv's SUB to rs1 - rs2 - k for an edit-specific k,
// so every edit is a new fingerprint with a few rules to resynthesize.
const (
	editAnchor  = "{ rd = rs1 - rs2; }"
	editPattern = "{ rd = rs1 - rs2 - %d:64; }"
	editTarget  = "rvedit"
)

// editSpec is the inline spec of edit j under a seed.
func editSpec(seed uint64, j int) string {
	k := (seed%1_000_000)*1000 + uint64(j) + 1
	return strings.Replace(riscv.Spec(), editAnchor, fmt.Sprintf(editPattern, k), 1)
}

// value is one measured number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"` // samples it was computed from
}

// record is everything one run measured and checked.
type record struct {
	Workload  string           `json:"workload"`
	Seed      uint64           `json:"seed"`
	Seconds   int              `json:"seconds"`
	Trace     bool             `json:"trace"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Problems  []string         `json:"problems,omitempty"`
	Metrics   map[string]value `json:"metrics"`
	Extra     map[string]value `json:"extra,omitempty"`
	Layers    map[string]value `json:"layers,omitempty"`
}

// env is what a run needs from its surroundings.
type env struct {
	iseld    string    // daemon binary
	workdir  string    // directory each run makes its scratch directory in
	log      io.Writer // progress and tables for a human
	traceOut string    // Chrome trace file for a traced run ("" = none)
}

// runner carries one run's state.
type runner struct {
	env
	w    workload
	p    plan
	seed uint64
	tr   *obs.Tracer // nil unless tracing; nil spans no-op
	c    *http.Client
	repC *http.Client // daemons other than the serving one

	mu      sync.Mutex // guards rec's counters and problems across goroutines
	rec     *record
	live    []*daemon
	daemons int     // daemons started
	rssMax  float64 // highest VmHWM of any stopped daemon, MB
	library string  // the first cold synthesis's library; every other must match
	journal string  // verdict journal warm restarts replay
	edits   int     // edits sent so far
}

// synthAnswer is the part of a /v1/synthesize answer the benchmark reads.
type synthAnswer struct {
	Fingerprint string  `json:"fingerprint"`
	Rules       int     `json:"rules"`
	Partial     bool    `json:"partial"`
	Cache       string  `json:"cache"`
	ElapsedMS   float64 `json:"elapsed_ms"`
	Stats       struct {
		MemoHits  int64 `json:"memo_hits"`
		BitBlasts int64 `json:"bit_blasts"`
	} `json:"stats"`
	Library string `json:"library"`
}

// selectAnswer is the part of a /v1/select answer the benchmark reads.
type selectAnswer struct {
	Fallback   bool   `json:"fallback"`
	RuleInsts  int    `json:"rule_insts"`
	HookInsts  int    `json:"hook_insts"`
	Cycles     int64  `json:"cycles"`
	BinarySize int    `json:"binary_size"`
	Checksum   string `json:"checksum"`
}

// editResults is what the edits beside the reads measured.
type editResults struct {
	ms       []float64 // answer time minus due time
	serverMS []float64 // the daemon's own incremental-synthesis time
	specs    []string
}

// samples is what the rounds collect.
type samples struct {
	setups, colds, warms, legs []float64
	reads                      []sample
	edits                      editResults
	alloc, gcs                 uint64 // serving daemon's heap during the reads
	queue                      value  // most jobs seen queued or running
}

// runWorkload runs one workload once. An error means the run could not
// be carried out (a daemon would not start, a synthesis failed); failed
// or wrong answers during the run are reported in the record.
func runWorkload(ctx context.Context, e env, w workload, p plan, seed uint64, seconds int, trace bool) (*record, error) {
	r := &runner{
		env: e, w: w, p: p, seed: seed,
		c: newClient(), repC: newClient(),
		rec: &record{
			Workload: w.name, Seed: seed, Seconds: seconds, Trace: trace,
			Metrics: map[string]value{}, Extra: map[string]value{}, Layers: map[string]value{},
		},
	}
	if trace {
		r.tr = obs.NewTracer(1 << 16)
	}
	if w.editRate > 0 && !strings.Contains(riscv.Spec(), editAnchor) {
		return nil, fmt.Errorf("riscv spec no longer contains the edited instruction %q", editAnchor)
	}
	// Daemon cache directories are per run: one left by an earlier run
	// would answer from disk instead of synthesizing.
	dir, err := os.MkdirTemp(e.workdir, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r.workdir = dir
	defer r.stopAll()
	if err := r.run(ctx); err != nil {
		return nil, err
	}
	r.rec.Correct = len(r.rec.Problems) == 0
	return r.rec, nil
}

func (r *runner) run(ctx context.Context) error {
	progs := genPrograms(r.seed, r.p.pool)
	bodies := make([][]byte, len(progs))
	for i, text := range progs {
		bodies[i] = mustJSON(map[string]any{"target": r.w.target, "program": text, "vector_seed": vectorSeed(r.seed)})
	}
	var s samples
	s.queue.Unit = "count"

	// The serving daemon is round 0's cold boot; its verdict journal
	// seeds every warm restart.
	serving, fp, err := r.coldBoot(ctx, 0, &s)
	if err != nil {
		return err
	}
	r.journal = filepath.Join(serving.dir, "solver.journal")
	for k := 0; k < r.p.rounds; k++ {
		for b := 0; b < r.w.boots; b++ {
			if k > 0 || b > 0 {
				d, _, err := r.coldBoot(ctx, k*r.w.boots+b, &s)
				if err != nil {
					return err
				}
				r.stop(d)
			}
			if err := r.warmRestart(ctx, k*r.w.boots+b, &s); err != nil {
				return err
			}
		}
		if err := r.readSlice(ctx, serving, bodies, &s); err != nil {
			return err
		}
		sp := r.tr.Start("capacity")
		rate, failed, sent := closedLoop(ctx, r.c, serving.url+"/v1/select", bodies, r.p.leg, maxConns)
		sp.End()
		r.count(sent, failed)
		s.legs = append(s.legs, rate)
	}
	sp := r.tr.Start("suite")
	cycles, size := r.suite(ctx, serving)
	sp.End()
	fallbacks := r.checkReads(progs, s.reads)

	var t tally
	var late []float64
	for _, rd := range s.reads {
		late = append(late, msOf(lateness(rd.start, rd.due)))
		if rd.err != nil {
			t.fail()
		} else {
			t.ok(rd.latency())
		}
	}
	r.count(t.attempted(), t.failed)
	// A failed read is infinitely slow; it is reported as a whole slice.
	p50 := min(t.median(), msOf(r.p.slice))
	p99, beyond := t.percentile(0.99)
	p99 = min(p99, msOf(r.p.slice))

	m := r.rec.Metrics
	m["setup_s"] = value{median(s.setups), "s", len(s.setups)}
	m["synth_cold_ms"] = value{median(s.colds), "ms", len(s.colds)}
	m["synth_warm_ms"] = value{median(s.warms), "ms", len(s.warms)}
	m["latency_p50_ms"] = value{p50, "ms", t.attempted()}
	m["throughput_rps"] = value{median(s.legs), "1/s", len(s.legs)}
	m["suite_cycles"] = value{float64(cycles), "cycles", 1}
	m["code_bytes"] = value{float64(size), "bytes", 1}

	x := r.rec.Extra
	x["latency_p99_ms"] = value{p99, "ms", t.attempted()}
	x["error_ratio"] = value{t.errorRatio(), "ratio", t.attempted()}
	x["fallback_ratio"] = value{float64(fallbacks) / float64(max(1, t.attempted()-t.failed)), "ratio", t.attempted() - t.failed}
	if r.w.editRate > 0 {
		x["edit_ms"] = value{median(s.edits.ms), "ms", len(s.edits.ms)}
	}
	if beyond < minBeyond {
		fmt.Fprintf(r.log, "note: latency_p99_ms has %d samples beyond it, want %d; at %d reads the highest sound percentile is p%g\n",
			beyond, minBeyond, t.attempted(), 100*highestTail(t.attempted()))
	}
	if limit := msOf(r.w.limit); p99 > limit {
		fmt.Fprintf(r.log, "LIMIT: %s latency_p99_ms %.1f exceeds its %.0f ms limit\n", r.w.name, p99, limit)
	}

	lay := r.rec.Layers
	served := float64(len(s.reads) + len(s.edits.ms))
	lay["gc.alloc_kb_per_req"] = value{float64(s.alloc) / 1024 / served, "KB", len(s.reads)}
	lay["gc.cycles_per_1k_req"] = value{float64(s.gcs) * 1000 / served, "count", len(s.reads)}
	slices.Sort(late)
	late99, _ := percentile(late, 0.99)
	lay["loadgen.late_ms_p99"] = value{late99, "ms", len(late)}
	if r.tr != nil {
		lay["service.queue_depth_max"] = s.queue
		if err := r.traceLayers(ctx, serving, fp, bodies, s.edits); err != nil {
			return err
		}
	}
	r.stop(serving) // last, so its peak covers everything it served
	m["peak_rss_mb"] = value{r.rssMax, "MB", r.daemons}
	return nil
}

// coldBoot starts daemon k on an empty cache directory and times it from
// process start until its warm-up synthesis answers. serve-rv-edit's
// warm-up also runs the edit lineage's first full synthesis, so edits
// find their base in place.
func (r *runner) coldBoot(ctx context.Context, k int, s *samples) (*daemon, string, error) {
	sp := r.tr.Start("boot.cold")
	defer sp.End()
	t0 := time.Now()
	d, err := r.start(ctx, filepath.Join(r.workdir, fmt.Sprintf("boot%d", k)))
	if err != nil {
		return nil, "", err
	}
	ans, lat, err := r.synthesize(ctx, r.repC, d, r.w.target, "", true)
	if err != nil {
		return nil, "", err
	}
	if r.w.editRate > 0 {
		base, _, err := r.synthesize(ctx, r.repC, d, editTarget, riscv.Spec(), false)
		if err != nil {
			return nil, "", err
		}
		if base.Cache != "miss" {
			r.problem("edit lineage base answered with cache %q, want a full synthesis", base.Cache)
		}
	}
	s.setups = append(s.setups, time.Since(t0).Seconds())
	s.colds = append(s.colds, msOf(lat))
	r.checkSynth(ans, false)
	r.repC.CloseIdleConnections()
	return d, ans.Fingerprint, nil
}

// warmRestart starts daemon k on a copy of the serving daemon's verdict
// journal and no cached library, so its synthesis replays settled
// verdicts instead of solving, and stops it once it has answered.
func (r *runner) warmRestart(ctx context.Context, k int, s *samples) error {
	sp := r.tr.Start("boot.warm")
	defer sp.End()
	dir := filepath.Join(r.workdir, fmt.Sprintf("warm%d", k))
	if err := copyFile(r.journal, filepath.Join(dir, "solver.journal")); err != nil {
		return fmt.Errorf("copy verdict journal: %w", err)
	}
	d, err := r.start(ctx, dir)
	if err != nil {
		return err
	}
	ans, lat, err := r.synthesize(ctx, r.repC, d, r.w.target, "", true)
	r.stop(d)
	r.repC.CloseIdleConnections()
	if err != nil {
		return err
	}
	r.checkSynth(ans, true)
	s.warms = append(s.warms, msOf(lat))
	return nil
}

// readSlice runs one round's open-loop reads against the serving daemon
// and, beside them, its edits; it also takes the daemon's heap counters
// around them and, in a traced run, samples its job queue.
func (r *runner) readSlice(ctx context.Context, serving *daemon, bodies [][]byte, s *samples) error {
	alloc0, gc0, err := serving.heapTotals(ctx, r.c)
	if err != nil {
		return fmt.Errorf("read daemon heap totals: %w", err)
	}
	sp := r.tr.Start("reads")
	var wg sync.WaitGroup
	stopPoll := make(chan struct{})
	var queue value
	var ed editResults
	if r.tr != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			queue = r.pollQueue(ctx, serving, stopPoll)
		}()
	}
	if r.w.editRate > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ed = r.sendEdits(ctx, serving, time.Now())
		}()
	}
	reads := openLoop(ctx, r.c, serving.url+"/v1/select", bodies, len(s.reads), r.w.rate, r.p.slice, r.w.readConns())
	close(stopPoll)
	wg.Wait()
	sp.End()
	alloc1, gc1, err := serving.heapTotals(ctx, r.c)
	if err != nil {
		return fmt.Errorf("read daemon heap totals: %w", err)
	}
	s.reads = append(s.reads, reads...)
	s.edits.ms = append(s.edits.ms, ed.ms...)
	s.edits.serverMS = append(s.edits.serverMS, ed.serverMS...)
	s.edits.specs = append(s.edits.specs, ed.specs...)
	s.alloc += alloc1 - alloc0
	s.gcs += gc1 - gc0
	s.queue.Value = max(s.queue.Value, queue.Value)
	s.queue.N += queue.N
	return nil
}

// sendEdits sends the slice's edits to the serving daemon, each at its
// due time on the schedule editRate sets. Each must be answered by an
// incremental resynthesis.
func (r *runner) sendEdits(ctx context.Context, serving *daemon, t0 time.Time) editResults {
	var ed editResults
	n := max(1, scheduled(r.w.editRate, r.p.slice))
	for i := 0; i < n && ctx.Err() == nil; i++ {
		due := dueAt(i, r.w.editRate)
		if wait := due - time.Since(t0); wait > 0 {
			time.Sleep(wait)
		}
		j := r.edits
		r.edits++
		spec := editSpec(r.seed, j)
		ans, _, err := r.synthesize(ctx, r.c, serving, editTarget, spec, false)
		if err != nil {
			continue // counted as failed
		}
		ed.ms = append(ed.ms, msOf(time.Since(t0)-due))
		ed.serverMS = append(ed.serverMS, ans.ElapsedMS)
		ed.specs = append(ed.specs, spec)
		if ans.Cache != "incr" || ans.Rules == 0 || ans.Partial {
			r.problem("edit %d answered cache=%q rules=%d partial=%v, want a complete incremental resynthesis",
				j, ans.Cache, ans.Rules, ans.Partial)
		}
	}
	return ed
}

// pollQueue samples /v1/metrics every 100 ms until stop closes and
// returns the most synthesis jobs seen waiting or running at once.
func (r *runner) pollQueue(ctx context.Context, d *daemon, stop <-chan struct{}) value {
	most := value{Unit: "count"}
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return most
		case <-ctx.Done():
			return most
		case <-tick.C:
		}
		var snap struct {
			QueueDepth int   `json:"queue_depth"`
			InFlight   int64 `json:"in_flight"`
		}
		body, err := get(ctx, r.c, d.url+"/v1/metrics")
		if err != nil || json.Unmarshal(body, &snap) != nil {
			continue // a missed sample; the queue is sampled, not counted
		}
		most.Value = max(most.Value, float64(snap.QueueDepth)+float64(snap.InFlight))
		most.N++
	}
}

// synthesize posts one /v1/synthesize and returns the answer and the
// request's wall time.
func (r *runner) synthesize(ctx context.Context, c *http.Client, d *daemon, target, spec string, emit bool) (synthAnswer, time.Duration, error) {
	req := map[string]any{"target": target, "emit": emit}
	if spec != "" {
		req["spec"] = spec
	}
	t0 := time.Now()
	body, err := post(ctx, c, d.url+"/v1/synthesize", mustJSON(req))
	lat := time.Since(t0)
	var ans synthAnswer
	if err == nil {
		err = json.Unmarshal(body, &ans)
	}
	if err != nil {
		r.count(1, 1)
		return ans, lat, fmt.Errorf("synthesize %s: %w", target, err)
	}
	r.count(1, 0)
	return ans, lat, nil
}

// checkSynth holds every full synthesis of the target to the same
// library, a cold one to at least one bit-blast, and a warm one to none
// with memo hits.
func (r *runner) checkSynth(a synthAnswer, warm bool) {
	kind := map[bool]string{false: "cold", true: "warm"}[warm]
	if a.Cache != "miss" || a.Partial || a.Rules == 0 || a.Library == "" {
		r.problem("%s synthesis answered cache=%q partial=%v rules=%d, want a complete fresh synthesis",
			kind, a.Cache, a.Partial, a.Rules)
	}
	if r.library == "" {
		r.library = a.Library
	} else if a.Library != r.library {
		r.problem("%s synthesis produced a library that differs from the first cold one", kind)
	}
	switch {
	case warm && (a.Stats.BitBlasts != 0 || a.Stats.MemoHits == 0):
		r.problem("warm synthesis ran %d bit-blasts with %d memo hits, want 0 and >0", a.Stats.BitBlasts, a.Stats.MemoHits)
	case !warm && a.Stats.BitBlasts == 0:
		r.problem("cold synthesis ran no bit-blasts: the verdict memo was not empty")
	}
}

func (r *runner) start(ctx context.Context, dir string) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	d, err := startDaemon(ctx, r.repC, r.iseld, dir)
	if err != nil {
		return nil, err
	}
	r.live = append(r.live, d)
	r.daemons++
	return d, nil
}

// stop records the daemon's peak RSS and stops it.
func (r *runner) stop(d *daemon) {
	if mb, err := d.peakRSSMB(); err == nil {
		r.rssMax = max(r.rssMax, mb)
	} else {
		r.problem("read daemon peak RSS: %v", err)
	}
	d.stop()
	for i, x := range r.live {
		if x == d {
			r.live = append(r.live[:i], r.live[i+1:]...)
			break
		}
	}
}

func (r *runner) stopAll() {
	for len(r.live) > 0 {
		r.live[len(r.live)-1].stop()
		r.live = r.live[:len(r.live)-1]
	}
}

func (r *runner) count(attempted, failed int) {
	r.mu.Lock()
	r.rec.Attempted += attempted
	r.rec.Failed += failed
	r.mu.Unlock()
}

func (r *runner) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.mu.Lock()
	r.rec.Problems = append(r.rec.Problems, msg)
	r.mu.Unlock()
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only maps of strings, numbers and booleans are marshalled
	}
	return b
}

func copyFile(src, dst string) error {
	data, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return err
	}
	return os.WriteFile(dst, data, 0o644)
}
