// Command iselload is the serving load harness: it replays a stream of
// fuzz-generated straight-line programs against an iseld cluster at a
// configurable concurrency and reports latency, throughput, and cache
// behaviour as BENCH_serve.json.
//
// By default it boots an in-process cluster of -replicas full iseld
// replicas on loopback ports (real HTTP between them), warms the target
// library through the async job API, then drives POST /v1/select/batch
// round-robin across the replicas. Point it at a running fleet instead
// with -urls.
//
// The harness also exercises distributed tracing end to end: warm jobs
// and a -trace-sample fraction of batch requests carry client-minted
// X-Iseld-Trace contexts, and after the run each sampled trace is
// assembled through GET /v1/trace/{traceId} and validated (single root,
// no orphans, spans from every replica the request touched). The report
// gains a "trace" section; -trace-out saves one assembled multi-node
// trace as Chrome JSON.
//
// The -gate-p99, -gate-hitrate, and -gate-trace flags turn the report
// into a CI gate: the process exits nonzero when the measured p99 batch
// latency exceeds the limit, the combined cache hit rate falls below
// the floor, or (with -gate-trace) any sampled trace fails to assemble
// completely, no trace spans two replicas, or the p99 latency bucket's
// exemplar trace ID does not resolve.
//
// Usage: iselload [-replicas 3] [-n 1000] [-batch 32] [-concurrency 8]
//
//	[-target riscv] [-seed 1] [-vectors 2]
//	[-patterns 8] [-workers 2] [-inputs 16]
//	[-urls http://a,http://b] [-json BENCH_serve.json]
//	[-trace-sample 0.25] [-trace-out fleet-trace.json]
//	[-gate-p99 0] [-gate-hitrate 0] [-gate-trace]
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"iselgen/internal/bv"
	"iselgen/internal/cluster"
	"iselgen/internal/core"
	"iselgen/internal/fuzz"
	"iselgen/internal/obs"
	"iselgen/internal/service"
)

func main() {
	replicas := flag.Int("replicas", 3, "in-process replica count (ignored with -urls)")
	n := flag.Int("n", 1000, "programs to replay")
	batch := flag.Int("batch", 32, "programs per /v1/select/batch request")
	concurrency := flag.Int("concurrency", 8, "concurrent batch requests in flight")
	target := flag.String("target", "riscv", "selection target (riscv or aarch64)")
	seed := flag.Uint64("seed", 1, "program-generation and simulation-vector seed")
	vectors := flag.Int("vectors", 2, "simulation input vectors per program")
	patterns := flag.Int("patterns", 8, "corpus patterns per synthesis (0 = all; in-process only)")
	workers := flag.Int("workers", 2, "synthesis workers per replica (in-process only)")
	queue := flag.Int("queue", 16, "scheduler queue depth per replica (in-process only)")
	inputs := flag.Int("inputs", 16, "test inputs per synthesized sequence (in-process only)")
	timeout := flag.Duration("timeout", 2*time.Minute, "synthesis deadline for the warm-up job")
	urls := flag.String("urls", "", "comma-separated replica base URLs (empty = boot in-process)")
	jsonOut := flag.String("json", "", "write the report to this file (empty = stdout)")
	traceSample := flag.Float64("trace-sample", 0.25, "fraction of batch requests carrying a client-minted trace context (0 = none; warm jobs are always traced when nonzero)")
	traceOut := flag.String("trace-out", "", "write the widest assembled fleet trace as Chrome JSON to this file (empty = skip)")
	gateP99 := flag.Duration("gate-p99", 0, "fail when p99 batch latency exceeds this (0 = off)")
	gateHit := flag.Float64("gate-hitrate", 0, "fail when the combined cache hit rate is below this fraction (0 = off)")
	gateTrace := flag.Bool("gate-trace", false, "fail unless every sampled trace assembles completely, at least one spans two replicas, and the p99 bucket exemplar resolves")
	flag.Parse()

	if *n < 1 || *batch < 1 || *concurrency < 1 {
		fatal(fmt.Errorf("-n, -batch, and -concurrency must all be positive"))
	}

	// Generate the program stream up front: one deterministic program per
	// index, so a run is reproducible from (-seed, -n) alone.
	gcfg := fuzz.DefaultGenConfig()
	programs := make([]string, *n)
	for i := range programs {
		programs[i] = fuzz.Gen(bv.NewRNG(fuzz.SubSeed(*seed, uint64(i))), gcfg).Format()
	}

	var endpoints []string
	if *urls != "" {
		for _, u := range strings.Split(*urls, ",") {
			if u = strings.TrimSpace(u); u != "" {
				endpoints = append(endpoints, strings.TrimRight(u, "/"))
			}
		}
		if len(endpoints) == 0 {
			fatal(fmt.Errorf("-urls parsed to an empty list"))
		}
	} else {
		lc, err := bootCluster(*replicas, *workers, *queue, *patterns, *inputs)
		if err != nil {
			fatal(err)
		}
		defer lc.Close()
		endpoints = lc.URLs()
	}

	client := &http.Client{Timeout: 5 * time.Minute}

	// Warm every replica through the async job API: submit, then poll.
	// Replicas that do not own the fingerprint fill from its owner here,
	// so the warm phase already exercises (and counts) peer fills — and
	// each warm job carries a client-minted trace context, making the
	// warm traces the multi-node ones (a non-owner's job span parents
	// the owner's artifact-serving spans across the wire).
	warmT0 := time.Now()
	var warmTraces []string
	for _, ep := range endpoints {
		hdr := ""
		if *traceSample > 0 {
			tc := obs.TraceContext{TraceID: obs.NewTraceID(), SpanID: 0x15e10ad, Sampled: true}
			hdr = tc.Header()
			warmTraces = append(warmTraces, tc.TraceID.String())
		}
		if err := warm(client, ep, *target, *timeout, hdr); err != nil {
			fatal(fmt.Errorf("warm %s: %w", ep, err))
		}
	}
	warmDur := time.Since(warmT0)
	fmt.Fprintf(os.Stderr, "iselload: warmed %d replicas in %.1fs\n", len(endpoints), warmDur.Seconds())

	// Resolve the warm traces before batch traffic can age their spans
	// out of the per-replica span rings.
	trace := ReportTrace{SampleRate: *traceSample}
	bestID, bestNodes := resolveTraces(client, endpoints[0], warmTraces, &trace)

	// Replay: split the stream into batches, drive them round-robin
	// across the replicas from -concurrency workers.
	type job struct {
		idx   int
		progs []string
		trace string // X-Iseld-Trace header value, "" for unsampled batches
	}
	jobs := make(chan job)
	var (
		mu        sync.Mutex
		latencies []time.Duration
		selected  atomic.Int64
		fallbacks atomic.Int64
		progErrs  atomic.Int64
		reqFailed atomic.Int64
		reqTotal  atomic.Int64
	)
	var wg sync.WaitGroup
	runT0 := time.Now()
	for w := 0; w < *concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for jb := range jobs {
				ep := endpoints[jb.idx%len(endpoints)]
				req := service.BatchSelectRequest{
					Target:     *target,
					Programs:   jb.progs,
					VectorSeed: *seed,
					Vectors:    *vectors,
				}
				body, _ := json.Marshal(req)
				hreq, _ := http.NewRequest(http.MethodPost, ep+"/v1/select/batch", bytes.NewReader(body))
				hreq.Header.Set("Content-Type", "application/json")
				if jb.trace != "" {
					hreq.Header.Set(obs.TraceHeader, jb.trace)
				}
				t0 := time.Now()
				resp, err := client.Do(hreq)
				d := time.Since(t0)
				reqTotal.Add(1)
				if err != nil {
					reqFailed.Add(1)
					fmt.Fprintf(os.Stderr, "iselload: batch %d via %s: %v\n", jb.idx, ep, err)
					continue
				}
				out, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					reqFailed.Add(1)
					fmt.Fprintf(os.Stderr, "iselload: batch %d via %s: HTTP %d: %s\n",
						jb.idx, ep, resp.StatusCode, bytes.TrimSpace(out))
					continue
				}
				var br service.BatchSelectResponse
				if err := json.Unmarshal(out, &br); err != nil {
					reqFailed.Add(1)
					continue
				}
				selected.Add(int64(br.Selected))
				fallbacks.Add(int64(br.Fallbacks))
				progErrs.Add(int64(br.Failed))
				mu.Lock()
				latencies = append(latencies, d)
				mu.Unlock()
			}
		}()
	}
	// Sample deterministically — every Kth batch carries a minted trace
	// context, so a run is reproducible traces included.
	sampleEvery := 0
	if *traceSample > 0 {
		sampleEvery = int(1 / *traceSample)
		if sampleEvery < 1 {
			sampleEvery = 1
		}
	}
	var batchTraces []string
	nBatches := 0
	for off := 0; off < len(programs); off += *batch {
		end := off + *batch
		if end > len(programs) {
			end = len(programs)
		}
		hdr := ""
		if sampleEvery > 0 && nBatches%sampleEvery == 0 {
			tc := obs.TraceContext{TraceID: obs.NewTraceID(), SpanID: 0x10adba7c, Sampled: true}
			hdr = tc.Header()
			batchTraces = append(batchTraces, tc.TraceID.String())
		}
		jobs <- job{idx: nBatches, progs: programs[off:end], trace: hdr}
		nBatches++
	}
	close(jobs)
	wg.Wait()
	runDur := time.Since(runT0)

	// Scrape every replica's Prometheus surface — strictly parsed, so a
	// malformed exposition fails the run rather than skewing the report.
	sums := map[string]float64{}
	for _, ep := range endpoints {
		if err := scrape(client, ep, sums); err != nil {
			fatal(fmt.Errorf("scrape %s: %w", ep, err))
		}
	}

	// Resolve the sampled batch traces, then close the observability
	// loop: the latency histogram's slowest populated bucket must carry
	// an exemplar trace ID the fleet can still assemble.
	if id, nodes := resolveTraces(client, endpoints[0], batchTraces, &trace); nodes > bestNodes {
		bestID, bestNodes = id, nodes
	}
	if trace.Sampled > 0 {
		trace.Completeness = float64(trace.Assembled) / float64(trace.Sampled)
	}
	trace.ExemplarCoverage, trace.ExemplarResolved = checkExemplar(client, endpoints[0])
	if *traceOut != "" && bestID != "" {
		if err := saveTrace(client, endpoints[0], bestID, *traceOut); err != nil {
			fatal(fmt.Errorf("trace-out: %w", err))
		}
		fmt.Fprintf(os.Stderr, "iselload: wrote %s (trace %s, %d replicas)\n", *traceOut, bestID, bestNodes)
	}

	rep := buildReport(reportInput{
		endpoints: len(endpoints), target: *target,
		seed: *seed, patterns: *patterns, batch: *batch, concurrency: *concurrency,
		programs: *n, warmDur: warmDur, runDur: runDur,
		latencies: latencies, sums: sums,
		reqTotal: reqTotal.Load(), reqFailed: reqFailed.Load(),
		selected: selected.Load(), fallbacks: fallbacks.Load(), progErrs: progErrs.Load(),
		trace:   trace,
		gateP99: *gateP99, gateHit: *gateHit, gateTrace: *gateTrace,
	})

	enc, _ := json.MarshalIndent(rep, "", "  ")
	enc = append(enc, '\n')
	if *jsonOut != "" {
		if err := os.WriteFile(*jsonOut, enc, 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "iselload: wrote %s\n", *jsonOut)
	} else {
		os.Stdout.Write(enc)
	}
	fmt.Fprintf(os.Stderr,
		"iselload: %d programs in %.1fs (%.0f/s), p50 %.1fms p99 %.1fms, hit rate %.0f%%, %d failed requests\n",
		*n, runDur.Seconds(), rep.Throughput, rep.Latency.P50MS, rep.Latency.P99MS,
		rep.Cluster.HitRateCombined*100, rep.Requests.Failed)
	if trace.Sampled > 0 {
		fmt.Fprintf(os.Stderr,
			"iselload: traces %d/%d assembled, %d multi-node (widest %d replicas), exemplar coverage %.0f%% resolved=%v\n",
			trace.Assembled, trace.Sampled, trace.MultiNodeTraces, trace.FleetNodes,
			trace.ExemplarCoverage*100, trace.ExemplarResolved)
	}
	if !rep.Gates.Passed {
		fmt.Fprintf(os.Stderr, "iselload: GATE FAILED: %s\n", strings.Join(rep.Gates.Failures, "; "))
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "iselload:", err)
	os.Exit(1)
}

// bootCluster starts the in-process fleet: full replicas, loopback HTTP.
func bootCluster(n int, workers, queue, patterns, inputs int) (*cluster.Local, error) {
	mk := func(i int) (*service.Server, *obs.Obs, error) {
		o := obs.New()
		synth := core.DefaultConfig()
		if inputs > 0 {
			synth.TestInputs = inputs
		}
		sv, err := service.New(service.Config{
			Workers:     workers,
			QueueDepth:  queue,
			Synth:       synth,
			MaxPatterns: patterns,
			Obs:         o,
		})
		return sv, o, err
	}
	return cluster.StartLocal(n, mk, cluster.Config{HedgeDelay: 50 * time.Millisecond})
}

// warm synthesizes the target's library on one replica through the
// async job API: POST /v1/jobs, then poll the returned job until it
// leaves the queue. A non-empty traceHdr rides the submit request as
// its X-Iseld-Trace context (the polls stay untraced — they would
// bloat the trace with hundreds of identical spans).
func warm(client *http.Client, ep, target string, timeout time.Duration, traceHdr string) error {
	body, _ := json.Marshal(service.SynthesizeRequest{
		Target: target, TimeoutMS: int64(timeout / time.Millisecond),
	})
	req, _ := http.NewRequest(http.MethodPost, ep+"/v1/jobs", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	if traceHdr != "" {
		req.Header.Set(obs.TraceHeader, traceHdr)
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(out))
	}
	var sub service.JobSubmitResponse
	if err := json.Unmarshal(out, &sub); err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	deadline := time.Now().Add(timeout + time.Minute)
	for {
		if time.Now().After(deadline) {
			return fmt.Errorf("job %s: still not done at deadline", sub.ID)
		}
		resp, err := client.Get(ep + sub.Poll)
		if err != nil {
			return err
		}
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var st service.JobStatus
		if err := json.Unmarshal(out, &st); err != nil {
			return fmt.Errorf("poll: %w", err)
		}
		switch st.Status {
		case service.JobDone:
			return nil
		case service.JobFailed:
			return fmt.Errorf("job %s failed: %s", sub.ID, st.Error)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// resolveTraces assembles each client-minted trace through one
// replica's fleet trace endpoint and folds the outcome into st. Spans
// commit when they end, which trails the HTTP responses that created
// them, so each trace is polled briefly until it validates (single
// trace ID, unique span IDs, exactly one root, no orphans). Returns
// the trace spanning the most replicas for -trace-out.
func resolveTraces(client *http.Client, ep string, ids []string, st *ReportTrace) (bestID string, bestNodes int) {
	for _, id := range ids {
		st.Sampled++
		var spans []obs.TraceSpan
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			resp, err := client.Get(ep + "/v1/trace/" + id + "?format=spans")
			if err != nil {
				break
			}
			var sr service.TraceSpansResponse
			ok := resp.StatusCode == http.StatusOK &&
				json.NewDecoder(resp.Body).Decode(&sr) == nil
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if ok && obs.ValidateTraceSpans(sr.Spans) == nil {
				spans = sr.Spans
				break
			}
			time.Sleep(25 * time.Millisecond)
		}
		if spans == nil {
			continue
		}
		st.Assembled++
		st.FleetSpans += len(spans)
		nodes := map[string]bool{}
		for _, s := range spans {
			nodes[s.Node] = true
		}
		if len(nodes) > st.FleetNodes {
			st.FleetNodes = len(nodes)
		}
		if len(nodes) >= 2 {
			st.MultiNodeTraces++
		}
		if len(nodes) > bestNodes {
			bestNodes, bestID = len(nodes), id
		}
	}
	return bestID, bestNodes
}

// checkExemplar closes the observability loop on one replica: the
// request-latency histogram's populated buckets must carry exemplar
// annotations, and the slowest bucket's trace ID must still assemble
// through the fleet trace endpoint.
func checkExemplar(client *http.Client, ep string) (coverage float64, resolved bool) {
	resp, err := client.Get(ep + "/metrics?exemplars=1")
	if err != nil {
		return 0, false
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if fams, err := obs.ParseProm(string(text)); err == nil {
		withEx, populated := obs.ExemplarCoverage(fams["http_request_duration_ns"])
		if populated > 0 {
			coverage = float64(withEx) / float64(populated)
		}
	}
	r2, err := client.Get(ep + "/v1/metrics")
	if err != nil {
		return coverage, false
	}
	var snap service.MetricsSnapshot
	decodeErr := json.NewDecoder(r2.Body).Decode(&snap)
	io.Copy(io.Discard, r2.Body)
	r2.Body.Close()
	if decodeErr != nil {
		return coverage, false
	}
	var pick *obs.HistExemplar
	for i := range snap.TraceExemplars {
		ex := &snap.TraceExemplars[i]
		if ex.Metric != "http_request_duration_ns" {
			continue
		}
		if pick == nil || ex.BucketLE > pick.BucketLE {
			pick = ex
		}
	}
	if pick == nil {
		return coverage, false
	}
	r3, err := client.Get(ep + "/v1/trace/" + pick.TraceID + "?format=spans")
	if err != nil {
		return coverage, false
	}
	io.Copy(io.Discard, r3.Body)
	r3.Body.Close()
	return coverage, r3.StatusCode == http.StatusOK
}

// saveTrace fetches one assembled fleet trace as Chrome JSON, re-parses
// it with the strict trace-file parser (a malformed artifact fails the
// run, it does not get uploaded), and writes it to path.
func saveTrace(client *http.Client, ep, traceID, path string) error {
	resp, err := client.Get(ep + "/v1/trace/" + traceID)
	if err != nil {
		return err
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("HTTP %d fetching trace %s", resp.StatusCode, traceID)
	}
	if _, err := obs.ParseTraceFile(data); err != nil {
		return fmt.Errorf("assembled trace fails strict parse: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}

// scrape strictly parses one replica's /metrics and accumulates the
// iseld_* and cluster_* counters into sums.
func scrape(client *http.Client, ep string, sums map[string]float64) error {
	resp, err := client.Get(ep + "/metrics")
	if err != nil {
		return err
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	fams, err := obs.ParseProm(string(text))
	if err != nil {
		return fmt.Errorf("parse prom: %w", err)
	}
	for name, fam := range fams {
		if !strings.HasPrefix(name, "iseld_") && !strings.HasPrefix(name, "cluster_") {
			continue
		}
		for _, s := range fam.Samples {
			sums[name] += s.Value
		}
	}
	return nil
}

// Report is the BENCH_serve.json schema (documented in EXPERIMENTS.md).
type Report struct {
	Bench      string        `json:"bench"`
	Config     ReportConfig  `json:"config"`
	WarmSec    float64       `json:"warm_sec"`
	ElapsedSec float64       `json:"elapsed_sec"`
	Throughput float64       `json:"throughput_programs_per_sec"`
	Latency    ReportLatency `json:"latency"`
	Requests   ReportReqs    `json:"requests"`
	Programs   ReportProgs   `json:"programs"`
	Cluster    ReportCluster `json:"cluster"`
	Trace      ReportTrace   `json:"trace"`
	Gates      ReportGates   `json:"gates"`
}

type ReportConfig struct {
	Replicas    int    `json:"replicas"`
	Target      string `json:"target"`
	Seed        uint64 `json:"seed"`
	Patterns    int    `json:"patterns"`
	Batch       int    `json:"batch"`
	Concurrency int    `json:"concurrency"`
}

type ReportLatency struct {
	P50MS  float64 `json:"p50_ms"`
	P90MS  float64 `json:"p90_ms"`
	P99MS  float64 `json:"p99_ms"`
	MaxMS  float64 `json:"max_ms"`
	MeanMS float64 `json:"mean_ms"`
}

type ReportReqs struct {
	Total  int64 `json:"total"`
	Failed int64 `json:"failed"`
}

type ReportProgs struct {
	Total     int   `json:"total"`
	Selected  int64 `json:"selected"`
	Fallbacks int64 `json:"fallbacks"`
	Errors    int64 `json:"errors"`
}

type ReportCluster struct {
	CacheHits       float64 `json:"cache_hits"`
	DiskHits        float64 `json:"disk_hits"`
	Joins           float64 `json:"joins"`
	PeerFills       float64 `json:"peer_fills"`
	SynthRuns       float64 `json:"synth_runs"`
	IncrRuns        float64 `json:"incr_runs"`
	ArtifactsServed float64 `json:"artifacts_served"`
	BatchPrograms   float64 `json:"batch_programs"`
	Hedges          float64 `json:"hedges"`
	PeerErrors      float64 `json:"peer_errors"`
	HitRateCombined float64 `json:"hit_rate_combined"`
}

// ReportTrace summarizes the distributed-tracing health check: how
// many client-minted traces assembled fleet-wide, how far they
// spanned, and whether the latency exemplars still resolve.
type ReportTrace struct {
	SampleRate       float64 `json:"sample_rate"`
	Sampled          int     `json:"sampled"`
	Assembled        int     `json:"assembled"`
	Completeness     float64 `json:"completeness"`
	FleetSpans       int     `json:"fleet_spans"`
	FleetNodes       int     `json:"fleet_nodes"`
	MultiNodeTraces  int     `json:"multi_node_traces"`
	ExemplarCoverage float64 `json:"exemplar_coverage"`
	ExemplarResolved bool    `json:"exemplar_resolved"`
}

type ReportGates struct {
	P99LimitMS   float64  `json:"p99_limit_ms,omitempty"`
	HitRateFloor float64  `json:"hit_rate_floor,omitempty"`
	Passed       bool     `json:"passed"`
	Failures     []string `json:"failures,omitempty"`
}

type reportInput struct {
	endpoints                     int
	target                        string
	seed                          uint64
	patterns, batch, concurrency  int
	programs                      int
	warmDur, runDur               time.Duration
	latencies                     []time.Duration
	sums                          map[string]float64
	reqTotal, reqFailed           int64
	selected, fallbacks, progErrs int64
	trace                         ReportTrace
	gateP99                       time.Duration
	gateHit                       float64
	gateTrace                     bool
}

func buildReport(in reportInput) Report {
	sort.Slice(in.latencies, func(i, j int) bool { return in.latencies[i] < in.latencies[j] })
	pct := func(p float64) float64 {
		if len(in.latencies) == 0 {
			return 0
		}
		i := int(p * float64(len(in.latencies)-1))
		return float64(in.latencies[i].Nanoseconds()) / 1e6
	}
	var mean float64
	for _, d := range in.latencies {
		mean += float64(d.Nanoseconds()) / 1e6
	}
	if len(in.latencies) > 0 {
		mean /= float64(len(in.latencies))
	}
	cl := ReportCluster{
		CacheHits:       in.sums["iseld_cache_hits"],
		DiskHits:        in.sums["iseld_disk_hits"],
		Joins:           in.sums["iseld_joins"],
		PeerFills:       in.sums["iseld_peer_fills"],
		SynthRuns:       in.sums["iseld_synth_runs"],
		IncrRuns:        in.sums["iseld_incr_runs"],
		ArtifactsServed: in.sums["iseld_artifacts_served"],
		BatchPrograms:   in.sums["iseld_batch_programs"],
		Hedges:          in.sums["cluster_hedges"],
		PeerErrors:      in.sums["cluster_peer_errors"],
	}
	// Combined hit rate: of every cache decision the fleet made, the
	// fraction answered without running a synthesis (memory, flight join,
	// disk, or a peer's artifact).
	served := cl.CacheHits + cl.Joins + cl.DiskHits + cl.PeerFills
	total := served + cl.SynthRuns + cl.IncrRuns
	if total > 0 {
		cl.HitRateCombined = served / total
	}
	rep := Report{
		Bench: "serve",
		Config: ReportConfig{
			Replicas: in.endpoints, Target: in.target,
			Seed: in.seed, Patterns: in.patterns, Batch: in.batch, Concurrency: in.concurrency,
		},
		WarmSec:    in.warmDur.Seconds(),
		ElapsedSec: in.runDur.Seconds(),
		Latency: ReportLatency{
			P50MS: pct(0.50), P90MS: pct(0.90), P99MS: pct(0.99), MaxMS: pct(1.0), MeanMS: mean,
		},
		Requests: ReportReqs{Total: in.reqTotal, Failed: in.reqFailed},
		Programs: ReportProgs{
			Total: in.programs, Selected: in.selected, Fallbacks: in.fallbacks, Errors: in.progErrs,
		},
		Cluster: cl,
		Trace:   in.trace,
		Gates:   ReportGates{Passed: true},
	}
	if in.runDur > 0 {
		rep.Throughput = float64(in.programs) / in.runDur.Seconds()
	}
	if in.gateP99 > 0 {
		rep.Gates.P99LimitMS = float64(in.gateP99.Nanoseconds()) / 1e6
		if rep.Latency.P99MS > rep.Gates.P99LimitMS {
			rep.Gates.Failures = append(rep.Gates.Failures,
				fmt.Sprintf("p99 %.1fms exceeds limit %.1fms", rep.Latency.P99MS, rep.Gates.P99LimitMS))
		}
	}
	if in.gateHit > 0 {
		rep.Gates.HitRateFloor = in.gateHit
		if rep.Cluster.HitRateCombined < in.gateHit {
			rep.Gates.Failures = append(rep.Gates.Failures,
				fmt.Sprintf("hit rate %.2f below floor %.2f", rep.Cluster.HitRateCombined, in.gateHit))
		}
	}
	if in.gateTrace {
		if in.trace.Sampled == 0 {
			rep.Gates.Failures = append(rep.Gates.Failures,
				"-gate-trace set but no traces were sampled (raise -trace-sample)")
		}
		if in.trace.Assembled < in.trace.Sampled {
			rep.Gates.Failures = append(rep.Gates.Failures,
				fmt.Sprintf("only %d of %d sampled traces assembled completely",
					in.trace.Assembled, in.trace.Sampled))
		}
		if in.trace.Sampled > 0 && in.trace.MultiNodeTraces == 0 {
			rep.Gates.Failures = append(rep.Gates.Failures,
				"no assembled trace spans two replicas")
		}
		if !in.trace.ExemplarResolved {
			rep.Gates.Failures = append(rep.Gates.Failures,
				"latency-histogram exemplar trace ID did not resolve")
		}
	}
	if in.reqFailed > 0 {
		rep.Gates.Failures = append(rep.Gates.Failures,
			fmt.Sprintf("%d of %d requests failed", in.reqFailed, in.reqTotal))
	}
	rep.Gates.Passed = len(rep.Gates.Failures) == 0
	return rep
}
