package main

// Per-layer attribution for the traced run. Every span comes from this
// file, recorded around calls into each layer's public functions on a
// tracer private to the run (never installed as the process default), so
// the daemon carries no benchmark instrumentation. The daemon runs in
// another process, so the layers are replayed in-process on the same
// inputs, and the replay is checked against what the daemon answered.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"text/tabwriter"
	"time"

	"iselgen/internal/core"
	"iselgen/internal/cost"
	"iselgen/internal/fuzz"
	"iselgen/internal/gmir"
	"iselgen/internal/harness"
	"iselgen/internal/isa"
	"iselgen/internal/isa/aarch64"
	"iselgen/internal/isa/riscv"
	"iselgen/internal/isel"
	"iselgen/internal/obs"
	"iselgen/internal/rules"
	"iselgen/internal/service"
	"iselgen/internal/sim"
	"iselgen/internal/spec"
	"iselgen/internal/term"
)

// Span names of the replays' roots.
const (
	rootCold    = "synth.cold"
	rootWarm    = "synth.warm"
	rootRequest = "request"
	rootCheck   = "spec.check"
)

func loadTarget(target string, b *term.Builder) (*isa.Target, error) {
	if target == "aarch64" {
		return aarch64.Load(b)
	}
	return riscv.Load(b)
}

func newBackend(target string, tgt *isa.Target, lib *rules.Library) *isel.Backend {
	if target == "aarch64" {
		return isel.NewA64Synth(tgt, lib)
	}
	return isel.NewRVSynth(tgt, lib)
}

// baseConfig is the synthesis configuration iseld builds from its
// default flags.
func baseConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Workers = core.ResolveWorkers(0)
	return cfg
}

// targetConfig adds what the daemon derives per target before it
// synthesizes: the special sequences, the cost model, and its telemetry.
func targetConfig(target string) (core.Config, error) {
	cfg := baseConfig()
	cfg.ExtraSequences = harness.ExtraSequences(target)
	m, err := harness.CostModel(target)
	if err != nil {
		return cfg, err
	}
	cfg.CostModel = m
	cfg.Obs = obs.New()
	return cfg, nil
}

func (r *runner) traceLayers(ctx context.Context, d *daemon, fp string, bodies [][]byte, ed editResults) error {
	body, err := post(ctx, r.c, d.url+"/v1/artifact", mustJSON(map[string]any{"fingerprint": fp, "target": r.w.target, "cache_only": true}))
	if err != nil {
		return fmt.Errorf("fetch served artifact: %w", err)
	}
	var art struct {
		Library string `json:"library"`
	}
	if err := json.Unmarshal(body, &art); err != nil {
		return fmt.Errorf("decode served artifact: %w", err)
	}
	if err := r.synthReplay(art.Library); err != nil {
		return err
	}
	n, lat, rtt, err := r.serveReplay(ctx, d, fp, art.Library, bodies)
	if err != nil {
		return err
	}
	if r.w.editRate > 0 {
		r.editLayers(ed)
	}
	var snap struct {
		CachedEntries int `json:"cached_entries"`
	}
	if body, err = get(ctx, r.c, d.url+"/v1/metrics"); err == nil {
		err = json.Unmarshal(body, &snap)
	}
	if err != nil {
		return fmt.Errorf("read daemon metrics: %w", err)
	}
	r.rec.Layers["service.cached_entries"] = value{float64(snap.CachedEntries), "count", 1}

	times := selfTimes(r.tr.Snapshot())
	lay := r.rec.Layers
	var named time.Duration
	for key, t := range times {
		if key.root == rootRequest && key.name != rootRequest {
			named += t.self
			lay[key.name+"_us"] = value{float64(t.self.Nanoseconds()) / 1e3 / float64(n), "us", n}
		}
		if key.root == rootCold && key.name != rootCold {
			lay[key.name+"_ms"] = value{msOf(t.self), "ms", 1}
		}
	}
	perReq := func(d time.Duration) value { return value{float64(d.Nanoseconds()) / 1e3 / float64(n), "us", n} }
	lay["http.roundtrip_us"] = perReq(rtt)
	lay["http.other_us"] = perReq(lat - named - rtt)
	r.printSelfTimes(times, lat, rtt, n)
	if r.traceOut != "" {
		if err := writeTrace(r.tr, r.traceOut); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
	}
	return nil
}

// synthReplay synthesizes the target in-process twice — cold, then warm
// on the verdict memo the cold run filled — and holds both libraries to
// the daemon's served artifact.
func (r *runner) synthReplay(served string) error {
	lay := r.rec.Layers
	for _, root := range []string{rootCold, rootWarm} {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		text, st, err := synthesizeTraced(r.tr, root, r.w.target)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return err
		}
		if text != served {
			r.problem("%s: the in-process library differs from the daemon's artifact", root)
		}
		if root == rootWarm {
			lay["solver.memo_hits"] = value{float64(st.MemoHits), "count", 1}
			if st.BitBlasts != 0 {
				r.problem("%s ran %d bit-blasts, want 0", root, st.BitBlasts)
			}
			continue
		}
		ms := func(ns int64) value { return value{float64(ns) / 1e6, "ms", 1} }
		lay["core.enumerate_ms"] = ms(st.InstrGenNS)
		lay["canon.canonicalize_ms"] = ms(st.CanonNS)
		lay["core.test_eval_ms"] = ms(st.EvalNS)
		lay["trie.insert_ms"] = ms(st.InsertNS)
		lay["trie.lookup_cpu_ms"] = ms(st.IndexLookupNS)
		lay["core.probe_cpu_ms"] = ms(st.ProbeNS)
		lay["smt.cpu_ms"] = ms(st.SMTNS)
		lay["smt.bit_blasts"] = value{float64(st.BitBlasts), "count", 1}
		lay["sat.conflicts"] = value{float64(st.SATConflicts), "count", 1}
		lay["smt.cex_hits"] = value{float64(st.CexHits), "count", 1}
		lay["gc.alloc_mb"] = value{float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20), "MB", 1}
		lay["gc.cycles"] = value{float64(m1.NumGC - m0.NumGC), "count", 1}
		lay["gc.pause_ms"] = ms(int64(m1.PauseTotalNs - m0.PauseTotalNs))
	}
	return nil
}

// synthesizeTraced makes the calls a daemon's synthesis job makes, each
// under a child span of root, and returns the library in its persisted
// form plus the synthesizer's stage counters.
func synthesizeTraced(tr *obs.Tracer, root, target string) (string, core.StageStats, error) {
	cfg, err := targetConfig(target)
	if err != nil {
		return "", core.StageStats{}, err
	}
	top := tr.Start(root)
	defer top.End()
	sp := top.Child("spec.load")
	b := term.NewBuilder()
	tgt, err := loadTarget(target, b)
	sp.End()
	if err != nil {
		return "", core.StageStats{}, err
	}
	sp = top.Child("harness.corpus")
	pats := harness.CorpusPatterns(target, 0)
	sp.End()
	sp = top.Child("core.pool")
	syn := core.New(b, tgt, cfg)
	syn.BuildPool()
	sp.End()
	lib := rules.NewLibrary(target)
	lib.Model = cfg.CostModel
	sp = top.Child("core.match")
	partial := syn.SynthesizeCtx(context.Background(), pats, lib)
	lib.Freeze()
	sp.End()
	if partial {
		return "", core.StageStats{}, fmt.Errorf("%s: in-process synthesis came back partial", root)
	}
	sp = top.Child("isel.save")
	text := isel.SaveLibraryFor(lib, tgt)
	sp.End()
	return text, syn.Stats.Snapshot(), nil
}

// serveReplay sends p.replay reads, spread over the program pool, one at
// a time, and replays each in-process layer by layer right after the
// daemon answers it. First it times as many GET /healthz requests, which
// cross the same connection and middleware and do no work: the HTTP
// floor under every request, taken while the daemon is otherwise idle.
// It returns how many reads it replayed, their summed latency, and the
// summed floor.
func (r *runner) serveReplay(ctx context.Context, d *daemon, fp, art string, bodies [][]byte) (n int, lat, rtt time.Duration, err error) {
	b := term.NewBuilder()
	tgt, err := loadTarget(r.w.target, b)
	if err != nil {
		return 0, 0, 0, err
	}
	lib, err := isel.LoadLibrary(b, tgt, art)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("load served artifact: %w", err)
	}
	model, err := harness.CostModel(r.w.target)
	if err != nil {
		return 0, 0, 0, err
	}
	// A server of our own answers FingerprintRequest; it never synthesizes.
	sv, err := service.New(service.Config{Workers: 2, QueueDepth: 8, Synth: baseConfig()})
	if err != nil {
		return 0, 0, 0, err
	}
	defer sv.Close()
	rp := replayer{tr: r.tr, sv: sv, o: obs.New(), target: r.w.target, tgt: tgt, lib: lib, model: model}

	n = min(r.p.replay, len(bodies))
	for k := 0; k < n; k++ {
		t0 := time.Now()
		if _, err := get(ctx, r.c, d.url+"/healthz"); err != nil {
			return 0, 0, 0, fmt.Errorf("measure HTTP round trip: %w", err)
		}
		rtt += time.Since(t0)
	}
	var hooks, ruled, fallbacks int
	for k := 0; k < n; k++ {
		body := bodies[k*len(bodies)/n]
		t0 := time.Now()
		out, err := post(ctx, r.c, d.url+"/v1/select", body)
		lat += time.Since(t0)
		var served selectAnswer
		if err == nil {
			err = json.Unmarshal(out, &served)
		}
		if err != nil {
			r.count(1, 1)
			r.problem("replayed read %d: %v", k, err)
			continue
		}
		r.count(1, 0)
		got, gotFP, err := rp.replay(body)
		if err != nil {
			r.problem("replay of read %d: %v", k, err)
			continue
		}
		if gotFP != fp {
			r.problem("replay fingerprints reads as %s, the daemon as %s", gotFP, fp)
		}
		if got.Fallback != served.Fallback || got.Checksum != served.Checksum {
			r.problem("replay of read %d gave fallback=%v checksum=%s, the daemon fallback=%v checksum=%s",
				k, got.Fallback, got.Checksum, served.Fallback, served.Checksum)
		}
		if got.Fallback {
			fallbacks++
		}
		hooks += got.HookInsts
		ruled += got.RuleInsts
	}
	lay := r.rec.Layers
	lay["isel.hook_share"] = value{float64(hooks) / float64(max(1, hooks+ruled)), "ratio", n}
	lay["isel.fallback_share"] = value{float64(fallbacks) / float64(n), "ratio", n}
	return n, lat, rtt, nil
}

// replayer mirrors the daemon's program-mode /v1/select handler.
type replayer struct {
	tr     *obs.Tracer
	sv     *service.Server
	o      *obs.Obs
	target string
	tgt    *isa.Target
	lib    *rules.Library
	model  *cost.Table
}

func (rp *replayer) replay(body []byte) (service.SelectResponse, string, error) {
	var resp service.SelectResponse
	root := rp.tr.Start(rootRequest)
	defer root.End()
	sp := root.Child("http.decode")
	var req service.SelectRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	sp.End()
	if err != nil {
		return resp, "", err
	}
	sp = root.Child("service.fingerprint")
	fp, err := rp.sv.FingerprintRequest(req.Target, "", "")
	sp.End()
	if err != nil {
		return resp, "", err
	}
	sp = root.Child("isel.backend")
	bk := newBackend(rp.target, rp.tgt, rp.lib)
	bk.Obs = rp.o
	sp.End()
	sp = root.Child("fuzz.parse")
	p, err := fuzz.ParseProg(req.Program)
	var f *gmir.Function
	if err == nil {
		f, err = p.Build()
	}
	sp.End()
	if err != nil {
		return resp, fp, err
	}
	// The legalization floor the daemon applies: RV64 is 64-bit only.
	minWidth := 32
	if rp.target == "riscv" {
		minWidth = 64
	}
	sp = root.Child("gmir.legalize")
	err = gmir.Legalize(f, minWidth)
	sp.End()
	if err != nil {
		return resp, fp, err
	}
	sp = root.Child("isel.prepare")
	isel.Prepare(f, rp.target)
	sp.End()
	sp = root.Child("isel.select")
	mf, rep := bk.Select(f)
	sp.End()
	resp = service.SelectResponse{
		Target: rp.target, Workload: "program", Fingerprint: fp, Cache: "hit",
		Fallback: rep.Fallback, FallbackReason: rep.FallbackReason,
		RuleInsts: rep.RuleInsts, HookInsts: rep.HookInsts,
	}
	if !rep.Fallback {
		sp = root.Child("cost.static")
		resp.StaticCost = cost.StaticOf(mf, rp.model).String()
		resp.BinarySize = mf.BinarySize()
		sp.End()
		sp = root.Child("sim.run")
		for _, args := range fuzz.VectorsFor(vectorSeed(req.VectorSeed), p, 1) {
			out, err := (&sim.Machine{Mem: gmir.NewMemory(), Model: rp.model}).Run(mf, args)
			if err != nil {
				sp.End()
				return resp, fp, fmt.Errorf("sim: %w", err)
			}
			resp.Cycles += out.Cycles
			resp.Insts += out.Insts
			resp.Checksum = out.Ret.String()
		}
		sp.End()
	}
	sp = root.Child("http.encode")
	resp.CostVersion = rp.model.Version()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err = enc.Encode(resp)
	sp.End()
	return resp, fp, err
}

// editLayers times spec.Check on every edited spec the run sent (the
// check the daemon runs before it resolves an inline target) and takes
// the incremental-synthesis time the daemon reported for each edit.
func (r *runner) editLayers(ed editResults) {
	var checks []float64
	for _, text := range ed.specs {
		sp := r.tr.Start(rootCheck)
		t0 := time.Now()
		_, err := spec.Check(text)
		checks = append(checks, msOf(time.Since(t0)))
		sp.End()
		if err != nil {
			r.problem("edited spec fails spec.Check: %v", err)
		}
	}
	r.rec.Layers["spec.check_ms"] = value{median(checks), "ms", len(checks)}
	r.rec.Layers["incr.resynth_ms"] = value{median(ed.serverMS), "ms", len(ed.serverMS)}
}

// spanKey groups spans by the name of their trace's root and their own.
type spanKey struct{ root, name string }

type spanTime struct {
	calls int
	total time.Duration // summed span durations
	self  time.Duration // summed durations minus what child spans cover
}

// selfTimes groups spans by (root name, span name). A span's self time is
// its duration minus its children's, so the self times of one tree sum to
// its root's duration.
func selfTimes(recs []obs.SpanRecord) map[spanKey]spanTime {
	rootName := map[uint64]string{}
	children := map[uint64]time.Duration{}
	for _, s := range recs {
		if s.Parent == 0 {
			rootName[s.ID] = s.Name
		} else {
			children[s.Parent] += s.Dur
		}
	}
	out := map[spanKey]spanTime{}
	for _, s := range recs {
		k := spanKey{rootName[s.Lane], s.Name}
		t := out[k]
		t.calls++
		t.total += s.Dur
		t.self += s.Dur - children[s.ID]
		out[k] = t
	}
	return out
}

// printSelfTimes writes one self-time table per replay root, and how much
// of the traced request latency the named layers and the HTTP floor
// account for.
func (r *runner) printSelfTimes(times map[spanKey]spanTime, lat, rtt time.Duration, n int) {
	fmt.Fprintf(r.log, "\nper-layer self time (%s, traced replays)\n", r.w.name)
	tw := tabwriter.NewWriter(r.log, 2, 8, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "root\tlayer\tcalls\tself ms\tshare\t")
	for _, root := range []string{rootCold, rootWarm, rootRequest, rootCheck} {
		whole, ok := times[spanKey{root, root}]
		if !ok {
			continue
		}
		var rows []spanKey
		var sum time.Duration
		for k, t := range times {
			if k.root == root {
				rows = append(rows, k)
				sum += t.self
			}
		}
		slices.SortFunc(rows, func(a, b spanKey) int { return int(times[b].self - times[a].self) })
		for _, k := range rows {
			t := times[k]
			label := k.name
			if k.name == root && len(rows) > 1 {
				label = "(unattributed)"
			}
			fmt.Fprintf(tw, "%s\t%s\t%d\t%.3f\t%.1f%%\t\n", root, label, t.calls, msOf(t.self), 100*float64(t.self)/float64(whole.total))
		}
		fmt.Fprintf(tw, "%s\t(self times sum / root wall)\t\t%.3f\t%.1f%%\t\n", root, msOf(sum), 100*float64(sum)/float64(whole.total))
	}
	tw.Flush()
	if req, ok := times[spanKey{rootRequest, rootRequest}]; ok && n > 0 {
		named := req.total - req.self
		us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 / float64(n) }
		fmt.Fprintf(r.log, "serving: traced HTTP latency %.1f us/request = named layers %.1f + HTTP floor %.1f + other %.1f; layers and floor cover %.1f%%\n",
			us(lat), us(named), us(rtt), us(lat-named-rtt), 100*float64(named+rtt)/float64(lat))
	}
	for _, root := range []string{rootCold, rootWarm} {
		if t, ok := times[spanKey{root, root}]; ok && t.self*10 > t.total {
			fmt.Fprintf(r.log, "note: %s leaves %.1f%% of its wall time outside the named layers\n", root, 100*float64(t.self)/float64(t.total))
		}
	}
}

func writeTrace(tr *obs.Tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteTraceJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceOutFor names a workload's trace file after a user-given path:
// trace.json becomes trace-serve-rv.json.
func traceOutFor(path, workload string) string {
	return strings.TrimSuffix(path, ".json") + "-" + workload + ".json"
}
