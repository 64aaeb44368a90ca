package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"iselgen/internal/core"
	"iselgen/internal/isa"
	"iselgen/internal/term"
)

// svcSpec is a small single-width ISA, rich enough that the benchmark
// corpus yields both index-proven and SMT-proven rules, small enough
// that a full synthesis runs in well under a second.
const svcSpec = `
inst ADDrr(rn: reg64, rm: reg64) { rd = rn + rm; }
inst SUBrr(rn: reg64, rm: reg64) { rd = rn - rm; }
inst ADDri(rn: reg64, imm: imm12) { rd = rn + zext(imm, 64); }
inst LSLri(rn: reg64, sh: imm6) { rd = rn << zext(sh, 64); }
inst ANDrr(rn: reg64, rm: reg64) { rd = rn & rm; }
inst ORNrr(rn: reg64, rm: reg64) { rd = rn | ~rm; }
inst MVNr(rm: reg64) { rd = ~rm; }
inst MULrr(rn: reg64, rm: reg64) { rd = rn * rm; }
inst MOVZ(imm: imm16) { rd = zext(imm, 64); }
`

func testConfig() Config {
	return Config{
		Workers:     2,
		QueueDepth:  4,
		Synth:       core.Config{TestInputs: 16, Workers: 2, SMTMaxConflicts: 64},
		MaxPatterns: 10,
	}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	sv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(sv.Handler())
	t.Cleanup(func() {
		ts.Close()
		sv.Close()
	})
	return sv, ts
}

func postJSON(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func getMetrics(t *testing.T, base string) MetricsSnapshot {
	t.Helper()
	resp, err := http.Get(base + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

func decodeSynth(t *testing.T, body []byte) SynthesizeResponse {
	t.Helper()
	var sr SynthesizeResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatalf("bad synthesize response %s: %v", body, err)
	}
	return sr
}

// TestSingleflightConcurrent is acceptance (a): two concurrent
// synthesize requests for the same target run synthesis exactly once,
// and both get the library.
func TestSingleflightConcurrent(t *testing.T) {
	sv, ts := newTestServer(t, testConfig())
	gate := make(chan struct{})
	sv.testJobGate = func() { <-gate }

	req := SynthesizeRequest{Target: "mini", Spec: svcSpec}
	type result struct {
		status int
		resp   SynthesizeResponse
	}
	results := make(chan result, 2)
	for i := 0; i < 2; i++ {
		go func() {
			status, body := postJSON(t, ts.URL+"/v1/synthesize", req)
			results <- result{status, decodeSynth(t, body)}
		}()
	}

	// Wait until one request owns the (gated) job and the other has
	// joined its flight, then let the job run.
	deadline := time.Now().Add(10 * time.Second)
	for getMetrics(t, ts.URL).Joins < 1 {
		if time.Now().After(deadline) {
			t.Fatal("second request never joined the in-flight synthesis")
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(gate)

	var got [2]result
	for i := range got {
		got[i] = <-results
	}
	caches := map[string]int{}
	for _, g := range got {
		if g.status != http.StatusOK {
			t.Fatalf("status %d, want 200", g.status)
		}
		if g.resp.Rules == 0 {
			t.Error("empty library returned")
		}
		if g.resp.Partial {
			t.Error("unexpected partial result")
		}
		caches[g.resp.Cache]++
	}
	if got[0].resp.Fingerprint != got[1].resp.Fingerprint {
		t.Errorf("fingerprints differ: %s vs %s", got[0].resp.Fingerprint, got[1].resp.Fingerprint)
	}
	if caches["miss"] != 1 || caches["join"] != 1 {
		t.Errorf("cache paths = %v, want one miss and one join", caches)
	}
	if m := getMetrics(t, ts.URL); m.SynthRuns != 1 {
		t.Errorf("synthesis ran %d times, want exactly 1", m.SynthRuns)
	}
}

// TestCacheHitAndMetrics is acceptance (b) and (e): a second request
// after completion is a cache hit served without re-synthesis, and the
// metrics endpoint reports a nonzero hit count and per-stage timings.
func TestCacheHitAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	req := SynthesizeRequest{Target: "mini", Spec: svcSpec}

	status, body := postJSON(t, ts.URL+"/v1/synthesize", req)
	if status != http.StatusOK {
		t.Fatalf("first request: status %d: %s", status, body)
	}
	first := decodeSynth(t, body)
	if first.Cache != "miss" {
		t.Errorf("first request cache = %q, want miss", first.Cache)
	}

	status, body = postJSON(t, ts.URL+"/v1/synthesize", req)
	if status != http.StatusOK {
		t.Fatalf("second request: status %d: %s", status, body)
	}
	second := decodeSynth(t, body)
	if second.Cache != "hit" {
		t.Errorf("second request cache = %q, want hit", second.Cache)
	}
	if second.Rules != first.Rules || second.Fingerprint != first.Fingerprint {
		t.Errorf("cache hit returned a different library: %+v vs %+v", second, first)
	}

	m := getMetrics(t, ts.URL)
	if m.SynthRuns != 1 {
		t.Errorf("synth_runs = %d, want 1 (second request must not re-synthesize)", m.SynthRuns)
	}
	if m.CacheHits == 0 {
		t.Error("cache_hits = 0 after a served hit")
	}
	if m.CachedEntries != 1 {
		t.Errorf("cached_entries = %d, want 1", m.CachedEntries)
	}
	if m.Stages.InstrGenNS <= 0 || m.Stages.EvalNS <= 0 || m.Stages.LookupWallNS <= 0 {
		t.Errorf("per-stage timings not reported: %+v", m.Stages)
	}
	if m.Stages.Sequences == 0 || m.Stages.Patterns == 0 {
		t.Errorf("per-stage counters not reported: %+v", m.Stages)
	}
}

// TestDeadlinePartial is acceptance (c): a deadline-limited request
// still answers 200 with partial=true and only index-proven rules (the
// solver is never consulted once the budget is spent).
func TestDeadlinePartial(t *testing.T) {
	cfg := testConfig()
	cfg.MaxPatterns = 0 // full corpus, so seed patterns are included
	// Pool construction runs under the job deadline; holding stage 1 past
	// the 1ms budget guarantees the matching pass starts with the deadline
	// already expired — deterministic degradation. (Stage 1 used to burn
	// the budget by itself via eager test evaluation; digests are lazy
	// now, so the stall is explicit.)
	cfg.Synth.ExtraSequences = func(b *term.Builder, tgt *isa.Target) []*isa.Sequence {
		time.Sleep(10 * time.Millisecond)
		return nil
	}
	_, ts := newTestServer(t, cfg)

	req := SynthesizeRequest{Target: "mini", Spec: svcSpec, TimeoutMS: 1}
	status, body := postJSON(t, ts.URL+"/v1/synthesize", req)
	if status != http.StatusOK {
		t.Fatalf("status %d, want 200: %s", status, body)
	}
	sr := decodeSynth(t, body)
	if !sr.Partial {
		t.Fatal("deadline-limited request did not report partial=true")
	}
	if sr.Rules == 0 {
		t.Error("partial library has no rules; index-proven rules expected")
	}
	if n := sr.BySource["smt"]; n != 0 {
		t.Errorf("partial library contains %d smt rules, want none", n)
	}
	if sr.BySource["index"] != sr.Rules {
		t.Errorf("by_source %v does not account for all %d rules as index-proven", sr.BySource, sr.Rules)
	}
	if sr.Stats.SMTQueries != 0 {
		t.Errorf("solver consulted %d times under an expired budget", sr.Stats.SMTQueries)
	}
	m := getMetrics(t, ts.URL)
	if m.PartialResults != 1 {
		t.Errorf("partial_results = %d, want 1", m.PartialResults)
	}
	if m.CachedEntries != 0 {
		t.Errorf("partial result was cached (%d entries); partial entries must never be cached", m.CachedEntries)
	}
}

// TestQueueFullBackpressure is acceptance (d): with one busy worker and
// a single queue slot occupied, the next synthesis request answers 429.
func TestQueueFullBackpressure(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 1
	cfg.QueueDepth = 1
	sv, ts := newTestServer(t, cfg)

	started := make(chan struct{}, 3)
	release := make(chan struct{})
	var once sync.Once
	releaseAll := func() { once.Do(func() { close(release) }) }
	sv.testJobGate = func() {
		started <- struct{}{}
		<-release
	}
	// Unblock gated jobs even on a failing path: Cleanup drains the
	// scheduler and would otherwise hang on them.
	defer releaseAll()

	specFor := func(i int) SynthesizeRequest {
		return SynthesizeRequest{Target: fmt.Sprintf("t%d", i), Spec: svcSpec}
	}
	done := make(chan int, 2)
	go func() {
		status, _ := postJSON(t, ts.URL+"/v1/synthesize", specFor(1))
		done <- status
	}()
	<-started // job 1 occupies the only worker

	go func() {
		status, _ := postJSON(t, ts.URL+"/v1/synthesize", specFor(2))
		done <- status
	}()
	// Wait for job 2 to be sitting in the (now full) queue.
	deadline := time.Now().Add(10 * time.Second)
	for getMetrics(t, ts.URL).QueueDepth != 1 {
		if time.Now().After(deadline) {
			t.Fatal("second job never queued")
		}
		time.Sleep(2 * time.Millisecond)
	}

	status, body := postJSON(t, ts.URL+"/v1/synthesize", specFor(3))
	if status != http.StatusTooManyRequests {
		t.Fatalf("full queue answered %d, want 429: %s", status, body)
	}
	if !strings.Contains(string(body), "queue full") {
		t.Errorf("429 body does not explain backpressure: %s", body)
	}
	if m := getMetrics(t, ts.URL); m.JobsRejected != 1 {
		t.Errorf("jobs_rejected = %d, want 1", m.JobsRejected)
	}

	releaseAll()
	for i := 0; i < 2; i++ {
		if status := <-done; status != http.StatusOK {
			t.Errorf("blocked request %d finished with status %d, want 200", i, status)
		}
	}
}

// TestSynthesisPanicAnswers500: a panic inside a synthesis job fails
// that flight with a 500, counted as an error, and leaves the daemon
// serving: the next request for the same fingerprint synthesizes.
func TestSynthesisPanicAnswers500(t *testing.T) {
	sv, ts := newTestServer(t, testConfig())
	var jobs atomic.Int32
	sv.testJobGate = func() {
		if jobs.Add(1) == 1 {
			panic("injected synthesis fault")
		}
	}
	req := SynthesizeRequest{Target: "mini", Spec: svcSpec}
	status, body := postJSON(t, ts.URL+"/v1/synthesize", req)
	if status != http.StatusInternalServerError || !strings.Contains(string(body), "injected synthesis fault") {
		t.Fatalf("panicking job answered %d: %s", status, body)
	}
	if m := getMetrics(t, ts.URL); m.Errors != 1 || m.CachedEntries != 0 {
		t.Errorf("errors=%d cached_entries=%d after the panic, want 1 and 0", m.Errors, m.CachedEntries)
	}
	status, body = postJSON(t, ts.URL+"/v1/synthesize", req)
	if status != http.StatusOK {
		t.Fatalf("retry after the panic: status %d: %s", status, body)
	}
	if sr := decodeSynth(t, body); sr.Cache != "miss" || sr.Rules == 0 {
		t.Errorf("retry: cache=%q rules=%d, want a fresh synthesis", sr.Cache, sr.Rules)
	}
}

// TestDiskLayer proves the persistence round-trip end to end: a second
// server sharing the cache directory serves the artifact from disk
// (re-verified on load) without running synthesis.
func TestDiskLayer(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	cfg.CacheDir = dir

	sv1, ts1 := newTestServer(t, cfg)
	req := SynthesizeRequest{Target: "mini", Spec: svcSpec}
	status, body := postJSON(t, ts1.URL+"/v1/synthesize", req)
	if status != http.StatusOK {
		t.Fatalf("seed synthesis: status %d: %s", status, body)
	}
	first := decodeSynth(t, body)
	// Artifacts persist asynchronously (and fsync before the rename);
	// wait for the write so the second server finds it.
	if err := sv1.store.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}

	_, ts2 := newTestServer(t, cfg)
	status, body = postJSON(t, ts2.URL+"/v1/synthesize", req)
	if status != http.StatusOK {
		t.Fatalf("disk load: status %d: %s", status, body)
	}
	second := decodeSynth(t, body)
	if second.Cache != "disk" {
		t.Errorf("cache = %q, want disk", second.Cache)
	}
	if second.Rules != first.Rules {
		t.Errorf("disk layer returned %d rules, synthesis produced %d", second.Rules, first.Rules)
	}
	m := getMetrics(t, ts2.URL)
	if m.SynthRuns != 0 || m.DiskHits != 1 {
		t.Errorf("synth_runs=%d disk_hits=%d, want 0 and 1", m.SynthRuns, m.DiskHits)
	}
}

// TestSelectEndpoint lowers a benchmark workload through a synthesized
// builtin backend and checks the simulator stats come back.
func TestSelectEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("full riscv synthesis in short mode")
	}
	cfg := testConfig()
	cfg.Synth = core.Config{Workers: 4}
	cfg.MaxPatterns = 0
	_, ts := newTestServer(t, cfg)

	req := SelectRequest{Target: "riscv", Workload: "x264_sad", Emit: "mir"}
	status, body := postJSON(t, ts.URL+"/v1/select", req)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var sel SelectResponse
	if err := json.Unmarshal(body, &sel); err != nil {
		t.Fatalf("bad select response: %v", err)
	}
	if sel.Fallback {
		t.Fatalf("selection fell back: %s", sel.FallbackReason)
	}
	if sel.RuleInsts == 0 {
		t.Error("no instructions covered by synthesized rules")
	}
	if sel.Cycles == 0 || sel.Insts == 0 {
		t.Errorf("simulator stats missing: cycles=%d insts=%d", sel.Cycles, sel.Insts)
	}
	if sel.Checksum == "" || sel.MIR == "" {
		t.Error("checksum or emitted MIR missing")
	}
	// A second select reuses the cached library.
	status, body = postJSON(t, ts.URL+"/v1/select", SelectRequest{Target: "riscv", Workload: "mcf_relax"})
	if status != http.StatusOK {
		t.Fatalf("second select: status %d: %s", status, body)
	}
	if m := getMetrics(t, ts.URL); m.SynthRuns != 1 || m.CacheHits != 1 || m.Selections != 2 {
		t.Errorf("synth_runs=%d cache_hits=%d selections=%d, want 1/1/2", m.SynthRuns, m.CacheHits, m.Selections)
	}

	// emit="bytes" assembles the selection through the spec-derived
	// encoder: hex code plus a decoded listing, one line per instruction.
	status, body = postJSON(t, ts.URL+"/v1/select",
		SelectRequest{Target: "riscv", Workload: "x264_sad", Emit: "bytes"})
	if status != http.StatusOK {
		t.Fatalf("emit=bytes: status %d: %s", status, body)
	}
	sel = SelectResponse{}
	if err := json.Unmarshal(body, &sel); err != nil {
		t.Fatalf("bad emit=bytes response: %v", err)
	}
	if sel.Bytes == "" || len(sel.Listing) == 0 {
		t.Fatalf("emit=bytes returned no code: bytes=%q listing=%d", sel.Bytes, len(sel.Listing))
	}
	if len(sel.Bytes)%2 != 0 {
		t.Errorf("bytes is not even-length hex: %q", sel.Bytes)
	}
	if sel.MIR != "" {
		t.Error("emit=bytes also returned MIR text")
	}

	// The legacy boolean emit form still means "mir".
	status, body = postJSON(t, ts.URL+"/v1/select",
		map[string]any{"target": "riscv", "workload": "x264_sad", "emit": true})
	if status != http.StatusOK {
		t.Fatalf("emit=true: status %d: %s", status, body)
	}
	sel = SelectResponse{}
	if err := json.Unmarshal(body, &sel); err != nil {
		t.Fatalf("bad emit=true response: %v", err)
	}
	if sel.MIR == "" || sel.Bytes != "" {
		t.Errorf("legacy emit=true: mir=%d bytes=%q, want MIR only", len(sel.MIR), sel.Bytes)
	}

	// An unknown emit mode is a 400.
	status, body = postJSON(t, ts.URL+"/v1/select",
		map[string]any{"target": "riscv", "workload": "x264_sad", "emit": "elf"})
	if status != http.StatusBadRequest {
		t.Errorf("emit=elf: status %d, want 400 (%s)", status, body)
	}
}

// TestBadRequests exercises the error paths: unknown target, malformed
// inline spec, unknown workload, select on a backend-less target, and a
// workload scale past the cap.
func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	cases := []struct {
		path string
		body any
	}{
		{"/v1/synthesize", SynthesizeRequest{Target: "pdp11"}},
		{"/v1/synthesize", SynthesizeRequest{}},
		{"/v1/synthesize", SynthesizeRequest{Target: "aarch64", Spec: "inst bad { }"}},
		{"/v1/synthesize", SynthesizeRequest{Spec: "inst Broken(rn: reg64) { rd = rn +; }"}},
		{"/v1/select", SelectRequest{Target: "x86", Workload: "x264_sad"}},
		{"/v1/select", SelectRequest{Target: "riscv", Workload: "nope"}},
		{"/v1/select", SelectRequest{Target: "riscv", Workload: "x264_sad", Scale: maxWorkloadScale + 1}},
	}
	for _, c := range cases {
		status, body := postJSON(t, ts.URL+c.path, c.body)
		if status != http.StatusBadRequest {
			t.Errorf("%s %+v: status %d, want 400 (%s)", c.path, c.body, status, body)
		}
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status %d", resp.StatusCode)
	}
}

// TestSelectorFieldRemoved pins the retired selector axis: request
// bodies that still carry "selector" meet the strict decoder's 400,
// responses carry no "selector" key, and FingerprintRequest accepts only
// an empty selector, which resolves to the fingerprint actually served.
func TestSelectorFieldRemoved(t *testing.T) {
	sv, ts := newTestServer(t, testConfig())
	for path, body := range map[string]map[string]any{
		"/v1/select":       {"target": "riscv", "program": apiProg, "selector": "greedy"},
		"/v1/select/batch": {"target": "riscv", "programs": []string{apiProg}, "selector": "greedy"},
	} {
		if status, raw := postJSON(t, ts.URL+path, body); status != http.StatusBadRequest {
			t.Errorf("%s with selector: status %d, want 400 (%s)", path, status, raw)
		}
	}

	var fp string
	for path, body := range map[string]any{
		"/v1/select":       SelectRequest{Target: "riscv", Program: apiProg},
		"/v1/select/batch": BatchSelectRequest{Target: "riscv", Programs: []string{apiProg}},
	} {
		status, raw := postJSON(t, ts.URL+path, body)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, status, raw)
		}
		var m map[string]json.RawMessage
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatal(err)
		}
		if _, ok := m["selector"]; ok {
			t.Errorf("%s response still carries a selector key: %s", path, raw)
		}
		if err := json.Unmarshal(m["fingerprint"], &fp); err != nil {
			t.Fatal(err)
		}
	}

	if _, err := sv.FingerprintRequest("riscv", "", "optimal"); err == nil {
		t.Error(`FingerprintRequest accepted selector "optimal"`)
	}
	got, err := sv.FingerprintRequest("riscv", "", "")
	if err != nil {
		t.Fatal(err)
	}
	if got != fp {
		t.Errorf("FingerprintRequest = %s, served fingerprint %s", got, fp)
	}
}
