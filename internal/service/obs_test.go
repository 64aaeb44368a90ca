package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"testing"

	"iselgen/internal/obs"
)

func obsTestConfig() Config {
	cfg := testConfig()
	cfg.Obs = obs.New()
	return cfg
}

// TestPromEndpoint is the acceptance check for GET /metrics: after real
// traffic, the exposition must carry the right Content-Type and pass
// the strict Prometheus text-format parser, with the service gauges and
// the request histogram present.
func TestPromEndpoint(t *testing.T) {
	_, ts := newTestServer(t, obsTestConfig())

	status, _ := postJSON(t, ts.URL+"/v1/synthesize", SynthesizeRequest{Target: "mini", Spec: svcSpec})
	if status != http.StatusOK {
		t.Fatalf("synthesize status %d", status)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	fams, err := obs.ParseProm(string(body))
	if err != nil {
		t.Fatalf("/metrics failed Prometheus text parse: %v\n%s", err, body)
	}
	for _, want := range []string{
		"iseld_synth_runs", "iseld_queue_depth", "iseld_uptime_seconds",
		"http_requests_total", "http_request_duration_ns",
	} {
		if fams[want] == nil {
			t.Errorf("/metrics missing family %q", want)
		}
	}
	// The synthesize request must be visible in the request counter.
	var counted bool
	for _, s := range fams["http_requests_total"].Samples {
		if s.Labels["path"] == "/v1/synthesize" && s.Labels["status"] == "200" && s.Value >= 1 {
			counted = true
		}
	}
	if !counted {
		t.Errorf("http_requests_total has no sample for the synthesize request: %+v",
			fams["http_requests_total"].Samples)
	}
	if v := fams["iseld_synth_runs"].Samples[0].Value; v != 1 {
		t.Errorf("iseld_synth_runs = %v, want 1", v)
	}

	// The default exposition must stay strictly 0.0.4-consumable: a
	// classic Prometheus scraper rejects the whole scrape on an exemplar
	// annotation, so none may appear without the opt-in.
	if bytes.Contains(body, []byte(" # {")) {
		t.Errorf("/metrics leaked exemplar annotations without ?exemplars=1:\n%s", body)
	}

	// The opt-in form switches to OpenMetrics-style exposition with
	// exemplar annotations and a # EOF terminator, and still parses.
	resp2, err := http.Get(ts.URL + "/metrics?exemplars=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if ct := resp2.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/openmetrics-text") {
		t.Errorf("?exemplars=1 Content-Type = %q", ct)
	}
	body2, err := io.ReadAll(resp2.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(bytes.TrimSpace(body2), []byte("# EOF")) {
		t.Errorf("?exemplars=1 output missing # EOF terminator")
	}
	if _, err := obs.ParseProm(string(body2)); err != nil {
		t.Fatalf("?exemplars=1 output failed strict parse: %v\n%s", err, body2)
	}
}

// TestTraceEndpoint: GET /v1/trace returns Chrome trace-event JSON
// containing the per-request and synthesis spans.
func TestTraceEndpoint(t *testing.T) {
	_, ts := newTestServer(t, obsTestConfig())
	if status, _ := postJSON(t, ts.URL+"/v1/synthesize", SynthesizeRequest{Target: "mini", Spec: svcSpec}); status != http.StatusOK {
		t.Fatalf("synthesize status %d", status)
	}

	resp, err := http.Get(ts.URL + "/v1/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/trace status %d", resp.StatusCode)
	}
	var f obs.TraceFile
	if err := json.NewDecoder(resp.Body).Decode(&f); err != nil {
		t.Fatalf("/v1/trace is not valid trace JSON: %v", err)
	}
	names := map[string]bool{}
	for _, ev := range f.TraceEvents {
		if ev.Ph != "X" {
			t.Errorf("event ph = %q, want X", ev.Ph)
		}
		names[ev.Name] = true
	}
	for _, want := range []string{"http POST /v1/synthesize", "synth/pool", "synth/match"} {
		if !names[want] {
			t.Errorf("trace missing span %q; have %v", want, names)
		}
	}
}

// TestTraceEndpointDisabled: without a tracer, /v1/trace is 404, not a
// crash or an empty 200.
func TestTraceEndpointDisabled(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	resp, err := http.Get(ts.URL + "/v1/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/v1/trace without tracer: status %d, want 404", resp.StatusCode)
	}
}

// TestRequestIDAndAccessLog: every response carries X-Request-Id, IDs
// are distinct per request, and the structured access log carries the
// same ID with method/path/status.
func TestRequestIDAndAccessLog(t *testing.T) {
	var logBuf bytes.Buffer
	cfg := obsTestConfig()
	cfg.Logger = slog.New(slog.NewTextHandler(&logBuf, nil))
	_, ts := newTestServer(t, cfg)

	ids := map[string]bool{}
	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		id := resp.Header.Get("X-Request-Id")
		if !strings.HasPrefix(id, "req-") {
			t.Fatalf("X-Request-Id = %q", id)
		}
		ids[id] = true
	}
	if len(ids) != 3 {
		t.Errorf("request IDs not distinct: %v", ids)
	}
	logText := logBuf.String()
	for id := range ids {
		if !strings.Contains(logText, "id="+id) {
			t.Errorf("access log missing line for %s:\n%s", id, logText)
		}
	}
	if !strings.Contains(logText, "path=/healthz") || !strings.Contains(logText, "status=200") {
		t.Errorf("access log missing path/status fields:\n%s", logText)
	}
}

// TestMetricsUptimeBuildAndSAT: the JSON /v1/metrics surface reports
// uptime, build identity, and (after a synthesis) the SAT work counters
// inside the accumulated stage stats.
func TestMetricsUptimeBuildAndSAT(t *testing.T) {
	cfg := obsTestConfig()
	// Small corpora resolve entirely through the term index; disable it
	// so patterns take the SMT fallback and exercise the solver counters.
	cfg.Synth.DisableIndex = true
	_, ts := newTestServer(t, cfg)
	if status, _ := postJSON(t, ts.URL+"/v1/synthesize", SynthesizeRequest{Target: "mini", Spec: svcSpec}); status != http.StatusOK {
		t.Fatalf("synthesize status %d", status)
	}

	m := getMetrics(t, ts.URL)
	if m.UptimeSec < 0 {
		t.Errorf("uptime_sec = %v", m.UptimeSec)
	}
	if m.Build.GoVersion == "" {
		t.Errorf("build info missing go_version: %+v", m.Build)
	}
	if m.Stages.SMTQueries == 0 {
		t.Errorf("stage stats show no SMT queries after synthesis: %+v", m.Stages)
	}
	if m.Stages.SATPropagations == 0 {
		t.Errorf("SAT propagation counter did not flow into stage stats: %+v", m.Stages)
	}
}

// TestPprofMounted: the pprof index responds (the profile handlers hang
// off the same mux registration).
func TestPprofMounted(t *testing.T) {
	_, ts := newTestServer(t, obsTestConfig())
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/ status %d", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	if !bytes.Contains(body, []byte("goroutine")) {
		t.Errorf("pprof index does not look like pprof output")
	}
}

// requestSeries scrapes /metrics and returns one sample per request
// series: each http_requests_total counter and each
// http_request_duration_ns histogram (by its _count line, since bucket
// lines come and go with the slowest observation). The scrapes' own
// path="/metrics" series are left out.
func requestSeries(t *testing.T, base string) []obs.PromSample {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	fams, err := obs.ParseProm(string(body))
	if err != nil {
		t.Fatalf("/metrics failed strict parse: %v", err)
	}
	var out []obs.PromSample
	for _, name := range []string{"http_requests_total", "http_request_duration_ns"} {
		if fams[name] == nil {
			continue
		}
		for _, s := range fams[name].Samples {
			if s.Labels["path"] != "/metrics" && (s.Name == name || s.Name == name+"_count") {
				out = append(out, s)
			}
		}
	}
	return out
}

// TestRequestMetricsBoundedByRoute: request metrics are labelled by the
// matched route, not the raw path, so job polls, unknown job IDs and
// made-up 404 paths add no series once each route and status has been
// seen.
func TestRequestMetricsBoundedByRoute(t *testing.T) {
	_, ts := newTestServer(t, obsTestConfig())
	status, body := postJSON(t, ts.URL+"/v1/jobs", SynthesizeRequest{Target: "mini", Spec: svcSpec})
	if status != http.StatusAccepted {
		t.Fatalf("submit: %d %s", status, body)
	}
	var sub JobSubmitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	round := func(i int) {
		for _, path := range []string{
			sub.Poll,
			fmt.Sprintf("/v1/jobs/job-%06d", 900000+i),
			fmt.Sprintf("/no/such/path/%d", i),
		} {
			doReq(t, http.MethodGet, ts.URL+path, nil, nil)
		}
	}
	round(0)
	before := len(requestSeries(t, ts.URL))
	for i := 1; i <= 50; i++ {
		round(i)
	}
	after := requestSeries(t, ts.URL)
	if len(after) != before {
		t.Errorf("request metrics grew from %d to %d series over 150 distinct-path requests", before, len(after))
	}
	paths := map[string]bool{}
	for _, s := range after {
		paths[s.Labels["path"]] = true
	}
	for _, want := range []string{"/v1/jobs", "/v1/jobs/{id}", "unmatched"} {
		if !paths[want] {
			t.Errorf("no request series labelled path=%q; have %v", want, paths)
		}
	}
}
