package service

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"testing"

	"iselgen/internal/obs"
	"iselgen/internal/obs/obstest"
)

// doReq issues one request with optional extra headers and returns the
// response (body drained and closed).
func doReq(t *testing.T, method, url string, body []byte, hdr map[string]string) *http.Response {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp
}

// TestTraceHeaderMintedAndLogged: a context-less request on a sampling
// server gets a fresh, strictly valid X-Iseld-Trace response header, and
// the access-log line carries the same trace ID.
func TestTraceHeaderMintedAndLogged(t *testing.T) {
	var logBuf bytes.Buffer
	cfg := obsTestConfig()
	cfg.Logger = slog.New(slog.NewTextHandler(&logBuf, nil))
	_, ts := newTestServer(t, cfg)

	resp := doReq(t, http.MethodGet, ts.URL+"/healthz", nil, nil)
	h := resp.Header.Get(obs.TraceHeader)
	tc, err := obs.ParseTraceHeader(h)
	if err != nil {
		t.Fatalf("minted trace header %q does not parse: %v", h, err)
	}
	if !tc.Sampled {
		t.Errorf("minted trace header is unsampled: %q", h)
	}
	if !strings.Contains(logBuf.String(), "trace="+tc.TraceID.String()) {
		t.Errorf("access log missing trace field for %s:\n%s", tc.TraceID, logBuf.String())
	}
}

// TestTraceHeaderAdoptedAndRespected: a valid sampled incoming context
// is adopted (same trace ID echoed, new span ID); a valid unsampled
// context is respected — no sampling, no header echo, no log field.
func TestTraceHeaderAdoptedAndRespected(t *testing.T) {
	var logBuf bytes.Buffer
	cfg := obsTestConfig()
	cfg.Logger = slog.New(slog.NewTextHandler(&logBuf, nil))
	_, ts := newTestServer(t, cfg)

	in := obs.TraceContext{TraceID: obs.NewTraceID(), SpanID: 0xabc, Sampled: true}
	resp := doReq(t, http.MethodGet, ts.URL+"/healthz", nil,
		map[string]string{obs.TraceHeader: in.Header()})
	out, err := obs.ParseTraceHeader(resp.Header.Get(obs.TraceHeader))
	if err != nil {
		t.Fatalf("echoed header: %v", err)
	}
	if out.TraceID != in.TraceID {
		t.Errorf("sampled context not adopted: got trace %s, want %s", out.TraceID, in.TraceID)
	}
	if out.SpanID == in.SpanID {
		t.Errorf("echoed span ID equals the caller's — the server must mint its own span")
	}

	in.Sampled = false
	logBuf.Reset()
	resp = doReq(t, http.MethodGet, ts.URL+"/healthz", nil,
		map[string]string{obs.TraceHeader: in.Header()})
	if h := resp.Header.Get(obs.TraceHeader); h != "" {
		t.Errorf("unsampled request echoed a trace header %q", h)
	}
	if strings.Contains(logBuf.String(), "trace=") {
		t.Errorf("unsampled request logged a trace field:\n%s", logBuf.String())
	}
}

// TestTraceHeaderHostileMintsFresh is the middleware half of the
// hostile-header regression: whatever garbage arrives in X-Iseld-Trace,
// the response carries a freshly minted valid context — never an echo
// or derivative of the hostile value.
func TestTraceHeaderHostileMintsFresh(t *testing.T) {
	_, ts := newTestServer(t, obsTestConfig())
	valid := obs.TraceContext{TraceID: obs.NewTraceID(), SpanID: 1, Sampled: true}.Header()
	hostile := []string{
		"garbage",
		strings.ToUpper(valid),
		valid + strings.Repeat("a", 2048),
		"00-" + strings.Repeat("0", 32) + valid[35:], // zero trace ID
		strings.Repeat("!", len(valid)),
	}
	for _, h := range hostile {
		resp := doReq(t, http.MethodGet, ts.URL+"/healthz", nil,
			map[string]string{obs.TraceHeader: h})
		got := resp.Header.Get(obs.TraceHeader)
		tc, err := obs.ParseTraceHeader(got)
		if err != nil {
			t.Errorf("hostile %.40q: response header %q not valid: %v", h, got, err)
			continue
		}
		if strings.Contains(h, tc.TraceID.String()) {
			t.Errorf("hostile %.40q: response reused the hostile trace ID %s", h, tc.TraceID)
		}
	}
}

// TestTraceSampleDisabled: a negative TraceSample means this server
// never starts traces — but still honors a valid incoming context.
func TestTraceSampleDisabled(t *testing.T) {
	cfg := obsTestConfig()
	cfg.TraceSample = -1
	_, ts := newTestServer(t, cfg)

	resp := doReq(t, http.MethodGet, ts.URL+"/healthz", nil, nil)
	if h := resp.Header.Get(obs.TraceHeader); h != "" {
		t.Errorf("sampling-off server minted a trace: %q", h)
	}
	in := obs.TraceContext{TraceID: obs.NewTraceID(), SpanID: 0xabc, Sampled: true}
	resp = doReq(t, http.MethodGet, ts.URL+"/healthz", nil,
		map[string]string{obs.TraceHeader: in.Header()})
	out, err := obs.ParseTraceHeader(resp.Header.Get(obs.TraceHeader))
	if err != nil || out.TraceID != in.TraceID {
		t.Errorf("sampling-off server dropped a valid incoming context: %v err=%v", out, err)
	}
}

// TestTraceByID: a client-minted trace context flows through a
// synthesize request into the span ring, and GET /v1/trace/{traceId}
// assembles it into a strict-parsing Chrome trace whose spans include
// the request span and the detached synth flight, all correctly linked.
func TestTraceByID(t *testing.T) {
	_, ts := newTestServer(t, obsTestConfig())
	client := obs.TraceContext{TraceID: obs.NewTraceID(), SpanID: 0x5151, Sampled: true}
	body, _ := json.Marshal(SynthesizeRequest{Target: "mini", Spec: svcSpec})
	resp := doReq(t, http.MethodPost, ts.URL+"/v1/synthesize", body,
		map[string]string{obs.TraceHeader: client.Header()})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("synthesize status %d", resp.StatusCode)
	}

	// Raw span form: must satisfy the cross-node validator, with the
	// request span rooted under the client's (out-of-file) span.
	r, err := http.Get(ts.URL + "/v1/trace/" + client.TraceID.String() + "?format=spans")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("/v1/trace/{id}?format=spans status %d", r.StatusCode)
	}
	var sr TraceSpansResponse
	if err := json.NewDecoder(r.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if err := obstest.ValidateTraceSpans(sr.Spans); err != nil {
		t.Fatalf("trace spans fail validation: %v\n%+v", err, sr.Spans)
	}
	names := map[string]uint64{}
	for _, s := range sr.Spans {
		names[s.Name] = s.SpanID
		if s.Name == "http POST /v1/synthesize" && s.Parent != client.SpanID {
			t.Errorf("request span parent %016x, want client span %016x", s.Parent, client.SpanID)
		}
	}
	for _, want := range []string{"http POST /v1/synthesize", "synth flight", "spec/load"} {
		if names[want] == 0 {
			t.Errorf("trace missing span %q; have %v", want, names)
		}
	}
	for _, s := range sr.Spans {
		if s.Name == "spec/load" && s.Parent != names["synth flight"] {
			t.Errorf("spec/load parents under %016x, want the synth flight %016x", s.Parent, names["synth flight"])
		}
	}

	// Assembled form: strict Chrome-trace parse.
	r2, err := http.Get(ts.URL + "/v1/trace/" + client.TraceID.String())
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	data, _ := io.ReadAll(r2.Body)
	pt, err := obstest.ParseTraceFile(data)
	if err != nil {
		t.Fatalf("assembled trace fails strict parse: %v\n%s", err, data)
	}
	if pt.Spans != len(sr.Spans) || pt.Roots != 1 {
		t.Errorf("parsed trace %+v, want %d spans and 1 root", pt, len(sr.Spans))
	}

	// JSON metrics expose the trace ID as a latency-bucket exemplar.
	m := getMetrics(t, ts.URL)
	var found bool
	for _, ex := range m.TraceExemplars {
		if ex.Metric == "http_request_duration_ns" && ex.TraceID == client.TraceID.String() {
			found = true
		}
	}
	if !found {
		t.Errorf("trace_exemplars missing %s: %+v", client.TraceID, m.TraceExemplars)
	}

	// Error surface: malformed ID is 400, unknown ID 404, no tracer 404.
	if r := doReq(t, http.MethodGet, ts.URL+"/v1/trace/nope", nil, nil); r.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed trace ID: status %d, want 400", r.StatusCode)
	}
	if r := doReq(t, http.MethodGet, ts.URL+"/v1/trace/"+obs.NewTraceID().String(), nil, nil); r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown trace ID: status %d, want 404", r.StatusCode)
	}
	_, plain := newTestServer(t, testConfig())
	if r := doReq(t, http.MethodGet, plain.URL+"/v1/trace/"+obs.NewTraceID().String(), nil, nil); r.StatusCode != http.StatusNotFound {
		t.Errorf("traceless server: status %d, want 404", r.StatusCode)
	}
}
