package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// apiProg is a fixed straight-line program in the fuzz corpus text form.
const apiProg = "v0 = param 64\nv1 = param 64\nv2 = add 64 v0 v1\nv3 = add 64 v2 v0\nret v3\n"

// TestSelectEmitLegacyBooleanCompat pins the wire compatibility of the
// select emit knob: the legacy boolean forms must keep working verbatim
// alongside the string modes.
func TestSelectEmitLegacyBooleanCompat(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	cases := []struct {
		emit    any
		wantMIR bool
	}{
		{true, true},
		{false, false},
		{"mir", true},
		{"", false},
		{nil, false},
	}
	for _, tc := range cases {
		body := map[string]any{"target": "riscv", "program": apiProg}
		if tc.emit != nil {
			body["emit"] = tc.emit
		}
		status, raw := postJSON(t, ts.URL+"/v1/select", body)
		if status != http.StatusOK {
			t.Fatalf("emit=%v: status %d: %s", tc.emit, status, raw)
		}
		var sr SelectResponse
		if err := json.Unmarshal(raw, &sr); err != nil {
			t.Fatal(err)
		}
		if sr.Fallback {
			t.Fatalf("emit=%v: selection fell back: %s", tc.emit, sr.FallbackReason)
		}
		if got := sr.MIR != ""; got != tc.wantMIR {
			t.Fatalf("emit=%v: mir present=%v, want %v", tc.emit, got, tc.wantMIR)
		}
	}
	// Unknown emit strings stay a 400, not a silent default.
	status, raw := postJSON(t, ts.URL+"/v1/select",
		map[string]any{"target": "riscv", "program": apiProg, "emit": "asm"})
	if status != http.StatusBadRequest {
		t.Fatalf("emit=asm answered %d (%s), want 400", status, raw)
	}
}

// TestBatchSelect drives /v1/select/batch: per-program results in
// order, deterministic across identical requests, and consistent with
// the single-program endpoint.
func TestBatchSelect(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	req := BatchSelectRequest{
		Target:     "riscv",
		Programs:   []string{apiProg, "v0 = param 64\nv1 = param 64\nv2 = add 64 v1 v0\nret v2\n", "this is not a program"},
		VectorSeed: 7,
		Vectors:    2,
	}
	status, body := postJSON(t, ts.URL+"/v1/select/batch", req)
	if status != http.StatusOK {
		t.Fatalf("batch: %d %s", status, body)
	}
	var br BatchSelectResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if br.Programs != 3 || len(br.Results) != 3 {
		t.Fatalf("programs=%d results=%d, want 3", br.Programs, len(br.Results))
	}
	if br.Failed != 1 || br.Results[2].Error == "" {
		t.Fatalf("malformed program not reported: failed=%d results[2]=%+v", br.Failed, br.Results[2])
	}
	if br.Selected != 2 || br.Results[0].Error != "" || br.Results[1].Error != "" {
		t.Fatalf("valid programs failed: %+v", br.Results)
	}
	if len(br.Results[0].Checksums) == 0 {
		t.Fatal("no simulation checksums for program 0")
	}

	// Deterministic on repeat: apart from the cache field (miss vs hit,
	// per-replica acquisition provenance), the body is byte-identical.
	status2, body2 := postJSON(t, ts.URL+"/v1/select/batch", req)
	if status2 != http.StatusOK {
		t.Fatalf("second batch: %d", status2)
	}
	norm := func(b []byte) string {
		var m map[string]json.RawMessage
		if err := json.Unmarshal(b, &m); err != nil {
			t.Fatal(err)
		}
		delete(m, "cache")
		out, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return string(out)
	}
	if a, b := norm(body), norm(body2); a != b {
		t.Fatalf("batch not deterministic:\n%s\n---\n%s", a, b)
	}

	// The single-program endpoint agrees with a one-vector batch element
	// on every field the two answers share.
	status, one := postJSON(t, ts.URL+"/v1/select/batch",
		BatchSelectRequest{Target: "riscv", Programs: []string{apiProg}, VectorSeed: 7, Emit: "mir"})
	if status != http.StatusOK {
		t.Fatalf("one-vector batch: %d %s", status, one)
	}
	var b1 BatchSelectResponse
	if err := json.Unmarshal(one, &b1); err != nil {
		t.Fatal(err)
	}
	status, single := postJSON(t, ts.URL+"/v1/select",
		SelectRequest{Target: "riscv", Program: apiProg, VectorSeed: 7, Emit: "mir"})
	if status != http.StatusOK {
		t.Fatalf("single select: %d %s", status, single)
	}
	var sr SelectResponse
	if err := json.Unmarshal(single, &sr); err != nil {
		t.Fatal(err)
	}
	pr := b1.Results[0]
	if len(pr.Checksums) != 1 {
		t.Fatalf("one-vector batch answered %d checksums", len(pr.Checksums))
	}
	type shared struct {
		Fallback                   bool
		FallbackReason, StaticCost string
		RuleInsts, HookInsts, Size int
		Cycles, Insts              int64
		Checksum, MIR              string
	}
	fromSingle := shared{sr.Fallback, sr.FallbackReason, sr.StaticCost, sr.RuleInsts, sr.HookInsts,
		sr.BinarySize, sr.Cycles, sr.Insts, sr.Checksum, sr.MIR}
	fromBatch := shared{pr.Fallback, pr.FallbackReason, pr.StaticCost, pr.RuleInsts, pr.HookInsts,
		pr.BinarySize, pr.Cycles, pr.Insts, pr.Checksums[0], pr.MIR}
	if fromSingle != fromBatch {
		t.Fatalf("single and batch disagree:\nsingle %+v\nbatch  %+v", fromSingle, fromBatch)
	}
	if fromSingle.RuleInsts == 0 || fromSingle.Cycles == 0 || fromSingle.MIR == "" {
		t.Fatalf("shared fields left empty: %+v", fromSingle)
	}

	m := getMetrics(t, ts.URL)
	if m.BatchPrograms != 7 {
		t.Fatalf("batch_programs=%d, want 7", m.BatchPrograms)
	}
}

// TestBatchSelectRejects pins the batch endpoint's validation, plus the
// program-mode emit=bytes case the single endpoint shares with it.
func TestBatchSelectRejects(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	for _, tc := range []struct {
		path string
		req  any
		want int
	}{
		{"/v1/select/batch", BatchSelectRequest{Target: "riscv"}, http.StatusBadRequest},
		{"/v1/select/batch", BatchSelectRequest{Target: "x86", Programs: []string{apiProg}}, http.StatusBadRequest},
		{"/v1/select/batch", BatchSelectRequest{Target: "riscv", Programs: []string{apiProg}, Emit: "bytes"}, http.StatusBadRequest},
		{"/v1/select", SelectRequest{Target: "riscv", Program: apiProg, Emit: "bytes"}, http.StatusBadRequest},
	} {
		status, body := postJSON(t, ts.URL+tc.path, tc.req)
		if status != tc.want {
			t.Fatalf("%s %+v: got %d (%s), want %d", tc.path, tc.req, status, body, tc.want)
		}
	}
}

// TestFlightOutlivesClient: a synthesis flight is detached from the
// request that opened it. A client that disconnects while the flight is
// held does not cancel it; the flight completes and caches its entry,
// so the retry is a hit, synthesis ran once, and the cancelled request
// counts as no error.
func TestFlightOutlivesClient(t *testing.T) {
	sv, ts := newTestServer(t, testConfig())
	started := make(chan struct{}, 1)
	gate := make(chan struct{})
	sv.testJobGate = func() {
		started <- struct{}{}
		<-gate
	}
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	defer release() // a failing path must not leave Close waiting on the gate
	req := SynthesizeRequest{Target: "mini", Spec: svcSpec}
	buf, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/synthesize", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	clientDone := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(hreq)
		if err == nil {
			resp.Body.Close()
		}
		clientDone <- err
	}()
	<-started // the client's flight holds the gate
	cancel()
	if err := <-clientDone; err == nil {
		t.Fatal("the cancelled client got an answer from a held flight")
	}
	release()

	deadline := time.Now().Add(30 * time.Second)
	for getMetrics(t, ts.URL).CachedEntries != 1 {
		if time.Now().After(deadline) {
			t.Fatal("the abandoned flight never cached its entry")
		}
		time.Sleep(2 * time.Millisecond)
	}
	status, body := postJSON(t, ts.URL+"/v1/synthesize", req)
	if status != http.StatusOK {
		t.Fatalf("retry: %d %s", status, body)
	}
	if sr := decodeSynth(t, body); sr.Cache != "hit" || sr.Rules == 0 {
		t.Errorf("retry: cache=%q rules=%d, want a hit on the abandoned flight's library", sr.Cache, sr.Rules)
	}
	m := getMetrics(t, ts.URL)
	if m.SynthRuns != 1 {
		t.Errorf("synth_runs = %d, want 1", m.SynthRuns)
	}
	if m.Errors != 0 {
		t.Errorf("errors = %d, want 0: a client's own cancellation is no server error", m.Errors)
	}
}

// TestWaiterCancelAndDeadline: a request waiting on a held flight whose
// own client cancelled it answers 499 and counts no error, while one
// whose deadline passed answers a counted 504.
func TestWaiterCancelAndDeadline(t *testing.T) {
	sv, ts := newTestServer(t, testConfig())
	started := make(chan struct{}, 1)
	gate := make(chan struct{})
	sv.testJobGate = func() {
		started <- struct{}{}
		<-gate
	}
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	defer release()
	buf, err := json.Marshal(SynthesizeRequest{Target: "mini", Spec: svcSpec})
	if err != nil {
		t.Fatal(err)
	}
	held := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/synthesize", "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Error(err)
			held <- 0
			return
		}
		resp.Body.Close()
		held <- resp.StatusCode
	}()
	<-started

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancel := context.WithDeadline(context.Background(), time.Now())
	defer cancel()
	for _, tc := range []struct {
		ctx    context.Context
		status int
		errors uint64
	}{
		{cancelled, statusClientClosed, 0},
		{expired, http.StatusGatewayTimeout, 1},
	} {
		w := httptest.NewRecorder()
		r := httptest.NewRequest(http.MethodPost, "/v1/synthesize", bytes.NewReader(buf)).WithContext(tc.ctx)
		sv.Handler().ServeHTTP(w, r)
		if w.Code != tc.status {
			t.Errorf("%v waiter answered %d, want %d", tc.ctx.Err(), w.Code, tc.status)
		}
		if m := getMetrics(t, ts.URL); m.Errors != tc.errors {
			t.Errorf("after the %v waiter: errors = %d, want %d", tc.ctx.Err(), m.Errors, tc.errors)
		}
	}
	release()
	if status := <-held; status != http.StatusOK {
		t.Fatalf("the flight's own request answered %d, want 200", status)
	}
}

// TestShutdownDrainsFlights: Shutdown does not return while a synthesis
// flight is held, the flight's request is answered, and a synthesis of
// a new spec afterwards answers 503 with Retry-After.
func TestShutdownDrainsFlights(t *testing.T) {
	sv, ts := newTestServer(t, testConfig())
	started := make(chan struct{}, 1)
	gate := make(chan struct{})
	sv.testJobGate = func() {
		started <- struct{}{}
		<-gate
	}
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	defer release()

	buf, err := json.Marshal(SynthesizeRequest{Target: "mini", Spec: svcSpec})
	if err != nil {
		t.Fatal(err)
	}
	held := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/synthesize", "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Error(err)
			held <- 0
			return
		}
		resp.Body.Close()
		held <- resp.StatusCode
	}()
	<-started

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		done <- sv.Shutdown(ctx)
	}()
	select {
	case err := <-done:
		t.Fatalf("Shutdown returned %v before the held flight drained", err)
	case <-time.After(50 * time.Millisecond):
	}
	release()
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if status := <-held; status != http.StatusOK {
		t.Fatalf("the drained flight's request answered %d, want 200", status)
	}

	buf, _ = json.Marshal(SynthesizeRequest{Target: "after", Spec: svcSpec})
	resp := doReq(t, http.MethodPost, ts.URL+"/v1/synthesize", buf, nil)
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("post-shutdown synthesis answered %d (Retry-After %q), want 503 with Retry-After",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
}

// TestJobsSaturation: with one worker and one queue slot, four distinct
// specs submitted while the first is held split at submit time. The two
// the scheduler admits both answer 200. The two it refuses answer 429
// with Retry-After then and there, so no admitted synthesis can end
// later in "queue full". Once the queue drains, a refused spec
// synthesizes on retry.
func TestJobsSaturation(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 1
	cfg.QueueDepth = 1
	sv, ts := newTestServer(t, cfg)

	started := make(chan struct{}, 4)
	release := make(chan struct{})
	var once sync.Once
	releaseAll := func() { once.Do(func() { close(release) }) }
	sv.testJobGate = func() {
		started <- struct{}{}
		<-release
	}
	defer releaseAll() // Cleanup drains the scheduler and would hang on a held job

	specFor := func(i int) SynthesizeRequest {
		return SynthesizeRequest{Target: fmt.Sprintf("s%d", i), Spec: svcSpec}
	}
	admitted := make(chan int, 2)
	go func() {
		status, _ := postJSON(t, ts.URL+"/v1/synthesize", specFor(1))
		admitted <- status
	}()
	<-started // spec 1 holds the only worker
	go func() {
		status, _ := postJSON(t, ts.URL+"/v1/synthesize", specFor(2))
		admitted <- status
	}()
	deadline := time.Now().Add(10 * time.Second)
	for getMetrics(t, ts.URL).QueueDepth != 1 {
		if time.Now().After(deadline) {
			t.Fatal("spec 2 never queued")
		}
		time.Sleep(2 * time.Millisecond)
	}

	for _, i := range []int{3, 4} {
		buf, err := json.Marshal(specFor(i))
		if err != nil {
			t.Fatal(err)
		}
		resp := doReq(t, http.MethodPost, ts.URL+"/v1/synthesize", buf, nil)
		if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
			t.Fatalf("spec %d on a saturated scheduler answered %d (Retry-After %q), want 429 with Retry-After",
				i, resp.StatusCode, resp.Header.Get("Retry-After"))
		}
	}
	if m := getMetrics(t, ts.URL); m.JobsRejected != 2 {
		t.Errorf("jobs_rejected = %d, want 2", m.JobsRejected)
	}

	releaseAll()
	for i := 0; i < 2; i++ {
		if status := <-admitted; status != http.StatusOK {
			t.Fatalf("an admitted synthesis answered %d, want 200", status)
		}
	}
	status, body := postJSON(t, ts.URL+"/v1/synthesize", specFor(3))
	if status != http.StatusOK {
		t.Fatalf("retry of a refused spec after the drain: %d %s", status, body)
	}
	if m := getMetrics(t, ts.URL); m.SynthRuns != 3 {
		t.Errorf("synth_runs = %d, want 3 (two admitted, one retry)", m.SynthRuns)
	}
}

// TestRemovedRoutes pins the retired twins of the synthesis and solver
// endpoints: the async job routes and the body form of the solver
// query answer 404 or 405.
func TestRemovedRoutes(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	for _, tc := range []struct{ method, path string }{
		{http.MethodPost, "/v1/jobs"},
		{http.MethodGet, "/v1/jobs"},
		{http.MethodGet, "/v1/jobs/job-000001"},
		{http.MethodPost, "/v1/solver/query"},
	} {
		resp := doReq(t, tc.method, ts.URL+tc.path, []byte(`{"target":"riscv"}`), nil)
		if resp.StatusCode != http.StatusNotFound && resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s answered %d, want 404 or 405", tc.method, tc.path, resp.StatusCode)
		}
	}
}

// udivProg falls back on the 10-pattern test library: no synthesized
// rule covers riscv udiv.
const udivProg = "v0 = param 64\nv1 = param 64\nv2 = udiv 64 v0 v1\nret v2\n"

// TestSelectionsCountSelectedOnly: the selections counter means one
// thing in every select form, a program selected with no fallback and
// no error. A fallen-back program adds nothing, through /v1/select
// (program and workload mode) and /v1/select/batch alike; with the
// 10-pattern test library every suite workload falls back.
// TestSelectEndpoint counts selected workloads on the full library.
func TestSelectionsCountSelectedOnly(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	for _, tc := range []struct {
		prog     string
		fallback bool
	}{{apiProg, false}, {udivProg, true}} {
		status, body := postJSON(t, ts.URL+"/v1/select", SelectRequest{Target: "riscv", Program: tc.prog})
		if status != http.StatusOK {
			t.Fatalf("select: %d %s", status, body)
		}
		var sr SelectResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatal(err)
		}
		if sr.Fallback != tc.fallback {
			t.Fatalf("select %q: fallback=%v, want %v", tc.prog, sr.Fallback, tc.fallback)
		}
	}
	if m := getMetrics(t, ts.URL); m.Selections != 1 {
		t.Fatalf("after one selected and one fallen-back /v1/select: selections=%d, want 1", m.Selections)
	}

	status, body := postJSON(t, ts.URL+"/v1/select/batch",
		BatchSelectRequest{Target: "riscv", Programs: []string{apiProg, udivProg}})
	if status != http.StatusOK {
		t.Fatalf("batch: %d %s", status, body)
	}
	var br BatchSelectResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if br.Selected != 1 || br.Fallbacks != 1 {
		t.Fatalf("batch: selected=%d fallbacks=%d, want 1 and 1", br.Selected, br.Fallbacks)
	}
	if m := getMetrics(t, ts.URL); m.Selections != 2 {
		t.Fatalf("after the batch: selections=%d, want 2", m.Selections)
	}

	status, body = postJSON(t, ts.URL+"/v1/select", SelectRequest{Target: "riscv", Workload: "x264_sad"})
	if status != http.StatusOK {
		t.Fatalf("workload select: %d %s", status, body)
	}
	var wr SelectResponse
	if err := json.Unmarshal(body, &wr); err != nil {
		t.Fatal(err)
	}
	if !wr.Fallback {
		t.Fatal("workload x264_sad selected on the 10-pattern library; the test needs a fallback")
	}
	if m := getMetrics(t, ts.URL); m.Selections != 2 {
		t.Fatalf("after a fallen-back workload select: selections=%d, want 2", m.Selections)
	}
}

// TestStoreLRUConcurrentEviction hammers a small-capacity store with
// parallel fills and lookups: the cap must hold, nothing may deadlock,
// and (under -race) the bookkeeping must be clean.
func TestStoreLRUConcurrentEviction(t *testing.T) {
	s, err := NewStore("", 4)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				fp := fmt.Sprintf("fp-%d", (g*7+i)%32)
				if e, fl, owner := s.Acquire(fp, fp); e == nil {
					if owner {
						s.Complete(fp, &Entry{Fingerprint: fp, Lineage: fp, Origin: "synthesized"}, nil)
					} else {
						ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
						fl.Wait(ctx)
						cancel()
					}
				}
				s.Peek(fp)
			}
		}(g)
	}
	wg.Wait()
	if n := s.MemLen(); n > 4 {
		t.Fatalf("memory layer holds %d entries past cap 4", n)
	}
	if s.Evictions() == 0 {
		t.Fatal("no evictions recorded under churn past the cap")
	}
}

// recordingFiller captures the FillRequests the server issues and
// always declines, forcing the local path.
type recordingFiller struct {
	mu   sync.Mutex
	reqs []FillRequest
}

func (f *recordingFiller) FetchArtifact(ctx context.Context, req FillRequest) (*ArtifactResponse, string, error) {
	f.mu.Lock()
	f.reqs = append(f.reqs, req)
	f.mu.Unlock()
	return nil, "", ErrLocalFill
}

// TestRequestIDPropagatedToPeerFill: the caller's X-Request-Id reaches
// the remote filler (and thence the peer's access log), and unsafe IDs
// are replaced rather than forwarded.
func TestRequestIDPropagatedToPeerFill(t *testing.T) {
	sv, ts := newTestServer(t, testConfig())
	rec := &recordingFiller{}
	sv.SetFiller(rec)

	buf, _ := json.Marshal(SynthesizeRequest{Target: "mini", Spec: svcSpec})
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/synthesize", bytes.NewReader(buf))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", "trace-abc.123")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("synthesize: %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-Id"); got != "trace-abc.123" {
		t.Fatalf("response X-Request-Id=%q, want the caller's", got)
	}
	rec.mu.Lock()
	n := len(rec.reqs)
	var rid string
	if n > 0 {
		rid = rec.reqs[0].RequestID
	}
	rec.mu.Unlock()
	if n != 1 || rid != "trace-abc.123" {
		t.Fatalf("filler saw %d requests, rid=%q; want 1 with the caller's id", n, rid)
	}

	// A header that fails sanitization is replaced with a minted ID, not
	// forwarded.
	req, _ = http.NewRequest(http.MethodPost, ts.URL+"/v1/synthesize", bytes.NewReader(buf))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", "evil id with spaces!")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); !strings.HasPrefix(got, "req-") {
		t.Fatalf("unsafe header echoed back as %q", got)
	}
}
