package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
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

// TestJobsLifecycle walks the async API: submit, poll to completion,
// verify the result matches the synchronous endpoint, and check the
// list and unknown-ID surfaces.
func TestJobsLifecycle(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	status, body := postJSON(t, ts.URL+"/v1/jobs", SynthesizeRequest{Target: "mini", Spec: svcSpec})
	if status != http.StatusAccepted {
		t.Fatalf("submit: %d %s", status, body)
	}
	var sub JobSubmitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	if sub.ID == "" || sub.Poll != "/v1/jobs/"+sub.ID {
		t.Fatalf("bad submit response: %+v", sub)
	}

	var st JobStatus
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(ts.URL + sub.Poll)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if st.Status == JobDone || st.Status == JobFailed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", st.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st.Status != JobDone || st.Result == nil || st.Result.Rules == 0 {
		t.Fatalf("job finished badly: %+v", st)
	}

	// The synchronous endpoint answers from the cache the job filled.
	status, body = postJSON(t, ts.URL+"/v1/synthesize", SynthesizeRequest{Target: "mini", Spec: svcSpec})
	if status != http.StatusOK {
		t.Fatalf("synth after job: %d", status)
	}
	sr := decodeSynth(t, body)
	if sr.Cache != "hit" || sr.Rules != st.Result.Rules {
		t.Fatalf("sync answer cache=%q rules=%d, want hit with %d rules", sr.Cache, sr.Rules, st.Result.Rules)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Jobs []JobStatus `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Jobs) != 1 || list.Jobs[0].ID != sub.ID {
		t.Fatalf("job list: %+v", list.Jobs)
	}

	resp, err = http.Get(ts.URL + "/v1/jobs/job-999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job answered %d, want 404", resp.StatusCode)
	}
}

// TestJobsSaturation: past MaxJobs the submit endpoint answers 429
// instead of queueing unboundedly.
func TestJobsSaturation(t *testing.T) {
	cfg := testConfig()
	cfg.MaxJobs = 1
	sv, ts := newTestServer(t, cfg)
	gate := make(chan struct{})
	sv.testJobGate = func() { <-gate }
	defer close(gate)

	status, _ := postJSON(t, ts.URL+"/v1/jobs", SynthesizeRequest{Target: "mini", Spec: svcSpec})
	if status != http.StatusAccepted {
		t.Fatalf("first submit: %d", status)
	}
	status, body := postJSON(t, ts.URL+"/v1/jobs", SynthesizeRequest{Target: "mini", Spec: svcSpec})
	if status != http.StatusTooManyRequests {
		t.Fatalf("saturated submit answered %d (%s), want 429", status, body)
	}
}

// TestJobListSubmissionOrder: GET /v1/jobs lists jobs in submission
// order, also across the job-999999 → job-1000000 boundary where the
// IDs' string order breaks.
func TestJobListSubmissionOrder(t *testing.T) {
	sv, ts := newTestServer(t, testConfig())
	sv.jobs.mu.Lock()
	sv.jobs.seq = 999998
	sv.jobs.mu.Unlock()
	var want []string
	for i := 0; i < 3; i++ {
		status, body := postJSON(t, ts.URL+"/v1/jobs", SynthesizeRequest{Target: "mini", Spec: svcSpec})
		if status != http.StatusAccepted {
			t.Fatalf("submit %d: %d %s", i, status, body)
		}
		var sub JobSubmitResponse
		if err := json.Unmarshal(body, &sub); err != nil {
			t.Fatal(err)
		}
		want = append(want, sub.ID)
	}
	if want[0] != "job-999999" || want[1] != "job-1000000" {
		t.Fatalf("submitted IDs %v do not cross the boundary", want)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Jobs []JobStatus `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, js := range list.Jobs {
		got = append(got, js.ID)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("job list order %v, want submission order %v", got, want)
	}
}

// TestShutdownDrainsJobs: Shutdown blocks until in-flight async work
// finishes, then refuses new submissions.
func TestShutdownDrainsJobs(t *testing.T) {
	sv, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ts := newLocalTS(t, sv)
	gate := make(chan struct{})
	sv.testJobGate = func() { <-gate }

	status, _ := postJSON(t, ts+"/v1/jobs", SynthesizeRequest{Target: "mini", Spec: svcSpec})
	if status != http.StatusAccepted {
		t.Fatalf("submit: %d", status)
	}

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		done <- sv.Shutdown(ctx)
	}()
	select {
	case err := <-done:
		t.Fatalf("Shutdown returned %v before the job drained", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(gate)
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if n := sv.jobs.activeCount(); n != 0 {
		t.Fatalf("%d jobs still active after Shutdown", n)
	}

	// A shutting-down server refuses new async work.
	status, _ = postJSON(t, ts+"/v1/jobs", SynthesizeRequest{Target: "mini", Spec: svcSpec})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown submit answered %d, want 503", status)
	}
	sv.Close()
}

// newLocalTS serves a Server without the newTestServer cleanup (for
// tests that manage the server's lifecycle themselves).
func newLocalTS(t *testing.T, sv *Server) string {
	t.Helper()
	hs := &http.Server{Handler: sv.Handler()}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go hs.Serve(ln)
	t.Cleanup(func() { hs.Close() })
	return "http://" + ln.Addr().String()
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
