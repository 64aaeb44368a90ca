package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"iselgen/internal/bv"
	"iselgen/internal/fuzz"
	"iselgen/internal/obs"
	"iselgen/internal/service"
)

// Replay shape: replayPrograms fuzz-generated programs in batches of
// replayBatch, sent round-robin across the replicas from replayWorkers
// goroutines; every other batch carries a sampled trace context.
const (
	replayPrograms = 256
	replayBatch    = 32
	replayWorkers  = 4
)

// postJSON posts one JSON body and returns the status, the response
// body and, when traced, the ID of the sampled X-Iseld-Trace context
// minted for it. Safe off the test goroutine: it reports errors with
// t.Error and answers status 0.
func postJSON(t *testing.T, client *http.Client, url string, body any, traced bool) (int, []byte, string) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Error(err)
		return 0, nil, ""
	}
	req, _ := http.NewRequest(http.MethodPost, url, bytes.NewReader(buf))
	req.Header.Set("Content-Type", "application/json")
	traceID := ""
	if traced {
		tc := obs.TraceContext{TraceID: obs.NewTraceID(), SpanID: 0x7e9a1, Sampled: true}
		req.Header.Set(obs.TraceHeader, tc.Header())
		traceID = tc.TraceID.String()
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Error(err)
		return 0, nil, ""
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, out, traceID
}

// warmReplica synthesizes the riscv library on one replica through the
// async job API under a sampled trace, polls the job to done, and
// returns the trace ID.
func warmReplica(t *testing.T, client *http.Client, base string) string {
	t.Helper()
	status, body, traceID := postJSON(t, client, base+"/v1/jobs", service.SynthesizeRequest{Target: "riscv"}, true)
	if status != http.StatusAccepted {
		t.Fatalf("warm %s: submit answered %d: %s", base, status, body)
	}
	var sub service.JobSubmitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := client.Get(base + sub.Poll)
		if err != nil {
			t.Fatal(err)
		}
		var st service.JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case st.Status == service.JobDone:
			return traceID
		case st.Status == service.JobFailed:
			t.Fatalf("warm %s: job failed: %s", base, st.Error)
		case time.Now().After(deadline):
			t.Fatalf("warm %s: job still %q at the deadline", base, st.Status)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestClusterReplay drives a 3-replica fleet the way a load run does:
// warm every replica through the job API, replay a fuzz-generated
// program stream through the batch endpoint from concurrent clients,
// then check what the fleet reports. Every batch must select or fall
// back cleanly; the fleet must have synthesized the library once and
// peer-filled it twice; every sampled trace must assemble from any
// replica, with a warm trace crossing replicas; every replica's
// Prometheus surface must parse strictly with exemplars on every
// populated latency bucket; and the slowest exemplar must resolve to a
// trace.
func TestClusterReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("riscv synthesis in -short mode")
	}
	lc := bootTest(t, 3, Config{})
	client := &http.Client{Timeout: time.Minute}
	base0 := lc.Replica(0).URL

	var warmTraces []string
	for i := 0; i < lc.Len(); i++ {
		warmTraces = append(warmTraces, warmReplica(t, client, lc.Replica(i).URL))
	}
	// Assemble the warm traces before replay traffic fills the span rings.
	crossed := false
	for _, id := range warmTraces {
		sr := awaitTrace(t, base0, id, 1)
		synth := false
		for _, s := range sr.Spans {
			synth = synth || s.Name == "job synthesize"
		}
		if synth && len(nodesOf(sr.Spans)) >= 2 {
			crossed = true
		}
	}
	if !crossed {
		t.Errorf("no warm trace both spans two replicas and holds a job synthesize span")
	}

	gcfg := fuzz.DefaultGenConfig()
	programs := make([]string, replayPrograms)
	for i := range programs {
		programs[i] = fuzz.Gen(bv.NewRNG(fuzz.SubSeed(1, uint64(i))), gcfg).Format()
	}
	type batch struct {
		idx   int
		progs []string
	}
	batches := make(chan batch)
	var (
		mu          sync.Mutex
		batchTraces []string
		wg          sync.WaitGroup
	)
	for w := 0; w < replayWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range batches {
				url := lc.Replica(b.idx%lc.Len()).URL + "/v1/select/batch"
				req := service.BatchSelectRequest{Target: "riscv", Programs: b.progs, VectorSeed: 1, Vectors: 2}
				status, body, id := postJSON(t, client, url, req, b.idx%2 == 0)
				if id != "" {
					mu.Lock()
					batchTraces = append(batchTraces, id)
					mu.Unlock()
				}
				if status != http.StatusOK {
					t.Errorf("batch %d via %s: %d %s", b.idx, url, status, body)
					continue
				}
				var br service.BatchSelectResponse
				if err := json.Unmarshal(body, &br); err != nil {
					t.Errorf("batch %d: %v", b.idx, err)
					continue
				}
				if br.Failed != 0 || br.Selected+br.Fallbacks != len(b.progs) {
					t.Errorf("batch %d: selected %d + fallbacks %d of %d programs, %d failed",
						b.idx, br.Selected, br.Fallbacks, len(b.progs), br.Failed)
				}
			}
		}()
	}
	for off := 0; off < len(programs); off += replayBatch {
		batches <- batch{idx: off / replayBatch, progs: programs[off:min(off+replayBatch, len(programs))]}
	}
	close(batches)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for _, id := range batchTraces {
		awaitTrace(t, base0, id, 1)
	}

	var synth, peer uint64
	for i := 0; i < lc.Len(); i++ {
		m := metricsOf(t, lc.Replica(i).URL)
		synth += m.SynthRuns + m.IncrRuns
		peer += m.PeerFills
	}
	if synth != 1 || peer != 2 {
		t.Errorf("fleet ran %d syntheses and %d peer fills, want 1 and 2", synth, peer)
	}

	for i := 0; i < lc.Len(); i++ {
		base := lc.Replica(i).URL
		breakers := 0
		if f := scrapeProm(t, base+"/metrics")["cluster_breaker_state"]; f != nil {
			for _, s := range f.Samples {
				if s.Labels["peer"] != "" {
					breakers++
				}
			}
		}
		if breakers != lc.Len()-1 {
			t.Errorf("replica %d exposes %d cluster_breaker_state series, want one per peer", i, breakers)
		}
		ex := scrapeProm(t, base+"/metrics?exemplars=1")
		withEx, populated := obs.ExemplarCoverage(ex["http_request_duration_ns"])
		if populated == 0 || withEx != populated {
			t.Errorf("replica %d: exemplars on %d of %d populated latency buckets", i, withEx, populated)
		}
	}

	var slowest *obs.HistExemplar
	exs := metricsOf(t, base0).TraceExemplars
	for i := range exs {
		if exs[i].Metric == "http_request_duration_ns" && (slowest == nil || exs[i].BucketLE > slowest.BucketLE) {
			slowest = &exs[i]
		}
	}
	if slowest == nil {
		t.Fatal("replica 0 reports no latency exemplar")
	}
	if _, status := fetchTraceSpans(t, base0, slowest.TraceID); status != http.StatusOK {
		t.Errorf("slowest exemplar trace %s (le %d) answered %d", slowest.TraceID, slowest.BucketLE, status)
	}
}

// scrapeProm fetches and strictly parses one Prometheus exposition.
func scrapeProm(t *testing.T, url string) map[string]*obs.PromFamily {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s answered %d", url, resp.StatusCode)
	}
	fams, err := obs.ParseProm(string(text))
	if err != nil {
		t.Fatalf("%s fails strict parse: %v", url, err)
	}
	return fams
}
