package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"iselgen/internal/obs"
	"iselgen/internal/obs/obstest"
	"iselgen/internal/service"
)

// fetchTraceSpans reads one replica's view of a trace in raw span form.
func fetchTraceSpans(t *testing.T, base, traceID string) (service.TraceSpansResponse, int) {
	t.Helper()
	resp, err := http.Get(base + "/v1/trace/" + traceID + "?format=spans")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr service.TraceSpansResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatal(err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return sr, resp.StatusCode
}

// nodesOf counts the distinct replicas contributing spans.
func nodesOf(spans []obs.TraceSpan) map[string]bool {
	nodes := map[string]bool{}
	for _, s := range spans {
		nodes[s.Node] = true
	}
	return nodes
}

// awaitTrace polls one replica's trace endpoint until the trace
// validates with spans from at least wantNodes replicas (spans commit
// when they end, which can trail the HTTP response that created them).
func awaitTrace(t *testing.T, base, traceID string, wantNodes int) service.TraceSpansResponse {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	var last service.TraceSpansResponse
	for time.Now().Before(deadline) {
		sr, status := fetchTraceSpans(t, base, traceID)
		if status == http.StatusOK {
			last = sr
			if obstest.ValidateTraceSpans(sr.Spans) == nil && len(nodesOf(sr.Spans)) >= wantNodes {
				return sr
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("trace %s never stabilized at %d nodes; last view: %+v (validate: %v)",
		traceID, wantNodes, last.Spans, obstest.ValidateTraceSpans(last.Spans))
	return last
}

// TestClusterFleetTrace is the fill-mode acceptance test for
// distributed tracing: a client-minted trace context sent to a
// non-owning replica must come back as ONE fleet trace — the caller's
// request span rooted under the client's span, its synth flight and
// cluster fill beneath it, and the owner's artifact-serving spans
// parented under the fill across the node boundary. No orphans, a
// single root, and assembly reachable from any replica.
func TestClusterFleetTrace(t *testing.T) {
	lc := bootTest(t, 3)
	fp, err := lc.Replica(0).SV.FingerprintRequest("mini", clSpec, "")
	if err != nil {
		t.Fatal(err)
	}
	owner := lc.Replica(0).Node.OwnerOf(fp)
	caller := lc.Replica(0).URL
	if caller == owner {
		caller = lc.Replica(1).URL
	}

	client := obs.TraceContext{TraceID: obs.NewTraceID(), SpanID: 0xc11e47, Sampled: true}
	body, _ := json.Marshal(service.SynthesizeRequest{Target: "mini", Spec: clSpec})
	req, _ := http.NewRequest(http.MethodPost, caller+"/v1/synthesize", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.TraceHeader, client.Header())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("synthesize via caller: %d", resp.StatusCode)
	}
	echo, err := obs.ParseTraceHeader(resp.Header.Get(obs.TraceHeader))
	if err != nil || echo.TraceID != client.TraceID {
		t.Fatalf("caller did not adopt the client trace: %v err=%v", echo, err)
	}

	// The cache miss crossed the fleet (caller is not the owner), so the
	// assembled trace must span the caller and the artifact-serving owner.
	sr := awaitTrace(t, caller, client.TraceID.String(), 2)
	nodes := nodesOf(sr.Spans)
	if !nodes[caller] || !nodes[owner] {
		t.Errorf("trace nodes %v, want caller %s and owner %s", nodes, caller, owner)
	}
	byName := map[string][]obs.TraceSpan{}
	for _, s := range sr.Spans {
		byName[s.Name] = append(byName[s.Name], s)
	}
	roots := byName["http POST /v1/synthesize"]
	if len(roots) != 1 || roots[0].Node != caller || roots[0].Parent != client.SpanID {
		t.Fatalf("root request span wrong: %+v (want node %s, parent %x)", roots, caller, client.SpanID)
	}
	fills := byName["cluster fill"]
	if len(fills) != 1 || fills[0].Node != caller {
		t.Fatalf("cluster fill span wrong: %+v", fills)
	}
	arts := byName["http POST /v1/artifact"]
	if len(arts) == 0 {
		t.Fatalf("no artifact request span in trace: %v", byName)
	}
	for _, a := range arts {
		if a.Parent != fills[0].SpanID {
			t.Errorf("artifact span on %s parents under %x, want the fill span %x",
				a.Node, a.Parent, fills[0].SpanID)
		}
		if a.Node == caller {
			t.Errorf("artifact span recorded on the caller itself")
		}
	}
	if len(byName["synth flight"]) < 2 {
		t.Errorf("want synth flights on caller and owner, got %+v", byName["synth flight"])
	}

	// Assembly must work from ANY replica — the owner collects the
	// caller's spans over the loop-guarded peer path — and the assembled
	// file must satisfy the strict Chrome-trace parser.
	for _, base := range []string{caller, owner} {
		r2, err := http.Get(base + "/v1/trace/" + client.TraceID.String())
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(r2.Body)
		r2.Body.Close()
		pt, err := obstest.ParseTraceFile(data)
		if err != nil {
			t.Fatalf("assembled trace from %s fails strict parse: %v", base, err)
		}
		if pt.Roots != 1 || pt.Nodes < 2 || pt.Spans < len(sr.Spans) {
			t.Errorf("assembled from %s: %+v, want 1 root, >=2 nodes, >=%d spans", base, pt, len(sr.Spans))
		}
	}
}
