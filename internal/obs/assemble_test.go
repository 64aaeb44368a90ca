package obs_test

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"iselgen/internal/obs"
	"iselgen/internal/obs/obstest"
)

// twoNodeTrace builds the canonical cross-node shape: a client-minted
// root context, a caller node with a request span and a fill span, and
// an owner node whose spans parent under the fill span — with the owner
// clock skewed into the past to exercise normalization.
func twoNodeTrace(t *testing.T) (obs.TraceID, []obs.TraceSpan) {
	t.Helper()
	tid := obs.NewTraceID()
	client := obs.TraceContext{TraceID: tid, SpanID: 0x5eed, Sampled: true}

	caller := obs.NewTracer(64)
	root := caller.StartRemote("http POST /v1/select", client)
	fill := root.Child("cluster fill")
	time.Sleep(time.Millisecond)

	owner := obs.NewTracer(64)
	remote := owner.StartRemote("http POST /v1/artifact", fill.Context())
	synth := remote.Child("synth")
	synth.End()
	remote.End()
	fill.End()
	root.End()

	spans := caller.ExportTraceSpans(tid, "http://caller")
	ownerSpans := owner.ExportTraceSpans(tid, "http://owner")
	// Skew the owner's clock 2s into the past: its spans would start
	// before their caller-side parent without normalization.
	for i := range ownerSpans {
		ownerSpans[i].StartUnixNS -= 2 * int64(time.Second)
	}
	return tid, append(spans, ownerSpans...)
}

func TestValidateTraceSpans(t *testing.T) {
	_, spans := twoNodeTrace(t)
	if err := obstest.ValidateTraceSpans(spans); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	if err := obstest.ValidateTraceSpans(nil); err == nil {
		t.Error("empty trace accepted")
	}

	// Orphan: a span whose parent chain never reaches the root.
	orphaned := append([]obs.TraceSpan(nil), spans...)
	orphaned = append(orphaned, obs.TraceSpan{
		TraceID: spans[0].TraceID, SpanID: 0xdead, Parent: 0xbeef, Name: "lost", Node: "x"},
		obs.TraceSpan{TraceID: spans[0].TraceID, SpanID: 0xbeef, Parent: 0xdead, Name: "cycle", Node: "x"})
	if err := obstest.ValidateTraceSpans(orphaned); err == nil {
		t.Error("orphan cycle accepted")
	}

	// Duplicate span IDs.
	dup := append(append([]obs.TraceSpan(nil), spans...), spans[0])
	if err := obstest.ValidateTraceSpans(dup); err == nil {
		t.Error("duplicate span ID accepted")
	}

	// Mixed traces.
	mixed := append([]obs.TraceSpan(nil), spans...)
	mixed[len(mixed)-1].TraceID = obs.NewTraceID().String()
	if err := obstest.ValidateTraceSpans(mixed); err == nil {
		t.Error("mixed trace IDs accepted")
	}
}

func TestAssembleTraceNormalizesClocks(t *testing.T) {
	tid, spans := twoNodeTrace(t)
	f, rep := obs.AssembleTrace(spans)
	if rep.Spans != len(spans) || rep.Nodes != 2 || rep.Roots != 1 || rep.Orphans != 0 {
		t.Fatalf("report %+v, want %d spans over 2 nodes, 1 root, 0 orphans", rep, len(spans))
	}
	if rep.TraceID != tid.String() {
		t.Errorf("report trace ID %s, want %s", rep.TraceID, tid)
	}

	// Rebuild the parent relation from the emitted args and check no
	// child starts before its parent (the point of normalization).
	type evInfo struct{ ts float64 }
	byID := map[uint64]evInfo{}
	parent := map[uint64]uint64{}
	names := map[string]bool{}
	procs := map[int64]string{}
	for _, ev := range f.TraceEvents {
		if ev.Ph == "M" {
			procs[ev.Pid], _ = ev.Args["name"].(string)
			continue
		}
		id := uint64(toF(t, ev.Args["span_id"]))
		byID[id] = evInfo{ts: ev.Ts}
		if p, ok := ev.Args["parent"]; ok {
			parent[id] = uint64(toF(t, p))
		}
		names[ev.Name] = true
		if got, _ := ev.Args["trace_id"].(string); got != tid.String() {
			t.Errorf("event %s trace_id %v", ev.Name, ev.Args["trace_id"])
		}
	}
	for id, p := range parent {
		pe, ok := byID[p]
		if !ok {
			continue // client-minted root parent lives outside the file
		}
		if byID[id].ts < pe.ts {
			t.Errorf("child %016x (ts=%v) starts before parent %016x (ts=%v)", id, byID[id].ts, p, pe.ts)
		}
	}
	for _, want := range []string{"http POST /v1/select", "cluster fill", "http POST /v1/artifact", "synth"} {
		if !names[want] {
			t.Errorf("assembled trace missing %q; have %v", want, names)
		}
	}
	if procs[1] != "http://caller" {
		t.Errorf("pid 1 is %q, want the root's node", procs[1])
	}

	// The assembled file must satisfy its own strict parser.
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := obstest.ParseTraceFile(data)
	if err != nil {
		t.Fatalf("assembled trace fails strict parse: %v", err)
	}
	if pt.Spans != len(spans) || pt.Nodes != 2 || pt.Roots != 1 {
		t.Errorf("parsed %+v, want %d spans, 2 nodes, 1 root", pt, len(spans))
	}
}

// TestAssembleTraceParentCycle: a peer can hand back spans whose parents
// form a cycle, leaving no root at all. Assembly must stay best-effort —
// anchor on the earliest span, report Roots=0 — not panic.
func TestAssembleTraceParentCycle(t *testing.T) {
	tid := obs.NewTraceID().String()
	spans := []obs.TraceSpan{
		{TraceID: tid, SpanID: 1, Parent: 2, Name: "a", Node: "n1", StartUnixNS: 200},
		{TraceID: tid, SpanID: 2, Parent: 1, Name: "b", Node: "n1", StartUnixNS: 100},
	}
	if err := obstest.ValidateTraceSpans(spans); err == nil {
		t.Error("validator accepted a parent cycle")
	}
	f, rep := obs.AssembleTrace(spans)
	if rep.Spans != 2 || rep.Roots != 0 || rep.Orphans != 0 {
		t.Errorf("report %+v, want 2 spans, 0 roots, 0 orphans", rep)
	}
	var names []string
	for _, ev := range f.TraceEvents {
		if ev.Ph == "X" {
			names = append(names, ev.Name)
		}
	}
	if len(names) != 2 {
		t.Errorf("assembled %v, want both cycle spans emitted", names)
	}
}

// TestParseTraceFileHugeSpanIDs: span IDs are uint64; 2^53 and 2^53+1
// collide when decoded as float64, so the strict parser must keep full
// integer precision or it reports a spurious duplicate span ID.
func TestParseTraceFileHugeSpanIDs(t *testing.T) {
	const a, b = uint64(1) << 53, uint64(1)<<53 + 1
	f := &obs.TraceFile{DisplayTimeUnit: "ms", TraceEvents: []obs.TraceEvent{
		{Name: "root", Ph: "X", Pid: 1, Args: map[string]any{"span_id": a}},
		{Name: "child", Ph: "X", Pid: 1, Args: map[string]any{"span_id": b, "parent": a}},
		{Name: "leaf", Ph: "X", Pid: 1, Args: map[string]any{"span_id": ^uint64(0), "parent": b}},
	}}
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := obstest.ParseTraceFile(data)
	if err != nil {
		t.Fatalf("huge span IDs rejected: %v", err)
	}
	if pt.Spans != 3 || pt.Roots != 1 {
		t.Errorf("parsed %+v, want 3 spans with 1 root", pt)
	}
}

func toF(t *testing.T, v any) float64 {
	t.Helper()
	f, ok := v.(float64)
	if !ok {
		if u, ok := v.(uint64); ok {
			return float64(u)
		}
		t.Fatalf("arg %v (%T) is not numeric", v, v)
	}
	return f
}

func TestParseTraceFileRejects(t *testing.T) {
	_, spans := twoNodeTrace(t)
	f, _ := obs.AssembleTrace(spans)
	good, _ := json.Marshal(f)

	cases := []struct {
		name   string
		mutate func() []byte
	}{
		{"not json", func() []byte { return []byte("{") }},
		{"unknown field", func() []byte {
			return []byte(strings.Replace(string(good), `"traceEvents"`, `"evil":1,"traceEvents"`, 1))
		}},
		{"bad phase", func() []byte { return []byte(strings.ReplaceAll(string(good), `"ph":"X"`, `"ph":"B"`)) }},
		{"no spans", func() []byte { return []byte(`{"traceEvents":[],"displayTimeUnit":"ms"}`) }},
		{"bad unit", func() []byte { return []byte(strings.Replace(string(good), `"ms"`, `"ns"`, 1)) }},
		{"missing span_id", func() []byte { return []byte(strings.ReplaceAll(string(good), `"span_id"`, `"span_idx"`)) }},
	}
	for _, c := range cases {
		if _, err := obstest.ParseTraceFile(c.mutate()); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	// Two roots: break one parent link.
	var tf obs.TraceFile
	if err := json.Unmarshal(good, &tf); err != nil {
		t.Fatal(err)
	}
	broke := false
	for _, ev := range tf.TraceEvents {
		if ev.Ph == "X" && ev.Args["parent"] != nil && !broke && ev.Name == "synth" {
			ev.Args["parent"] = float64(0x1234)
			broke = true
		}
	}
	if !broke {
		t.Fatal("no parent to break")
	}
	data, _ := json.Marshal(tf)
	if _, err := obstest.ParseTraceFile(data); err == nil {
		t.Error("broken span link accepted")
	}
}

func TestHistogramExemplars(t *testing.T) {
	r := obs.NewRegistry()
	h := r.Histogram("req_ns", "latency", "path", "/x")
	h.Observe(100) // unsampled: no exemplar
	tidA, tidB := obs.NewTraceID().String(), obs.NewTraceID().String()
	h.ObserveExemplar(100, tidA)
	h.ObserveExemplar(1<<20, tidB)
	h.ObserveExemplar(5000, "") // sampled-off path: counts, no exemplar

	if ex := h.Exemplar(obs.BucketOf(100)); ex == nil || ex.TraceID != tidA {
		t.Fatalf("bucket exemplar = %+v, want trace %s", ex, tidA)
	}
	if ex := h.Exemplar(obs.BucketOf(5000)); ex != nil {
		t.Errorf("empty-trace observation stored exemplar %+v", ex)
	}
	if _, n, _ := h.Snapshot(); n != 4 {
		t.Errorf("count %d, want 4", n)
	}

	exs := r.TraceExemplars()
	if len(exs) != 2 {
		t.Fatalf("TraceExemplars: %d rows, want 2: %+v", len(exs), exs)
	}
	if exs[0].Metric != "req_ns" || exs[0].Labels["path"] != "/x" || exs[0].TraceID != tidA {
		t.Errorf("row 0 = %+v", exs[0])
	}
	if exs[1].TraceID != tidB || exs[1].BucketLE < exs[0].BucketLE {
		t.Errorf("row 1 = %+v", exs[1])
	}

	// The default exposition must stay strictly 0.0.4: a classic
	// Prometheus text parser rejects exemplar annotations, so WriteProm
	// must never emit them.
	var plain strings.Builder
	if err := r.WriteProm(&plain); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plain.String(), " # {") {
		t.Errorf("WriteProm leaked exemplar annotations into 0.0.4 output:\n%s", plain.String())
	}

	// The opt-in exposition carries the annotation and still parses
	// strictly.
	var sb strings.Builder
	if err := r.WritePromExemplars(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	if !strings.Contains(text, `# {trace_id="`+tidA+`"} 100`) {
		t.Errorf("exposition missing exemplar annotation:\n%s", text)
	}
	fams, err := obstest.ParseProm(text)
	if err != nil {
		t.Fatalf("exposition with exemplars fails strict parse: %v\n%s", err, text)
	}
	var found int
	for _, s := range fams["req_ns"].Samples {
		if s.Exemplar != nil {
			found++
			if s.Exemplar.Labels["trace_id"] == "" {
				t.Errorf("exemplar without trace_id: %+v", s.Exemplar)
			}
		}
	}
	if found != 2 {
		t.Errorf("parsed %d exemplars, want 2", found)
	}
	withEx, populated := obstest.ExemplarCoverage(fams["req_ns"])
	if populated < 3 || withEx != 2 {
		t.Errorf("ExemplarCoverage = %d/%d, want 2 of >=3", withEx, populated)
	}

	// Nil-safety.
	var nilH *obs.Histogram
	nilH.ObserveExemplar(1, "x")
	if nilH.Exemplar(0) != nil {
		t.Error("nil histogram returned exemplar")
	}
	var nilR *obs.Registry
	if nilR.TraceExemplars() != nil {
		t.Error("nil registry returned exemplars")
	}
}
