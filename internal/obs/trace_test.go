package obs

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestSpanHierarchy(t *testing.T) {
	tr := NewTracer(16)
	root := tr.Start("root").SetStr("k", "v")
	child := root.Child("child").SetInt("n", 7)
	child.End()
	root.End()

	recs := tr.Snapshot()
	if len(recs) != 2 {
		t.Fatalf("got %d spans, want 2", len(recs))
	}
	// Snapshot is completion-ordered: child ends first.
	c, r := recs[0], recs[1]
	if c.Name != "child" || r.Name != "root" {
		t.Fatalf("span order: got %q, %q", c.Name, r.Name)
	}
	if c.Parent != r.ID {
		t.Errorf("child parent = %d, want root ID %d", c.Parent, r.ID)
	}
	if c.Lane != r.Lane {
		t.Errorf("child lane = %d, want root lane %d (same track)", c.Lane, r.Lane)
	}
	if r.Parent != 0 {
		t.Errorf("root parent = %d, want 0", r.Parent)
	}
	if len(r.Attrs) != 1 || r.Attrs[0].Key != "k" || r.Attrs[0].Str != "v" {
		t.Errorf("root attrs = %+v", r.Attrs)
	}
	if len(c.Attrs) != 1 || !c.Attrs[0].IsInt || c.Attrs[0].Int != 7 {
		t.Errorf("child attrs = %+v", c.Attrs)
	}
}

// TestTracerRingWrap fills a small ring past capacity and checks that
// Snapshot returns exactly the newest cap spans, oldest first.
func TestTracerRingWrap(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Start(string(rune('a' + i))).End()
	}
	recs := tr.Snapshot()
	if len(recs) != 4 {
		t.Fatalf("got %d spans, want ring cap 4", len(recs))
	}
	for i, want := range []string{"g", "h", "i", "j"} {
		if recs[i].Name != want {
			t.Errorf("recs[%d].Name = %q, want %q (oldest-first, newest kept)", i, recs[i].Name, want)
		}
	}
	tr.Reset()
	if len(tr.Snapshot()) != 0 {
		t.Errorf("Reset must clear the ring")
	}
}

// TestNilTracerSafe proves the whole disabled chain — the contract every
// instrumented call site depends on.
func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	sp := tr.Start("x")
	if sp != nil {
		t.Fatalf("nil tracer Start must return nil span")
	}
	sp.SetStr("a", "b").SetInt("c", 1)
	sp.Child("y").End()
	sp.End()
	sp.EndWith(time.Second)
	if tr.Snapshot() != nil {
		t.Errorf("nil tracer accessors must be empty")
	}
	tr.Reset()

	tm := Timed(nil, "z")
	if tm.Span() != nil {
		t.Errorf("Timed(nil) span must be nil")
	}
	if d := tm.Done(); d < 0 {
		t.Errorf("Timed(nil).Done() must still measure: %v", d)
	}
}

// TestTimedSharedClock checks the no-drift contract: the duration Done
// returns is byte-identical to the one stored in the span record.
func TestTimedSharedClock(t *testing.T) {
	tr := NewTracer(4)
	tm := Timed(tr, "stage")
	time.Sleep(time.Millisecond)
	d := tm.Done()
	recs := tr.Snapshot()
	if len(recs) != 1 {
		t.Fatalf("got %d spans, want 1", len(recs))
	}
	if recs[0].Dur != d {
		t.Errorf("span dur %v != Done() %v — stats and trace drifted", recs[0].Dur, d)
	}
}

// TestTraceEventSchema validates the export against the Chrome
// trace-event contract: "X" complete events with microsecond ts/dur,
// pid/tid set, sorted by start time, args carrying span identity and
// attributes.
func TestTraceEventSchema(t *testing.T) {
	tr := NewTracer(16)
	root := tr.Start("root")
	child := root.Child("child").SetInt("count", 3).SetStr("mode", "fast")
	time.Sleep(100 * time.Microsecond)
	child.End()
	root.End()

	var buf bytes.Buffer
	if err := tr.WriteTraceJSON(&buf); err != nil {
		t.Fatalf("WriteTraceJSON: %v", err)
	}
	var f struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Unit        string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	if f.Unit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", f.Unit)
	}
	if len(f.TraceEvents) != 2 {
		t.Fatalf("got %d events, want 2", len(f.TraceEvents))
	}
	var lastTs float64 = -1
	for _, ev := range f.TraceEvents {
		if ev["ph"] != "X" {
			t.Errorf("ph = %v, want X (complete event)", ev["ph"])
		}
		for _, k := range []string{"name", "ts", "dur", "pid", "tid"} {
			if _, ok := ev[k]; !ok {
				t.Errorf("event missing required field %q: %v", k, ev)
			}
		}
		ts := ev["ts"].(float64)
		if ts < lastTs {
			t.Errorf("events not sorted by ts: %v < %v", ts, lastTs)
		}
		lastTs = ts
		if ev["pid"].(float64) != 1 {
			t.Errorf("pid = %v, want 1", ev["pid"])
		}
	}
	// The child must carry its attrs and parent linkage in args.
	child2 := f.TraceEvents[1]
	args, ok := child2["args"].(map[string]any)
	if !ok {
		t.Fatalf("child event has no args: %v", child2)
	}
	if args["count"].(float64) != 3 || args["mode"] != "fast" {
		t.Errorf("child args = %v", args)
	}
	if _, ok := args["parent"]; !ok {
		t.Errorf("child args missing parent linkage: %v", args)
	}
	// child slept ~100µs: dur is in microseconds, so it must be >= 50
	// (not >= 50000, which would mean the export forgot the ns→µs scale).
	if d := child2["dur"].(float64); d < 50 || d > 1e6 {
		t.Errorf("child dur = %v µs, expected ~100µs — wrong time unit?", d)
	}
}

// TestWriteTraceJSONEmpty ensures an empty (or nil) tracer still writes
// a well-formed file with an empty array, not null.
func TestWriteTraceJSONEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := NewTracer(4).WriteTraceJSON(&buf); err != nil {
		t.Fatalf("WriteTraceJSON: %v", err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"traceEvents": []`)) {
		t.Errorf("empty trace must serialize traceEvents as []: %s", buf.String())
	}
}

// TestTracerConcurrent exercises span start/commit from many goroutines
// under -race.
func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				sp := tr.Start("work")
				sp.Child("inner").SetInt("i", int64(i)).End()
				sp.End()
				if i%100 == 0 {
					tr.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	if len(tr.Snapshot()) != 64 {
		t.Fatalf("ring should be full at cap 64, got %d", len(tr.Snapshot()))
	}
}
