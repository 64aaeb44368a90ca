package obs

import (
	"strings"
	"testing"
)

func TestTraceContextHeaderRoundTrip(t *testing.T) {
	tc := TraceContext{TraceID: NewTraceID(), SpanID: randUint64() | 1, Sampled: true}
	h := tc.Header()
	if len(h) != traceHeaderLen {
		t.Fatalf("header %q length %d, want %d", h, len(h), traceHeaderLen)
	}
	got, err := ParseTraceHeader(h)
	if err != nil {
		t.Fatalf("ParseTraceHeader(%q): %v", h, err)
	}
	if got != tc {
		t.Errorf("round trip: got %+v, want %+v", got, tc)
	}
	// Unsampled flag round-trips too.
	tc.Sampled = false
	got, err = ParseTraceHeader(tc.Header())
	if err != nil || got.Sampled {
		t.Errorf("unsampled round trip: %+v err=%v", got, err)
	}
}

// TestParseTraceHeaderHostile is the regression test for the
// cleanRequestID-style validation contract: every malformed, oversized,
// or hostile header must be rejected (the middleware then mints fresh),
// never accepted or propagated.
func TestParseTraceHeaderHostile(t *testing.T) {
	valid := TraceContext{TraceID: NewTraceID(), SpanID: 7, Sampled: true}.Header()
	for _, c := range hostileTraceHeaders(valid) {
		if _, err := ParseTraceHeader(c.in); err == nil {
			t.Errorf("%s: ParseTraceHeader(%q) accepted hostile input", c.name, c.in)
		}
	}
}

// FuzzParseTraceHeader: no input panics the parser, and every header it
// accepts is a valid context that renders back to the exact input — so
// a propagated header is always one this node could have minted.
func FuzzParseTraceHeader(f *testing.F) {
	valid := TraceContext{TraceID: TraceID{0x01, 0x23, 15: 0xef}, SpanID: 7, Sampled: true}.Header()
	f.Add(valid)
	for _, c := range hostileTraceHeaders(valid) {
		f.Add(c.in)
	}
	f.Fuzz(func(t *testing.T, in string) {
		tc, err := ParseTraceHeader(in)
		if err != nil {
			return
		}
		if !tc.Valid() {
			t.Fatalf("ParseTraceHeader(%q) accepted an invalid context %+v", in, tc)
		}
		if h := tc.Header(); h != in {
			t.Fatalf("ParseTraceHeader(%q) renders back as %q", in, h)
		}
	})
}

// hostileTraceHeaders derives malformed, oversized, and injection-style
// headers from a valid one.
func hostileTraceHeaders(valid string) []struct{ name, in string } {
	return []struct{ name, in string }{
		{"empty", ""},
		{"short", "00-abc"},
		{"oversized", valid + strings.Repeat("a", 4096)},
		{"bad version", "99" + valid[2:]},
		{"uppercase trace", strings.ToUpper(valid[:35]) + valid[35:]},
		{"non-hex trace", "00-" + strings.Repeat("zz", 16) + valid[35:]},
		{"zero trace", "00-" + strings.Repeat("0", 32) + valid[35:]},
		{"zero span", valid[:36] + strings.Repeat("0", 16) + valid[52:]},
		{"bad flags", valid[:53] + "7f"},
		{"wrong separators", strings.ReplaceAll(valid, "-", "_")},
		{"injection newline", valid[:53] + "\n1"},
		{"injection header", "00-" + strings.Repeat("a", 32) + "-" + strings.Repeat("a", 7) + "\r\nX-Evil:1"},
		{"garbage right length", strings.Repeat("!", traceHeaderLen)},
	}
}

func TestParseTraceIDStrict(t *testing.T) {
	id := NewTraceID()
	got, err := ParseTraceID(id.String())
	if err != nil || got != id {
		t.Fatalf("round trip: %v err=%v", got, err)
	}
	for _, bad := range []string{"", "abc", strings.Repeat("0", 32),
		strings.Repeat("G", 32), strings.ToUpper(id.String()), id.String() + "00"} {
		if _, err := ParseTraceID(bad); err == nil {
			t.Errorf("ParseTraceID(%q) accepted", bad)
		}
	}
}

func TestNewTraceIDDistinct(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 64; i++ {
		id := NewTraceID()
		if id.IsZero() {
			t.Fatal("zero trace ID minted")
		}
		if seen[id.String()] {
			t.Fatalf("duplicate trace ID %s", id)
		}
		seen[id.String()] = true
	}
}

// TestSpanIDsUniqueAcrossTracers: two tracers (two "nodes") minting
// spans concurrently must not collide — merged fleet traces depend on
// span-ID uniqueness across processes.
func TestSpanIDsUniqueAcrossTracers(t *testing.T) {
	a, b := NewTracer(4096), NewTracer(4096)
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		for _, tr := range []*Tracer{a, b} {
			sp := tr.Start("s")
			if sp.id == 0 {
				t.Fatal("zero span ID")
			}
			if seen[sp.id] {
				t.Fatalf("span ID collision at %d: %016x", i, sp.id)
			}
			seen[sp.id] = true
			sp.End()
		}
	}
}

func TestSpanContextPropagation(t *testing.T) {
	tr := NewTracer(64)
	tid := NewTraceID()
	root := tr.StartTrace("root", tid)
	child := root.Child("child")
	if child.Context().TraceID != tid {
		t.Errorf("child did not inherit trace: %+v", child.Context())
	}
	// Cross-node hop: remote span parents under the propagated context.
	remoteTr := NewTracer(64)
	remote := remoteTr.StartRemote("remote", child.Context())
	if remote.parent != child.id || remote.trace != tid {
		t.Errorf("remote span: parent %016x trace %s, want %016x %s",
			remote.parent, remote.trace, child.id, tid)
	}
	remote.End()
	child.End()
	root.End()

	// Plain spans stay out of traces and report an invalid context.
	plain := tr.Start("plain")
	if plain.Context().Valid() {
		t.Errorf("plain span has a valid trace context")
	}
	plain.End()
	var nilSpan *Span
	if nilSpan.Context().Valid() {
		t.Errorf("nil span has a valid trace context")
	}

	spans := tr.ExportTraceSpans(tid, "node-a")
	if len(spans) != 2 {
		t.Fatalf("ExportTraceSpans: %d spans, want 2 (plain span excluded)", len(spans))
	}
}
