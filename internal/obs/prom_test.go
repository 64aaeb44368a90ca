package obs_test

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"iselgen/internal/obs"
	"iselgen/internal/obs/obstest"
)

// TestWritePromRoundTrip is the exposition-format contract test: write a
// registry with all three metric kinds, then run the output through the
// strict parser (the same one the service and cluster tests use).
func TestWritePromRoundTrip(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("iseld_requests_total", "requests served", "path", "/v1/select", "status", "200").Add(17)
	r.Counter("iseld_requests_total", "requests served", "path", "/v1/metrics", "status", "200").Add(3)
	r.GaugeFunc("iseld_queue_depth", "jobs waiting", func() int64 { return 2 })
	h := r.Histogram("smt_query_duration_ns", "per-query solver latency", "result", "equal")
	for _, v := range []int64{3, 5, 900, 70_000, 70_000, 2_000_000} {
		h.Observe(v)
	}

	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	if err := r.WritePromQuantiles(&buf); err != nil {
		t.Fatalf("WritePromQuantiles: %v", err)
	}
	text := buf.String()

	fams, err := obstest.ParseProm(text)
	if err != nil {
		t.Fatalf("exposition failed strict parse: %v\n%s", err, text)
	}

	cf := fams["iseld_requests_total"]
	if cf == nil || cf.Type != "counter" {
		t.Fatalf("counter family missing or mistyped: %+v", cf)
	}
	if len(cf.Samples) != 2 {
		t.Fatalf("counter samples = %d, want 2 label sets", len(cf.Samples))
	}
	var got17 bool
	for _, s := range cf.Samples {
		if s.Labels["path"] == "/v1/select" && s.Value == 17 {
			got17 = true
		}
	}
	if !got17 {
		t.Errorf("counter value for /v1/select not 17: %+v", cf.Samples)
	}

	gf := fams["iseld_queue_depth"]
	if gf == nil || gf.Type != "gauge" || len(gf.Samples) != 1 || gf.Samples[0].Value != 2 {
		t.Fatalf("gauge family wrong: %+v", gf)
	}

	hf := fams["smt_query_duration_ns"]
	if hf == nil || hf.Type != "histogram" {
		t.Fatalf("histogram family missing or mistyped: %+v", hf)
	}
	// obstest.ParseProm already validated cumulativity and +Inf == _count; spot
	// check count and sum values survive the text round trip.
	var cnt, sum float64
	for _, s := range hf.Samples {
		switch {
		case strings.HasSuffix(s.Name, "_count"):
			cnt = s.Value
		case strings.HasSuffix(s.Name, "_sum"):
			sum = s.Value
		}
	}
	if cnt != 6 || sum != 2140908 {
		t.Errorf("histogram count/sum = %v/%v, want 6/2140908", cnt, sum)
	}

	// Quantile companion families must parse as gauges and be ordered
	// p50 <= p90 <= p99.
	var p50, p99 float64
	for _, suf := range []string{"_p50", "_p90", "_p99"} {
		qf := fams["smt_query_duration_ns"+suf]
		if qf == nil || qf.Type != "gauge" || len(qf.Samples) != 1 {
			t.Fatalf("quantile family %s missing: %+v", suf, qf)
		}
		switch suf {
		case "_p50":
			p50 = qf.Samples[0].Value
		case "_p99":
			p99 = qf.Samples[0].Value
		}
	}
	if p50 > p99 {
		t.Errorf("p50 %v > p99 %v", p50, p99)
	}
}

// TestWritePromEscaping checks label-value and help escaping survives a
// round trip through the parser.
func TestWritePromEscaping(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("weird_total", `help with \ backslash`, "spec", "a\"b\\c\nd", "route", "/v1/trace/{traceId}").Add(1)
	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	fams, err := obstest.ParseProm(buf.String())
	if err != nil {
		t.Fatalf("escaped exposition failed parse: %v\n%s", err, buf.String())
	}
	f := fams["weird_total"]
	if len(f.Samples) != 1 {
		t.Fatalf("samples = %+v", f.Samples)
	}
	if got := f.Samples[0].Labels["spec"]; got != "a\"b\\c\nd" {
		t.Errorf("label value round-trip: got %q", got)
	}
	if got := f.Samples[0].Labels["route"]; got != "/v1/trace/{traceId}" {
		t.Errorf("braces inside a label value: got %q", got)
	}
}

// TestParsePromRejectsMalformed ensures the validator actually rejects
// the failure modes it exists to catch, so the tests that pass /metrics
// output through it prove something.
func TestParsePromRejectsMalformed(t *testing.T) {
	cases := []struct {
		name, text string
	}{
		{"sample before TYPE", "foo 1\n"},
		{"bad metric name", "# HELP 9bad x\n# TYPE 9bad counter\n9bad 1\n"},
		{"bad type", "# HELP a x\n# TYPE a banana\na 1\n"},
		{"duplicate TYPE", "# TYPE a counter\n# TYPE a counter\na 1\n"},
		{"no value", "# HELP a x\n# TYPE a counter\na\n"},
		{"unquoted label", `# TYPE a counter` + "\n" + `a{k=v} 1` + "\n"},
		{"non-cumulative buckets", "# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 9\nh_count 5\n"},
		{"inf != count", "# TYPE h histogram\n" +
			"h_bucket{le=\"+Inf\"} 4\nh_sum 9\nh_count 5\n"},
		{"missing sum", "# TYPE h histogram\n" +
			"h_bucket{le=\"+Inf\"} 5\nh_count 5\n"},
		{"le not increasing", "# TYPE h histogram\n" +
			"h_bucket{le=\"4\"} 1\nh_bucket{le=\"2\"} 2\nh_bucket{le=\"+Inf\"} 2\nh_sum 3\nh_count 2\n"},
	}
	for _, c := range cases {
		if _, err := obstest.ParseProm(c.text); err == nil {
			t.Errorf("%s: obstest.ParseProm accepted malformed input:\n%s", c.name, c.text)
		}
	}
}

// TestParsePromValues checks the special float values the text format
// allows.
func TestParsePromValues(t *testing.T) {
	text := "# HELP v x\n# TYPE v gauge\nv{k=\"inf\"} +Inf\nv{k=\"nan\"} NaN\nv{k=\"neg\"} -3.5\n"
	fams, err := obstest.ParseProm(text)
	if err != nil {
		t.Fatalf("ParseProm: %v", err)
	}
	for _, s := range fams["v"].Samples {
		switch s.Labels["k"] {
		case "inf":
			if !math.IsInf(s.Value, 1) {
				t.Errorf("+Inf parsed as %v", s.Value)
			}
		case "nan":
			if !math.IsNaN(s.Value) {
				t.Errorf("NaN parsed as %v", s.Value)
			}
		case "neg":
			if s.Value != -3.5 {
				t.Errorf("-3.5 parsed as %v", s.Value)
			}
		}
	}
}

// TestWritePromEmptyHistogram: a histogram with zero observations must
// still satisfy the validator (it emits only +Inf, _sum, _count).
func TestWritePromEmptyHistogram(t *testing.T) {
	r := obs.NewRegistry()
	r.Histogram("quiet_ns", "never observed")
	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	if _, err := obstest.ParseProm(buf.String()); err != nil {
		t.Fatalf("empty histogram exposition invalid: %v\n%s", err, buf.String())
	}
}
