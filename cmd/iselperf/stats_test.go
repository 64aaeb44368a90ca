package main

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{7}, 7},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

// The spread a run set is judged by is Python's
// statistics.quantiles(xs, n=4); these are its answers.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2, 3}, 1.0, 3.0},
		{[]float64{5, 1}, 0.0, 6.0},
		{[]float64{3.5, 1.25, 9.0, 2.0, 7.75, 4.5, 6.0}, 2.0, 7.75},
		{[]float64{10, 20, 30, 40}, 12.5, 37.5},
	} {
		q1, q3, ok := quartiles(c.xs)
		if !ok || math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v", c.xs, q1, q3, ok, c.q1, c.q3)
		}
	}
	if _, ok := iqr([]float64{1}); ok {
		t.Error("iqr of one value should not be defined")
	}
	if d, _ := iqr([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); d != 5.5 {
		t.Errorf("iqr = %v, want 5.5", d)
	}
}

func TestPercentileCountsSamplesBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	v, beyond := percentile(xs, 0.99)
	if v != 990 || beyond != 10 {
		t.Errorf("p99 of 1..1000 = %v with %d beyond, want 990 with 10", v, beyond)
	}
	v, beyond = percentile(xs[:999], 0.99)
	if beyond >= minBeyond {
		t.Errorf("p99 of 999 samples has %d beyond (value %v); the rule needs 1000", beyond, v)
	}
}

// The highest percentile reported is the one with at least ten samples
// beyond it.
func TestHighestTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10000, 0.999},
		{9999, 0.99},
		{1000, 0.99},
		{999, 0.95},
		{200, 0.95},
		{100, 0.90},
		{99, 0.50},
		{20, 0.50},
		{19, 0},
	} {
		if got := highestTail(c.n); got != c.want {
			t.Errorf("highestTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestOpenLoopSchedule(t *testing.T) {
	if got := scheduled(1200, 12*time.Second); got != 14400 {
		t.Errorf("scheduled(1200/s, 12s) = %d, want 14400", got)
	}
	if got := dueAt(3, 1200); got != 2500*time.Microsecond {
		t.Errorf("dueAt(3, 1200/s) = %v, want 2.5ms", got)
	}
	if got := dueAt(90, 90); got != time.Second {
		t.Errorf("dueAt(90, 90/s) = %v, want 1s", got)
	}
	if got := lateness(5*time.Millisecond, 2*time.Millisecond); got != 3*time.Millisecond {
		t.Errorf("lateness = %v, want 3ms", got)
	}
	if got := lateness(time.Millisecond, 2*time.Millisecond); got != 0 {
		t.Errorf("an early send should count as on time, got %v", got)
	}
}

// A stalled request delays the ones queued behind it on the same
// connection; timing from the due time charges them for the wait, and the
// generator reports itself late.
func TestOpenLoopChargesQueueingToLatency(t *testing.T) {
	stalled := make(chan struct{}, 1)
	stalled <- struct{}{}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-stalled:
			time.Sleep(60 * time.Millisecond)
		default:
		}
		w.Write([]byte(`{}`))
	}))
	defer srv.Close()
	c := newClient()
	defer c.CloseIdleConnections()
	reads := openLoop(context.Background(), c, srv.URL, [][]byte{[]byte(`{}`)}, 0, 200, 200*time.Millisecond, 1)
	if len(reads) != 40 {
		t.Fatalf("sent %d requests, want 40", len(reads))
	}
	for i, s := range reads {
		if s.err != nil {
			t.Fatalf("request %d: %v", i, s.err)
		}
	}
	if got := reads[0].latency(); got < 60*time.Millisecond {
		t.Errorf("stalled request latency %v, want >= 60ms", got)
	}
	// Request 1 was due at 5 ms but could only start after the stall.
	if late := lateness(reads[1].start, reads[1].due); late < 40*time.Millisecond {
		t.Errorf("request 1 ran %v late, want >= 40ms behind a 60ms stall", late)
	}
	if got := reads[1].latency(); got < 50*time.Millisecond {
		t.Errorf("request 1 latency %v from its due time, want >= 50ms", got)
	}
}

// Failed and refused requests are attempts with no answer: they count in
// the error ratio and lie beyond every percentile.
func TestTallyFailureAccounting(t *testing.T) {
	var tl tally
	for i := 0; i < 95; i++ {
		tl.ok(time.Duration(i+1) * time.Millisecond)
	}
	for i := 0; i < 5; i++ {
		tl.fail()
	}
	if tl.attempted() != 100 || tl.failed != 5 {
		t.Fatalf("attempted %d failed %d, want 100 and 5", tl.attempted(), tl.failed)
	}
	if got := tl.errorRatio(); got != 0.05 {
		t.Errorf("error ratio %v, want 0.05", got)
	}
	if v, _ := tl.percentile(0.99); !math.IsInf(v, 1) {
		t.Errorf("p99 with 5%% failures = %v, want +Inf (a failure misses every limit)", v)
	}
	if v, _ := tl.percentile(0.95); v != 95 {
		t.Errorf("p95 = %v, want 95 (the slowest answered request)", v)
	}
	if got := tl.median(); got != 50.5 {
		t.Errorf("median = %v, want 50.5", got)
	}
}
