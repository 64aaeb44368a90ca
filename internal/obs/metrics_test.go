package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// TestBucketOf pins the log-2 bucket boundaries: bucket i covers
// (2^(i-1), 2^i], with everything <= 1 in bucket 0.
func TestBucketOf(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 0},
		{2, 1},
		{3, 2}, {4, 2},
		{5, 3}, {8, 3},
		{9, 4}, {16, 4},
		{17, 5},
		{1024, 10}, {1025, 11},
		{math.MaxInt64, 63},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

// TestBucketUpperCoversBucketOf checks the pairing invariant the
// Prometheus exposition relies on: every v lands in a bucket whose
// upper bound is >= v, and (for v > 1) whose predecessor's bound is < v.
func TestBucketUpperCoversBucketOf(t *testing.T) {
	for _, v := range []int64{1, 2, 3, 4, 5, 7, 8, 9, 1000, 1 << 20, 1<<40 + 3, math.MaxInt64} {
		i := bucketOf(v)
		if up := BucketUpper(i); up < v {
			t.Errorf("v=%d: BucketUpper(%d)=%d < v", v, i, up)
		}
		if i > 0 {
			if lo := BucketUpper(i - 1); lo >= v {
				t.Errorf("v=%d: BucketUpper(%d)=%d >= v (wrong bucket)", v, i-1, lo)
			}
		}
	}
	if BucketUpper(63) != math.MaxInt64 || BucketUpper(100) != math.MaxInt64 {
		t.Errorf("BucketUpper must saturate at MaxInt64 for i >= 63")
	}
}

func TestHistogramObserveAndSnapshot(t *testing.T) {
	h := &Histogram{}
	for _, v := range []int64{1, 2, 3, 4, 100, -7} {
		h.Observe(v)
	}
	buckets, count, sum := h.Snapshot()
	if count != 6 {
		t.Fatalf("count = %d, want 6", count)
	}
	if sum != 110 { // -7 clamps to 0
		t.Fatalf("sum = %d, want 110", sum)
	}
	// -7→0 and 1 in bucket 0; 2 in bucket 1; 3 and 4 in bucket 2; 100 in bucket 7.
	wantBuckets := map[int]int64{0: 2, 1: 1, 2: 2, 7: 1}
	for i, n := range buckets {
		if n != wantBuckets[i] {
			t.Errorf("bucket %d = %d, want %d", i, n, wantBuckets[i])
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := &Histogram{}
	if h.Quantile(0.5) != 0 {
		t.Errorf("empty histogram quantile should be 0")
	}
	// 100 observations of exactly 8: every quantile interpolates inside
	// bucket 3, i.e. lands in (4, 8].
	for i := 0; i < 100; i++ {
		h.Observe(8)
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 1.0} {
		got := h.Quantile(q)
		if got <= 4 || got > 8 {
			t.Errorf("Quantile(%v) = %d, want in (4, 8]", q, got)
		}
	}
	// Skewed: 99 small values and 1 huge one. p50 must stay small, p100
	// must land in the huge value's bucket.
	h2 := &Histogram{}
	for i := 0; i < 99; i++ {
		h2.Observe(1)
	}
	h2.Observe(1 << 30)
	if got := h2.Quantile(0.5); got > 1 {
		t.Errorf("p50 = %d, want <= 1", got)
	}
	if got := h2.Quantile(1.0); got <= 1<<29 {
		t.Errorf("p100 = %d, want in the 2^30 bucket", got)
	}
}

func TestRegistryIdempotent(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("x_total", "help", "k", "v")
	c2 := r.Counter("x_total", "help", "k", "v")
	if c1 != c2 {
		t.Fatalf("same (name, labels) must return the same counter")
	}
	c3 := r.Counter("x_total", "help", "k", "w")
	if c1 == c3 {
		t.Fatalf("different labels must return a different counter")
	}
	c1.Add(2)
	c2.Add(3)
	if c1.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c1.Value())
	}

	n := int64(41)
	r.GaugeFunc("cb", "help", func() int64 { return n })
	n++
	var buf strings.Builder
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "\ncb 42\n") {
		t.Fatalf("GaugeFunc must evaluate at read time, want cb 42:\n%s", buf.String())
	}
}

// TestNilMetricsSafe proves the disabled path: every operation on nil
// receivers is a no-op rather than a panic.
func TestNilMetricsSafe(t *testing.T) {
	var r *Registry
	r.Counter("a", "h").Add(1)
	r.GaugeFunc("c", "h", func() int64 { return 1 })
	r.Histogram("d", "h").Observe(1)
	if r.families() != nil {
		t.Errorf("nil registry families() must be nil")
	}
	var h *Histogram
	h.Observe(5)
	if h.Quantile(0.5) != 0 {
		t.Errorf("nil histogram accessors must return 0")
	}
	if _, c, s := h.Snapshot(); c != 0 || s != 0 {
		t.Errorf("nil histogram snapshot must be empty")
	}
	var o *Obs
	if o.TracerOrNil() != nil || o.MetricsOrNil() != nil || o.ProvOrNil() != nil {
		t.Errorf("nil Obs accessors must return nil")
	}
}

// TestMetricsConcurrent exercises the lock-free observation path and the
// registry's idempotent lookups under -race.
func TestMetricsConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("hits_total", "h").Add(1)
				r.Histogram("lat_ns", "h", "w", "x").Observe(int64(i))
				if g%2 == 0 {
					r.WriteProm(discard{})
				}
			}
		}(g)
	}
	wg.Wait()
	if got := r.Counter("hits_total", "h").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if _, got, _ := r.Histogram("lat_ns", "h", "w", "x").Snapshot(); got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
