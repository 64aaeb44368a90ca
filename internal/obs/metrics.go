package obs

import (
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Registry holds named metrics. All accessors are idempotent: asking
// for the same (name, labels) twice returns the same metric, so
// call sites need no registration phase. A nil *Registry disables
// every operation.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*family
}

// family groups all label variants of one metric name, with its type
// and help string (Prometheus requires one TYPE/HELP per name).
type family struct {
	name, help, kind string // kind: counter | gauge | histogram
	vars             map[string]any
	order            []string
}

// NewRegistry returns an empty enabled registry.
func NewRegistry() *Registry {
	return &Registry{metrics: map[string]*family{}}
}

// labelKey serializes a label pair list ("k1,v1,k2,v2,...") into a map
// key; pairs must come in a fixed order at each call site.
func labelKey(labels []string) string {
	return strings.Join(labels, "\x00")
}

func (r *Registry) get(name, help, kind string, labels []string, mk func() any) any {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.metrics[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, vars: map[string]any{}}
		r.metrics[name] = f
	}
	k := labelKey(labels)
	v := f.vars[k]
	if v == nil {
		v = mk()
		f.vars[k] = v
		f.order = append(f.order, k)
	}
	return v
}

// Counter is a monotonically increasing counter. Nil-safe.
type Counter struct{ v atomic.Int64 }

// Add increments the counter.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Counter returns (creating if needed) the counter with the given name
// and label pairs (key, value, key, value, ...).
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	v := r.get(name, help, "counter", labels, func() any { return &Counter{} })
	if v == nil {
		return nil
	}
	return v.(*Counter)
}

// Gauge is a callback-backed value read at exposition time. Nil-safe.
type Gauge struct {
	fn func() int64
}

// Value returns the callback's current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.fn()
}

// GaugeFunc registers a callback-backed gauge: its value is read at
// exposition time. Useful for mirroring counters that live elsewhere
// (the service's atomic counters) without double bookkeeping.
func (r *Registry) GaugeFunc(name, help string, fn func() int64, labels ...string) {
	r.get(name, help, "gauge", labels, func() any { return &Gauge{fn: fn} })
}

// histBuckets is the number of log-2 histogram buckets: bucket i counts
// observations v with 2^(i-1) <= v < 2^i (bucket 0 counts v <= 1),
// which covers the full int64 range.
const histBuckets = 64

// Exemplar pairs one observation with the trace that produced it — the
// OpenMetrics exemplar: a bucket's most recent sampled trace ID, the
// jump from "the p99 bucket is hot" to "show me a p99 request".
type Exemplar struct {
	TraceID string `json:"trace_id"`
	Value   int64  `json:"value"`
	UnixNS  int64  `json:"ts_unix_ns"`
}

// Histogram is a log-2-bucketed histogram of non-negative int64
// observations (typically nanoseconds). Observation is lock-free; the
// exposition side reads the atomics with at-least-once consistency,
// which is the usual Prometheus contract. Nil-safe.
type Histogram struct {
	buckets   [histBuckets]atomic.Int64
	count     atomic.Int64
	sum       atomic.Int64
	exemplars [histBuckets]atomic.Pointer[Exemplar]
}

// bucketOf returns the bucket index for v: the bit length of v, so
// bucket boundaries are powers of two.
func bucketOf(v int64) int {
	if v <= 1 {
		return 0
	}
	return bits.Len64(uint64(v - 1))
}

// BucketUpper returns the inclusive upper bound of bucket i (2^i).
func BucketUpper(i int) int64 {
	if i >= 63 {
		return math.MaxInt64
	}
	return int64(1) << uint(i)
}

// Observe records one value (negative values clamp to zero).
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[bucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// ObserveExemplar records one value and, when traceID is non-empty,
// stamps the landing bucket's exemplar with it (last writer wins — the
// bucket retains its most recent sampled trace). The timestamp read
// happens only on the sampled path, so unsampled traffic pays exactly
// Observe's cost.
func (h *Histogram) ObserveExemplar(v int64, traceID string) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	b := bucketOf(v)
	h.buckets[b].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	if traceID != "" {
		h.exemplars[b].Store(&Exemplar{TraceID: traceID, Value: v, UnixNS: time.Now().UnixNano()})
	}
}

// Exemplar returns bucket i's exemplar (nil when the bucket never saw a
// sampled observation). Nil-safe.
func (h *Histogram) Exemplar(i int) *Exemplar {
	if h == nil || i < 0 || i >= histBuckets {
		return nil
	}
	return h.exemplars[i].Load()
}

// Quantile estimates the q-quantile (0 < q <= 1) by locating the
// bucket containing the target rank and interpolating linearly inside
// it. Returns 0 on an empty histogram.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum int64
	for i := 0; i < histBuckets; i++ {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		if float64(cum+n) >= rank {
			lo := int64(0)
			if i > 0 {
				lo = BucketUpper(i - 1)
			}
			hi := BucketUpper(i)
			frac := (rank - float64(cum)) / float64(n)
			return lo + int64(frac*float64(hi-lo))
		}
		cum += n
	}
	return BucketUpper(histBuckets - 1)
}

// Snapshot returns (bucket counts, count, sum) as a consistent-enough
// copy for exposition.
func (h *Histogram) Snapshot() ([histBuckets]int64, int64, int64) {
	var b [histBuckets]int64
	if h == nil {
		return b, 0, 0
	}
	for i := range b {
		b[i] = h.buckets[i].Load()
	}
	return b, h.count.Load(), h.sum.Load()
}

// Histogram returns (creating if needed) the histogram with the given
// name and label pairs.
func (r *Registry) Histogram(name, help string, labels ...string) *Histogram {
	v := r.get(name, help, "histogram", labels, func() any { return &Histogram{} })
	if v == nil {
		return nil
	}
	return v.(*Histogram)
}

// HistExemplar is one histogram bucket's exemplar joined with its
// metric identity — the /v1/metrics JSON form of the OpenMetrics
// `# {trace_id=...}` annotations.
type HistExemplar struct {
	Metric   string            `json:"metric"`
	Labels   map[string]string `json:"labels,omitempty"`
	BucketLE int64             `json:"bucket_le"`
	TraceID  string            `json:"trace_id"`
	Value    int64             `json:"value"`
	UnixNS   int64             `json:"ts_unix_ns"`
}

// TraceExemplars collects every histogram bucket exemplar in the
// registry, ordered by metric name, label set, then bucket bound —
// each row resolves through GET /v1/trace/{trace_id}. Nil-safe.
func (r *Registry) TraceExemplars() []HistExemplar {
	var out []HistExemplar
	for _, f := range r.families() {
		if f.kind != "histogram" {
			continue
		}
		for _, k := range f.order {
			h, ok := f.vars[k].(*Histogram)
			if !ok {
				continue
			}
			var labels map[string]string
			if k != "" {
				pairs := strings.Split(k, "\x00")
				labels = map[string]string{}
				for i := 0; i+1 < len(pairs); i += 2 {
					labels[pairs[i]] = pairs[i+1]
				}
			}
			for i := 0; i < histBuckets; i++ {
				ex := h.Exemplar(i)
				if ex == nil {
					continue
				}
				out = append(out, HistExemplar{
					Metric:   f.name,
					Labels:   labels,
					BucketLE: BucketUpper(i),
					TraceID:  ex.TraceID,
					Value:    ex.Value,
					UnixNS:   ex.UnixNS,
				})
			}
		}
	}
	return out
}

// families returns the metric families sorted by name, for
// deterministic exposition.
func (r *Registry) families() []*family {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*family, 0, len(r.metrics))
	for _, f := range r.metrics {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
