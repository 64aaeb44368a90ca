package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one span attribute. Exactly one of Str/Int is meaningful,
// selected by IsInt — a tagged pair avoids interface boxing on the
// recording path.
type Attr struct {
	Key   string
	Str   string
	Int   int64
	IsInt bool
}

// SpanRecord is one completed span as stored in the tracer's ring.
type SpanRecord struct {
	Name   string
	ID     uint64
	Parent uint64 // 0 = root
	Lane   uint64 // thread-ID analog for trace viewers: the root span's ID
	Trace  TraceID
	Start  time.Duration
	Dur    time.Duration
	Attrs  []Attr
}

// Tracer records hierarchical spans into a bounded ring buffer using a
// monotonic clock. The zero value is not usable; a nil *Tracer disables
// tracing (Start returns a nil *Span whose methods no-op).
type Tracer struct {
	base   time.Time // monotonic reference; span offsets are Since(base)
	wall   time.Time // wall-clock at base, for absolute-time export
	idBase uint64    // random per-tracer base mixed into span IDs
	nextID atomic.Uint64

	mu   sync.Mutex
	ring []SpanRecord
	head int // next write position
	n    int // occupied entries
}

// DefaultRingCap bounds the span ring when NewTracer is given 0.
const DefaultRingCap = 8192

// NewTracer returns an enabled tracer whose ring holds up to cap
// completed spans (0 = DefaultRingCap). Older spans are overwritten.
func NewTracer(cap int) *Tracer {
	if cap <= 0 {
		cap = DefaultRingCap
	}
	now := time.Now()
	return &Tracer{base: now, wall: now, idBase: randUint64(), ring: make([]SpanRecord, 0, cap)}
}

// Span is one in-progress span. A nil *Span no-ops every method, so
// callers never branch on whether tracing is enabled.
type Span struct {
	tr     *Tracer
	name   string
	id     uint64
	parent uint64
	lane   uint64
	trace  TraceID
	start  time.Duration
	attrs  []Attr
}

// Start begins a root span outside any trace. Nil-safe: a nil tracer
// returns a nil span without reading the clock.
func (t *Tracer) Start(name string) *Span {
	if t == nil {
		return nil
	}
	return t.startAt(name, 0, 0, TraceID{}, time.Since(t.base))
}

// StartTrace begins the root span of a new trace (the request-span root
// a sampled request without an incoming context gets).
func (t *Tracer) StartTrace(name string, tid TraceID) *Span {
	if t == nil {
		return nil
	}
	return t.startAt(name, 0, 0, tid, time.Since(t.base))
}

// StartRemote begins a span whose parent lives on another node (or in
// another goroutine's context): the span joins tc's trace as a child of
// tc's span. Nil-safe.
func (t *Tracer) StartRemote(name string, tc TraceContext) *Span {
	if t == nil {
		return nil
	}
	return t.startAt(name, tc.SpanID, 0, tc.TraceID, time.Since(t.base))
}

// startAt mints a span. Span IDs are the tracer's random base mixed
// with a sequence counter through splitmix64, so IDs are unique within
// a process AND collision-free across nodes when spans from the whole
// fleet merge into one trace (0 is reserved for "no parent").
func (t *Tracer) startAt(name string, parent, lane uint64, trace TraceID, off time.Duration) *Span {
	id := splitmix64(t.idBase ^ (t.nextID.Add(1) * 0x9e3779b97f4a7c15))
	if id == 0 {
		id = 1
	}
	if lane == 0 {
		lane = id
	}
	return &Span{tr: t, name: name, id: id, parent: parent, lane: lane, trace: trace, start: off}
}

// Child begins a sub-span of s, inheriting its trace (nil-safe).
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.tr.startAt(name, s.id, s.lane, s.trace, time.Since(s.tr.base))
}

// Context returns the trace context for propagating s across a node or
// goroutine boundary: children created from it (StartRemote) parent
// under s. The zero TraceContext (Valid()==false) is returned for nil
// spans and spans outside any trace.
func (s *Span) Context() TraceContext {
	if s == nil || s.trace.IsZero() {
		return TraceContext{}
	}
	return TraceContext{TraceID: s.trace, SpanID: s.id, Sampled: true}
}

// SetStr attaches a string attribute (nil-safe).
func (s *Span) SetStr(key, val string) *Span {
	if s != nil {
		s.attrs = append(s.attrs, Attr{Key: key, Str: val})
	}
	return s
}

// SetInt attaches an integer attribute (nil-safe).
func (s *Span) SetInt(key string, val int64) *Span {
	if s != nil {
		s.attrs = append(s.attrs, Attr{Key: key, Int: val, IsInt: true})
	}
	return s
}

// End completes the span and commits it to the ring (nil-safe).
func (s *Span) End() {
	if s == nil {
		return
	}
	s.EndWith(time.Since(s.tr.base) - s.start)
}

// EndWith completes the span with an externally measured duration —
// used by Timed so the span and the caller's stats share one clock
// reading (nil-safe).
func (s *Span) EndWith(d time.Duration) {
	if s == nil {
		return
	}
	s.tr.commit(SpanRecord{
		Name: s.name, ID: s.id, Parent: s.parent, Lane: s.lane, Trace: s.trace,
		Start: s.start, Dur: d, Attrs: s.attrs,
	})
}

func (t *Tracer) commit(rec SpanRecord) {
	t.mu.Lock()
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, rec)
		t.head = len(t.ring) % cap(t.ring)
		t.n++
	} else {
		t.ring[t.head] = rec
		t.head = (t.head + 1) % cap(t.ring)
	}
	t.mu.Unlock()
}

// Snapshot returns the completed spans, oldest first.
func (t *Tracer) Snapshot() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanRecord, 0, t.n)
	if t.n < cap(t.ring) {
		out = append(out, t.ring[:t.n]...)
		return out
	}
	out = append(out, t.ring[t.head:]...)
	out = append(out, t.ring[:t.head]...)
	return out
}

// Reset discards all recorded spans (capacity and clock base are kept).
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.ring = t.ring[:0]
	t.head, t.n = 0, 0
	t.mu.Unlock()
}

// Timing couples a span with a direct clock reading so span durations
// and caller-maintained stats derive from the same measurement.
type Timing struct {
	sp *Span
	t0 time.Time
}

// Timed reads the clock and, when tr is enabled, starts a span. The
// clock read happens regardless of tracing — Timed is for sites that
// feed timing stats whether or not a tracer is attached.
func Timed(tr *Tracer, name string) Timing {
	var sp *Span
	if tr != nil {
		sp = tr.Start(name)
	}
	return Timing{sp: sp, t0: time.Now()}
}

// Span returns the underlying span (nil when the tracer was disabled)
// so callers can attach attributes before Done.
func (tm Timing) Span() *Span { return tm.sp }

// Done ends the span (if any) and returns the elapsed duration; span
// and return value are the same number.
func (tm Timing) Done() time.Duration {
	d := time.Since(tm.t0)
	tm.sp.EndWith(d)
	return d
}
