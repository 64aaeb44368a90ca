package service

import (
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"iselgen/internal/obs"
)

// ridKey is the context key carrying the request ID into detached
// synthesis jobs and peer fills.
type ridKey struct{}

// WithRequestID returns ctx carrying a request ID.
func WithRequestID(ctx context.Context, rid string) context.Context {
	if rid == "" {
		return ctx
	}
	return context.WithValue(ctx, ridKey{}, rid)
}

// RequestIDFrom extracts the request ID a handler's context carries
// ("" outside a request).
func RequestIDFrom(ctx context.Context) string {
	rid, _ := ctx.Value(ridKey{}).(string)
	return rid
}

// tcKey is the context key carrying the sampled trace context into
// detached jobs and peer fills.
type tcKey struct{}

// WithTraceContext returns ctx carrying a trace context. Invalid
// contexts are not stored — absence means "not sampled".
func WithTraceContext(ctx context.Context, tc obs.TraceContext) context.Context {
	if !tc.Valid() {
		return ctx
	}
	return context.WithValue(ctx, tcKey{}, tc)
}

// TraceContextFrom extracts the sampled trace context a handler's
// context carries; ok=false outside a sampled request.
func TraceContextFrom(ctx context.Context) (obs.TraceContext, bool) {
	tc, ok := ctx.Value(tcKey{}).(obs.TraceContext)
	return tc, ok
}

// maxRequestIDLen bounds accepted client-supplied request IDs.
const maxRequestIDLen = 64

// cleanRequestID accepts a client- or peer-supplied X-Request-Id if it
// is short and printable-safe (no header/log injection); anything else
// is discarded and a fresh ID is minted.
func cleanRequestID(rid string) string {
	if rid == "" || len(rid) > maxRequestIDLen {
		return ""
	}
	for i := 0; i < len(rid); i++ {
		c := rid[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.', c == ':':
		default:
			return ""
		}
	}
	return rid
}

// BuildInfo identifies the serving binary: Go toolchain version and,
// when the binary was built inside a VCS checkout, the revision it was
// built from. Reported in /v1/metrics so a scrape can always tell which
// code produced the numbers.
type BuildInfo struct {
	GoVersion   string `json:"go_version"`
	VCSRevision string `json:"vcs_revision,omitempty"`
	VCSTime     string `json:"vcs_time,omitempty"`
	VCSModified bool   `json:"vcs_modified,omitempty"`
}

// readBuildInfo extracts build identity from the binary's embedded
// build information (absent under `go test`, in which case only the
// runtime version is filled in).
func readBuildInfo() BuildInfo {
	bi := BuildInfo{GoVersion: runtime.Version()}
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return bi
	}
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			bi.VCSRevision = s.Value
		case "vcs.time":
			bi.VCSTime = s.Value
		case "vcs.modified":
			bi.VCSModified = s.Value == "true"
		}
	}
	return bi
}

// statusWriter captures the response status for the access log.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// sampleRequest decides whether a request without an incoming trace
// context starts a new sampled trace (per Config.TraceSample).
func (sv *Server) sampleRequest() bool {
	switch {
	case sv.sample >= 1:
		return true
	case sv.sample <= 0:
		return false
	}
	return rand.Float64() < sv.sample
}

// withObs serves r through the route mux inside the request
// middleware: it adopts the caller's X-Request-Id (so one user request
// keeps its identity across peer-filled hops) or assigns one, echoes it
// back, threads it into the request context for detached jobs, opens a
// per-request span, feeds the request-latency histogram and request
// counter (labelled by route), and emits one structured access-log line
// (with the raw path). For distributed tracing it extracts a
// strictly validated X-Iseld-Trace context (hostile or malformed values
// are discarded and a fresh context minted — the cleanRequestID
// contract), parents the request span under the caller's span, echoes
// the trace header back, threads the context to every outbound hop, and
// stamps the latency bucket's exemplar with the trace ID. Every piece
// degrades to a no-op when its sink is absent; unsampled requests
// behave exactly as if tracing did not exist.
func (sv *Server) withObs(w http.ResponseWriter, r *http.Request) {
	rid := cleanRequestID(r.Header.Get("X-Request-Id"))
	if rid == "" {
		rid = fmt.Sprintf("req-%06d", sv.reqID.Add(1))
	}
	w.Header().Set("X-Request-Id", rid)
	ctx := WithRequestID(r.Context(), rid)

	tr := sv.obsv.TracerOrNil()
	var sp *obs.Span
	var tc obs.TraceContext
	sampled := false
	if tr != nil {
		name := "http " + r.Method + " " + r.URL.Path
		if in, err := obs.ParseTraceHeader(r.Header.Get(obs.TraceHeader)); err == nil {
			if in.Sampled {
				sp = tr.StartRemote(name, in)
				sampled = true
			} else {
				// The caller made a sampling decision; respect it.
				sp = tr.Start(name)
			}
		} else if sv.sampleRequest() {
			sp = tr.StartTrace(name, obs.NewTraceID())
			sampled = true
		} else {
			sp = tr.Start(name)
		}
		sp.SetStr("request_id", rid)
	}
	if sampled {
		tc = sp.Context()
		w.Header().Set(obs.TraceHeader, tc.Header())
		ctx = WithTraceContext(ctx, tc)
	}
	r = r.WithContext(ctx)

	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	t0 := time.Now()
	sv.mux.ServeHTTP(sw, r)
	d := time.Since(t0)
	sp.SetInt("status", int64(sw.status)).EndWith(d)
	if m := sv.obsv.MetricsOrNil(); m != nil {
		route := sv.routeLabel(r)
		h := m.Histogram("http_request_duration_ns",
			"HTTP request latency", "path", route)
		if sampled {
			h.ObserveExemplar(d.Nanoseconds(), tc.TraceID.String())
		} else {
			h.Observe(d.Nanoseconds())
		}
		m.Counter("http_requests_total",
			"HTTP requests served", "path", route, "status", itoaStatus(sw.status)).Add(1)
	}
	if sv.logger != nil {
		args := []any{
			"id", rid,
			"method", r.Method,
			"path", r.URL.Path,
			"status", sw.status,
			"dur_ms", float64(d.Nanoseconds()) / 1e6,
			"remote", r.RemoteAddr,
		}
		if sampled {
			args = append(args, "trace", tc.TraceID.String())
		}
		sv.logger.Info("request", args...)
	}
}

// routeLabel is the path label of r's request metrics: the path of the
// route the mux matches (GET /v1/trace/{traceId} → /v1/trace/{traceId}),
// or "unmatched". The raw path would mint a counter and a histogram
// series per trace ID, rule fingerprint and made-up 404 path, never to be
// freed. The route comes from ServeMux.Handler rather than
// Request.Pattern, which Go 1.22 does not set.
func (sv *Server) routeLabel(r *http.Request) string {
	_, route := sv.mux.Handler(r)
	if route == "" {
		return "unmatched"
	}
	if i := strings.IndexByte(route, ' '); i >= 0 {
		route = route[i+1:] // drop the method
	}
	return route
}

// itoaStatus formats the small set of HTTP statuses without fmt.
func itoaStatus(s int) string {
	b := [3]byte{byte('0' + s/100%10), byte('0' + s/10%10), byte('0' + s%10)}
	return string(b[:])
}

// registerObsRoutes mounts the observability surface: Prometheus text
// exposition, the Chrome trace-event dump of recent spans, and pprof.
func (sv *Server) registerObsRoutes() {
	sv.mux.HandleFunc("GET /metrics", sv.handleProm)
	sv.mux.HandleFunc("GET /v1/trace", sv.handleTrace)
	sv.mux.HandleFunc("GET /v1/trace/{traceId}", sv.handleTraceByID)
	sv.mux.HandleFunc("/debug/pprof/", pprof.Index)
	sv.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	sv.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	sv.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	sv.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// handleProm serves the metrics registry in Prometheus text format
// 0.0.4, histogram quantile gauges included. With no registry attached
// the body is empty but still well-formed.
//
// Exemplar annotations are not valid 0.0.4 — a classic Prometheus
// scraper rejects the whole scrape on the first annotated bucket line —
// so they are served only on explicit opt-in via ?exemplars=1, which
// switches the response to OpenMetrics-style exposition (OpenMetrics
// content type, `# EOF` terminator). The gate is a query parameter
// rather than Accept negotiation on purpose: the emitter is only
// OpenMetrics-*style* (bare counter names, no _total suffixes), so
// advertising it to a negotiating Prometheus server would trade one
// scrape failure for another.
func (sv *Server) handleProm(w http.ResponseWriter, r *http.Request) {
	exemplars := r.URL.Query().Get("exemplars") == "1"
	if exemplars {
		w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
	} else {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	}
	m := sv.obsv.MetricsOrNil()
	if m == nil {
		return
	}
	if exemplars {
		m.WritePromExemplars(w)
		m.WritePromQuantiles(w)
		io.WriteString(w, "# EOF\n")
		return
	}
	m.WriteProm(w)
	m.WritePromQuantiles(w)
}

// handleTrace serves the tracer's recent spans as Chrome trace-event
// JSON (load into chrome://tracing or Perfetto).
func (sv *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	tr := sv.obsv.TracerOrNil()
	if tr == nil {
		sv.fail(w, http.StatusNotFound, errNoTracer)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	tr.WriteTraceJSON(w)
}

// registerGauges mirrors the service's atomic counters into the
// registry as callback gauges, so the Prometheus surface and the JSON
// /v1/metrics snapshot read the same storage and cannot disagree.
func (sv *Server) registerGauges() {
	m := sv.obsv.MetricsOrNil()
	if m == nil {
		return
	}
	mirror := func(name, help string, fn func() int64) {
		m.GaugeFunc("iseld_"+name, help, fn)
	}
	mirror("cache_hits", "requests served from the in-memory cache",
		func() int64 { return int64(sv.metrics.CacheHits.Load()) })
	mirror("disk_hits", "requests served from the disk artifact layer",
		func() int64 { return int64(sv.metrics.DiskHits.Load()) })
	mirror("joins", "requests deduplicated onto an in-flight synthesis",
		func() int64 { return int64(sv.metrics.Joins.Load()) })
	mirror("synth_runs", "full synthesis executions",
		func() int64 { return int64(sv.metrics.SynthRuns.Load()) })
	mirror("incr_runs", "incremental resyntheses from a lineage's resident entry",
		func() int64 { return int64(sv.metrics.IncrRuns.Load()) })
	mirror("partial_results", "deadline-curtailed synthesis results",
		func() int64 { return int64(sv.metrics.PartialRes.Load()) })
	mirror("errors", "requests answered with an error status",
		func() int64 { return int64(sv.metrics.Errors.Load()) })
	mirror("selections", "programs selected with no fallback and no error",
		func() int64 { return int64(sv.metrics.Selections.Load()) })
	mirror("peer_fills", "cache misses filled from a peer replica",
		func() int64 { return int64(sv.metrics.PeerFills.Load()) })
	mirror("artifacts_served", "artifact fills served to peer replicas",
		func() int64 { return int64(sv.metrics.ArtifactServed.Load()) })
	mirror("batch_programs", "programs received through /v1/select/batch",
		func() int64 { return int64(sv.metrics.BatchPrograms.Load()) })
	mirror("cached_entries", "libraries resident in the memory cache",
		func() int64 { return int64(sv.store.MemLen()) })
	mirror("queue_depth", "synthesis jobs waiting in the queue",
		func() int64 { return int64(sv.sched.QueueDepth()) })
	mirror("in_flight", "synthesis jobs running now",
		func() int64 { return sv.sched.InFlight() })
	mirror("uptime_seconds", "seconds since the server started",
		func() int64 { return int64(time.Since(sv.start).Seconds()) })
}
