// Package obs is the zero-dependency observability layer for the whole
// synthesis/selection pipeline: a hierarchical span tracer with
// Chrome/Perfetto trace-event export (trace.go), a metrics registry with
// counters, gauges, and log-bucketed latency histograms exposed in
// Prometheus text format (metrics.go, prom.go), and decision-provenance
// event logs recording *why* the pipeline did what it did — per-SMT-query
// solver statistics and per-instruction selection decisions
// (provenance.go).
//
// Everything is nil-safe: a nil *Obs, *Tracer, *Registry, *ProvLog, or
// *Span turns every call into a no-op, so instrumented code pays only a
// nil check on the hot path when observability is disabled. Sites that
// must measure a duration regardless of tracing (the core stage timers
// that feed core.Stats) use Timed, which reads the clock once and feeds
// both the span and the caller — the trace and the stats can never
// drift apart.
package obs

// Obs bundles the three observability facilities. Any field may be nil
// to disable that facility; a nil *Obs disables all three.
type Obs struct {
	Trace   *Tracer
	Metrics *Registry
	Prov    *ProvLog
}

// New returns an Obs with all three facilities enabled at default
// capacities.
func New() *Obs {
	return &Obs{
		Trace:   NewTracer(0),
		Metrics: NewRegistry(),
		Prov:    NewProvLog(0, 0),
	}
}

// Tracer returns the tracer (nil-safe).
func (o *Obs) TracerOrNil() *Tracer {
	if o == nil {
		return nil
	}
	return o.Trace
}

// MetricsOrNil returns the registry (nil-safe).
func (o *Obs) MetricsOrNil() *Registry {
	if o == nil {
		return nil
	}
	return o.Metrics
}

// ProvOrNil returns the provenance log (nil-safe).
func (o *Obs) ProvOrNil() *ProvLog {
	if o == nil {
		return nil
	}
	return o.Prov
}
