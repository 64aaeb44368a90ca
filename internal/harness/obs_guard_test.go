package harness

import (
	"testing"
	"time"

	"iselgen/internal/core"
	"iselgen/internal/isel"
	"iselgen/internal/obs"
	"iselgen/internal/solver"
)

// disabledGuardPct is the ceiling on the estimated cost of the
// instrumentation sites a synthesis passes through when no Obs is
// attached, as a share of untraced synthesis time.
const disabledGuardPct = 2.0

// guardRingCap sizes the traced run's span and provenance rings above
// what one synthesis of a builtin target records.
const guardRingCap = 1 << 14

// nilOpNS measures one fully disabled instrumentation site, the
// distributed-tracing calls included: a span start on a nil tracer, an
// attribute set, an end, a remote span start from a trace context, its
// end, and a bucket-exemplar observation on a nil histogram — the calls
// the pipeline and the cluster hops make when no Obs is attached.
func nilOpNS() float64 {
	var tr *obs.Tracer
	var h *obs.Histogram
	var sink *obs.Span
	const n = 1 << 21
	t0 := time.Now()
	for i := 0; i < n; i++ {
		sp := tr.Start("bench")
		sp.SetInt("k", int64(i))
		sp.End()
		rsp := tr.StartRemote("bench", obs.TraceContext{})
		rsp.End()
		h.ObserveExemplar(int64(i), "")
		sink = rsp
	}
	_ = sink
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// TestDisabledObsOverhead synthesizes each builtin target twice from a
// cold verdict memo, once untraced and once with tracing, metrics and
// provenance attached. The traced library must be byte-identical to the
// untraced one, and the sites the traced run passed through (completed
// spans plus SMT provenance events, ×3 for headroom) must cost, at the
// nil-op price, under disabledGuardPct of untraced synthesis time.
func TestDisabledObsOverhead(t *testing.T) {
	names := []string{"riscv", "aarch64"}
	if testing.Short() {
		names = names[:1]
	}
	nilNS := nilOpNS()
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			synth := func(o *obs.Obs) (string, time.Duration) {
				s, err := New(name)
				if err != nil {
					t.Fatal(err)
				}
				cfg := core.DefaultConfig()
				cfg.Obs, cfg.Verdicts = o, solver.New(0)
				t0 := time.Now()
				lib := s.Synthesize(cfg, 0)
				return isel.SaveLibraryFor(lib, s.ISA), time.Since(t0)
			}
			base, baseDur := synth(nil)
			// Rings large enough that nothing is overwritten, so their
			// lengths count every span and every SMT query.
			o := &obs.Obs{
				Trace:   obs.NewTracer(guardRingCap),
				Metrics: obs.NewRegistry(),
				Prov:    obs.NewProvLog(guardRingCap),
			}
			traced, _ := synth(o)
			if traced != base {
				t.Fatal("traced library differs from the untraced one")
			}
			spans, smtEvents := len(o.Trace.Snapshot()), len(o.Prov.SMTQueries())
			if spans == guardRingCap || smtEvents == guardRingCap {
				t.Fatalf("a ring filled (%d spans, %d SMT queries, cap %d): events were overwritten", spans, smtEvents, guardRingCap)
			}
			if smtEvents == 0 {
				t.Fatal("cold traced synthesis recorded no SMT provenance events")
			}
			events := float64(spans + smtEvents)
			pct := 100 * events * 3 * nilNS / float64(baseDur.Nanoseconds())
			t.Logf("%s: %.0f events × 3 × %.1f ns = %.4f%% of %v", name, events, nilNS, pct, baseDur)
			if pct >= disabledGuardPct {
				t.Errorf("estimated disabled-instrumentation overhead %.3f%% breaks the %.1f%% guard", pct, disabledGuardPct)
			}
		})
	}
}
