package isel

import (
	"testing"

	"iselgen/internal/gmir"
	"iselgen/internal/obs"
)

// withObs attaches a fresh Obs to the backend for the duration of the
// test (the package's backends are shared across tests).
func withObs(t *testing.T, bk *Backend) *obs.Obs {
	t.Helper()
	o := obs.New()
	bk.Obs = o
	t.Cleanup(func() { bk.Obs = nil })
	return o
}

// TestSelectionProvenance: rule-based selection records one decision
// per chosen root with Via "rule" and the winning sequence, plus a span
// and a latency observation for the function.
func TestSelectionProvenance(t *testing.T) {
	o := withObs(t, a64Set.Handwritten)

	fb := gmir.NewFunc("prov")
	a := fb.Param(gmir.S64)
	b := fb.Param(gmir.S64)
	fb.Ret(fb.Add(a, fb.Shl(b, fb.Const(gmir.S64, 2))))
	f := fb.MustFinish()
	_, rep := a64Set.Handwritten.Select(f)
	if rep.Fallback {
		t.Fatalf("unexpected fallback: %s", rep.FallbackReason)
	}

	sels := o.Prov.Selections()
	if len(sels) == 0 {
		t.Fatalf("no selection decisions recorded")
	}
	var viaRule int
	for _, d := range sels {
		if d.Fn != "prov" {
			t.Errorf("decision fn = %q, want prov", d.Fn)
		}
		switch d.Via {
		case "rule":
			viaRule++
			if d.Chosen == "" {
				t.Errorf("Via=rule decision without a chosen sequence: %+v", d)
			}
			if d.Root == "" {
				t.Errorf("decision without root identification: %+v", d)
			}
		case "hook", "none", "fallback":
		default:
			t.Errorf("unknown Via %q", d.Via)
		}
	}
	if viaRule == 0 {
		t.Errorf("no Via=rule decisions for a rule-lowered function: %+v", sels)
	}

	spans := o.Trace.Snapshot()
	var found bool
	for _, s := range spans {
		if s.Name == "isel/select" {
			found = true
		}
	}
	if !found {
		t.Errorf("no isel/select span recorded; spans: %+v", spans)
	}
	if h := o.Metrics.Histogram("isel_select_ns", ""); h.Count() != 1 {
		t.Errorf("isel_select_ns count = %d, want 1", h.Count())
	}
}

// TestFallbackProvenance: a function no rule or hook can lower records a
// Via "none" decision for the failing root and a Via "fallback" decision
// for the function, carrying the reason the Report also gives.
func TestFallbackProvenance(t *testing.T) {
	o := withObs(t, a64Set.Handwritten)

	fb := gmir.NewFunc("pop16")
	a := fb.Param(gmir.S16)
	fb.Ret(fb.Unary(gmir.GCtpop, a))
	f := fb.MustFinish()
	_, rep := a64Set.Handwritten.Select(f)
	if !rep.Fallback {
		t.Fatalf("expected fallback")
	}

	var sawNone, sawFallback bool
	for _, d := range o.Prov.Selections() {
		switch d.Via {
		case "none":
			sawNone = true
		case "fallback":
			sawFallback = true
			if d.Fallback != rep.FallbackReason {
				t.Errorf("fallback reason %q != report %q", d.Fallback, rep.FallbackReason)
			}
		}
	}
	if !sawNone || !sawFallback {
		t.Errorf("want both Via=none and Via=fallback decisions, got none=%v fallback=%v",
			sawNone, sawFallback)
	}
}

// TestNoObsNoProvenance: with no Obs attached, selection runs
// identically and assembles nothing.
func TestNoObsNoProvenance(t *testing.T) {
	fb := gmir.NewFunc("plain")
	a := fb.Param(gmir.S64)
	fb.Ret(fb.Add(a, a))
	f := fb.MustFinish()
	_, rep := a64Set.Handwritten.Select(f)
	if rep.Fallback {
		t.Fatalf("unexpected fallback: %s", rep.FallbackReason)
	}
}
