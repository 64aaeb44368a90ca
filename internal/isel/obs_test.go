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

// selectSpan returns the one isel/select span o recorded, with its
// attributes by key.
func selectSpan(t *testing.T, o *obs.Obs) map[string]obs.Attr {
	t.Helper()
	var attrs map[string]obs.Attr
	for _, s := range o.Trace.Snapshot() {
		if s.Name != "isel/select" {
			continue
		}
		if attrs != nil {
			t.Fatalf("more than one isel/select span")
		}
		attrs = map[string]obs.Attr{}
		for _, a := range s.Attrs {
			attrs[a.Key] = a
		}
	}
	if attrs == nil {
		t.Fatalf("no isel/select span recorded")
	}
	if _, n, _ := o.Metrics.Histogram("isel_select_ns", "").Snapshot(); n != 1 {
		t.Errorf("isel_select_ns count = %d, want 1", n)
	}
	return attrs
}

// TestSelectionProvenance: a rule-lowered function records one
// isel/select span whose rule_insts and hook_insts are the Report's,
// with no fallback attribute, and one isel_select_ns observation.
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
	if rep.RuleInsts == 0 {
		t.Fatalf("no instruction lowered by a rule: %+v", rep)
	}

	attrs := selectSpan(t, o)
	if got := attrs["fn"].Str; got != "prov" {
		t.Errorf("span fn = %q, want prov", got)
	}
	if got := attrs["rule_insts"].Int; got != int64(rep.RuleInsts) {
		t.Errorf("span rule_insts = %d, report %d", got, rep.RuleInsts)
	}
	if got := attrs["hook_insts"].Int; got != int64(rep.HookInsts) {
		t.Errorf("span hook_insts = %d, report %d", got, rep.HookInsts)
	}
	if fa, ok := attrs["fallback"]; ok {
		t.Errorf("span of a selected function carries fallback %q", fa.Str)
	}
}

// TestFallbackProvenance: a function no rule or hook can lower records
// its span with the fallback reason the Report gives, and still one
// isel_select_ns observation.
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

	attrs := selectSpan(t, o)
	if got := attrs["fallback"].Str; got == "" || got != rep.FallbackReason {
		t.Errorf("span fallback = %q, report %q", got, rep.FallbackReason)
	}
	if got := attrs["rule_insts"].Int; got != int64(rep.RuleInsts) {
		t.Errorf("span rule_insts = %d, report %d", got, rep.RuleInsts)
	}
	if got := attrs["hook_insts"].Int; got != int64(rep.HookInsts) {
		t.Errorf("span hook_insts = %d, report %d", got, rep.HookInsts)
	}
}

// TestNoObsNoProvenance: with no Obs attached, selection runs
// identically and records nothing.
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
