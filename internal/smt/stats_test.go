package smt

import (
	"testing"

	"iselgen/internal/obs"
	"iselgen/internal/term"
)

// TestStatsSATCounters: a query that reaches the CDCL core must leave
// nonzero SAT work counters behind — the totals core.Stats and
// /v1/metrics surface.
func TestStatsSATCounters(t *testing.T) {
	b := term.NewBuilder()
	x := b.Reg("x", 32)
	y := b.Reg("y", 32)
	c := &Checker{}

	// De Morgan needs real solving (propagation at minimum).
	if got := c.Equiv(b, b.Not(b.And(x, y)), b.Or(b.Not(x), b.Not(y))); got != Equal {
		t.Fatalf("demorgan = %v, want Equal", got)
	}
	if c.Stats.Queries != 1 || c.Stats.Proved != 1 {
		t.Errorf("queries/proved = %d/%d, want 1/1", c.Stats.Queries, c.Stats.Proved)
	}
	if c.Stats.Propagations == 0 {
		t.Errorf("propagations = 0 after a solver query — counter not wired")
	}
	if c.Stats.SolveTime <= 0 {
		t.Errorf("solve time not accumulated")
	}

	// A refutable query accumulates on top (counters are lifetime sums).
	prevProp := c.Stats.Propagations
	if got := c.Equiv(b, b.Add(x, y), b.Sub(x, y)); got != NotEqual {
		t.Fatalf("add-vs-sub = %v, want NotEqual", got)
	}
	if c.Stats.Propagations <= prevProp {
		t.Errorf("propagations did not accumulate across queries")
	}
}

// TestEquivProvenance: with an Obs attached, every solver-bound query
// leaves one SMTQuery record (labeled with the checker's context) and
// one histogram observation keyed by result.
func TestEquivProvenance(t *testing.T) {
	b := term.NewBuilder()
	x := b.Reg("x", 32)
	y := b.Reg("y", 32)
	o := obs.New()
	c := &Checker{Obs: o, Context: "test-ctx"}

	c.Equiv(b, b.Not(b.And(x, y)), b.Or(b.Not(x), b.Not(y))) // equal
	c.Equiv(b, b.Add(x, y), b.Sub(x, y))                     // not-equal

	qs := o.Prov.SMTQueries()
	if len(qs) != 2 {
		t.Fatalf("got %d provenance records, want 2", len(qs))
	}
	if qs[0].Result != "equal" || qs[1].Result != "not-equal" {
		t.Errorf("results = %q, %q", qs[0].Result, qs[1].Result)
	}
	for i, q := range qs {
		if q.Context != "test-ctx" {
			t.Errorf("record %d context = %q, want test-ctx", i, q.Context)
		}
		if q.DurNS <= 0 {
			t.Errorf("record %d has no duration", i)
		}
		if q.Propagations == 0 {
			t.Errorf("record %d has no SAT work counters", i)
		}
	}
	for _, res := range []string{"equal", "not-equal"} {
		_, n, _ := o.Metrics.Histogram("smt_query_duration_ns", "", "result", res).Snapshot()
		if n != 1 {
			t.Errorf("histogram[result=%s] count = %d, want 1", res, n)
		}
	}
}

// TestEquivFastPathsSkipProvenance: verdicts that never reach the
// solver (pointer equality, width mismatch) record no provenance —
// the log is per-*solver-query*, not per-call.
func TestEquivFastPathsSkipProvenance(t *testing.T) {
	b := term.NewBuilder()
	x := b.Reg("x", 32)
	o := obs.New()
	c := &Checker{Obs: o, Context: "fast"}

	if got := c.Equiv(b, x, x); got != Equal {
		t.Fatalf("x == x: %v", got)
	}
	if got := c.Equiv(b, x, b.ZExt(64, x)); got != NotEqual {
		t.Fatalf("width mismatch: %v", got)
	}
	if n := len(o.Prov.SMTQueries()); n != 0 {
		t.Errorf("fast paths recorded %d provenance events, want 0", n)
	}
}
