package main

import (
	"context"
	"io"
	"math"
	"testing"
	"time"
)

// smokePlan is the smallest run that still exercises every phase: one
// round (a cold boot and a warm restart), a short open loop and capacity
// leg, and the two cheapest suite functions.
var smokePlan = plan{
	rounds: 1, slice: 400 * time.Millisecond, leg: 200 * time.Millisecond,
	suite: []string{"deepsjeng_bits", "omnetpp_heap"}, pool: 64, replay: 20,
}

// TestSmokeAllWorkloads runs every workload once, briefly, against real
// daemons, and serve-rv-edit once more traced: every answer must check
// out, no request may fail, and every metric must be reported.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("boots iseld daemons and synthesizes aarch64 twice")
	}
	ctx := context.Background()
	dir := t.TempDir()
	bin, err := buildIseld(ctx, dir)
	if err != nil {
		t.Fatal(err)
	}
	e := env{iseld: bin, workdir: dir, log: io.Discard}
	run := func(w workload, trace bool) *record {
		t.Helper()
		rec, err := runWorkload(ctx, e, w, smokePlan, 1, 1, trace)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d problems=%q", w.name, rec.Correct, rec.Failed, rec.Attempted, rec.Problems)
		}
		return rec
	}
	for _, w := range workloads {
		rec := run(w, false)
		for _, m := range endToEnd {
			v, ok := rec.Metrics[m.Name]
			if !ok || !(v.Value > 0) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: %s = %v (reported %v); every end-to-end metric must be a positive number", w.name, m.Name, v.Value, ok)
			}
		}
		if res := resultLine(rec); len(res.Metrics) != len(endToEnd) {
			t.Errorf("%s: result line has %d metrics, want %d", w.name, len(res.Metrics), len(endToEnd))
		}
	}
	w, _ := workloadByName("serve-rv-edit")
	rec := run(w, true)
	for _, m := range append(append([]metric{}, perLayer...), extraLayers...) {
		if _, ok := rec.Layers[m.Name]; !ok {
			t.Errorf("traced run lacks per-layer metric %s", m.Name)
		}
	}
	if res := resultLine(rec); len(res.Metrics) != len(perLayer) {
		t.Errorf("traced result line has %d metrics, want %d", len(res.Metrics), len(perLayer))
	}
	if rec.Layers["smt.bit_blasts"].Value == 0 || rec.Layers["solver.memo_hits"].Value == 0 {
		t.Errorf("traced replay: %v bit-blasts cold, %v memo hits warm; want both > 0",
			rec.Layers["smt.bit_blasts"].Value, rec.Layers["solver.memo_hits"].Value)
	}
}
