package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

var p50 = metric{Name: "latency_p50_ms", Unit: "ms", Better: lower, Bound: 0.10}
var rps = metric{Name: "throughput_rps", Unit: "1/s", Better: higher, Bound: 0.10}

// parentRuns is ten runs with a 2% spread around 10.
var parentRuns = []float64{10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.05, 9.95}

func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func TestJudgeWithinBound(t *testing.T) {
	v := judge(p50, parentRuns, scaled(parentRuns, 1.05), false)
	if v.kind != vOK {
		t.Errorf("5%% slower under a 10%% bound: %s, want %s", v.kind, vOK)
	}
}

func TestJudgeRegression(t *testing.T) {
	v := judge(p50, parentRuns, scaled(parentRuns, 1.2), false)
	if v.kind != vRegression {
		t.Errorf("20%% slower under a 10%% bound: %s, want %s", v.kind, vRegression)
	}
	// Higher-is-better metrics regress when they fall.
	v = judge(rps, parentRuns, scaled(parentRuns, 0.8), false)
	if v.kind != vRegression {
		t.Errorf("throughput 20%% lower: %s, want %s", v.kind, vRegression)
	}
	if v = judge(rps, parentRuns, scaled(parentRuns, 1.2), false); v.kind != vOK {
		t.Errorf("throughput 20%% higher: %s, want %s", v.kind, vOK)
	}
}

// When the parent's own runs spread wider than the bound, no verdict of
// "unchanged" is possible, unless every change run beats every parent run.
func TestJudgeUnresolvedWhenSpreadExceedsBound(t *testing.T) {
	noisy := []float64{6, 14, 8, 12, 10, 7, 13, 9, 11, 10}
	if v := judge(p50, noisy, noisy, false); v.kind != vUnresolved {
		t.Errorf("identical noisy runs: %s, want %s", v.kind, vUnresolved)
	}
	if v := judge(p50, noisy, scaled(noisy, 0.3), false); v.kind != vBetter {
		t.Errorf("every change run faster than every parent run: %s, want %s", v.kind, vBetter)
	}
}

func TestJudgeClaims(t *testing.T) {
	// 10/10 pairs won by 10%, far beyond the parent's 2% spread.
	if v := judge(p50, parentRuns, scaled(parentRuns, 0.9), true); v.kind != vClaimMet || v.wins != 10 {
		t.Errorf("clear gain: %s with %d wins, want %s with 10", v.kind, v.wins, vClaimMet)
	}
	// Eight of ten pairs is not nine tenths.
	change := scaled(parentRuns, 0.9)
	change[0], change[1] = 11, 11
	if v := judge(p50, parentRuns, change, true); v.kind != vClaimNot || v.wins != 8 {
		t.Errorf("8/10 wins: %s with %d wins, want %s with 8", v.kind, v.wins, vClaimNot)
	}
	// Winning every pair by less than the parent's spread is not a gain.
	if v := judge(p50, parentRuns, scaled(parentRuns, 0.995), true); v.kind != vClaimNot {
		t.Errorf("gain inside the spread: %s, want %s", v.kind, vClaimNot)
	}
	// Ties count for neither side.
	if v := judge(p50, parentRuns, parentRuns, true); v.wins != 0 || v.kind != vClaimNot {
		t.Errorf("ties: %s with %d wins, want %s with 0", v.kind, v.wins, vClaimNot)
	}
}

// Exact metrics (bound 0) compare pair by pair: one failing run is a
// regression even though the medians agree, and a seed-dependent value
// (the fallback ratio differs by program set) is not noise.
func TestJudgeExactMetrics(t *testing.T) {
	er := metric{Name: "error_ratio", Unit: "ratio", Better: lower}
	zeros := make([]float64, 10)
	if v := judge(er, zeros, zeros, false); v.kind != vOK {
		t.Errorf("0 vs 0: %s, want %s", v.kind, vOK)
	}
	some := append([]float64{0.01}, zeros[1:]...)
	if v := judge(er, zeros, some, false); v.kind != vRegression {
		t.Errorf("one run with failures: %s, want %s", v.kind, vRegression)
	}
	fb := metric{Name: "fallback_ratio", Unit: "ratio", Better: lower}
	bySeed := []float64{0.27, 0.31, 0.29, 0.30, 0.28, 0.26, 0.31, 0.30, 0.27, 0.29}
	if v := judge(fb, bySeed, bySeed, false); v.kind != vOK {
		t.Errorf("same fallbacks per seed: %s, want %s", v.kind, vOK)
	}
	worse := append([]float64{}, bySeed...)
	worse[3] += 0.01
	if v := judge(fb, bySeed, worse, false); v.kind != vRegression {
		t.Errorf("one more fallback on one seed: %s, want %s", v.kind, vRegression)
	}
}

func runSetOf(workload string, metricName string, vals []float64) runSet {
	var s runSet
	for i, v := range vals {
		s.Runs = append(s.Runs, record{Workload: workload, Seed: uint64(i + 1), Correct: true,
			Metrics: map[string]value{metricName: {Value: v, Unit: "ms"}}})
	}
	return s
}

// -compare prints one row per workload and fails on a regression.
func TestCompareCommand(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, s runSet) string {
		path := filepath.Join(dir, name)
		if err := writeJSON(path, s); err != nil {
			t.Fatal(err)
		}
		return path
	}
	parent := runSetOf("serve-rv", "latency_p50_ms", parentRuns)
	for _, r := range runSetOf("serve-a64", "latency_p50_ms", parentRuns).Runs {
		parent.Runs = append(parent.Runs, r)
	}
	same := write("same.json", parent)
	slower := runSetOf("serve-rv", "latency_p50_ms", scaled(parentRuns, 1.3))
	slower.Runs = append(slower.Runs, runSetOf("serve-a64", "latency_p50_ms", parentRuns).Runs...)
	worse := write("worse.json", slower)

	var out, errOut bytes.Buffer
	if code := realMain([]string{"-compare", same, same}, &out, &errOut); code != 0 {
		t.Fatalf("identical sets: exit %d\n%s%s", code, out.String(), errOut.String())
	}
	out.Reset()
	if code := realMain([]string{"-compare", same, worse}, &out, &errOut); code != 1 {
		t.Fatalf("30%% slower serve-rv: exit %d, want 1\n%s", code, out.String())
	}
	var rows []string
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "serve-") {
			rows = append(rows, line)
		}
	}
	if len(rows) != 2 || !strings.Contains(rows[0], vRegression) || strings.Contains(rows[1], vRegression) {
		t.Errorf("want one row per workload, serve-rv regressed and serve-a64 not:\n%s", out.String())
	}
	if code := realMain([]string{"-compare", "-claim", "latency_p50_ms@serve-rv", worse, same}, &out, &errOut); code != 0 {
		t.Errorf("claiming the 30%% gain back: exit %d, want 0\n%s", code, out.String())
	}
	if code := realMain([]string{"-compare", "-claim", "nonsense", same, same}, &out, &errOut); code != 1 {
		t.Errorf("malformed claim: exit %d, want 1", code)
	}
}
