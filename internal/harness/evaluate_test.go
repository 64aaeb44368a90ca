package harness

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestEvaluation runs every leg of the evaluation once and asserts the
// paper's shapes, never a time. Every count must also equal the
// checked-in EXPERIMENTS.json: a change that moves one regenerates the
// file with `go run ./cmd/iselbench > EXPERIMENTS.json`.
func TestEvaluation(t *testing.T) {
	rep, err := Evaluate(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range rep.Suites {
		for bk, n := range s.Fallbacks {
			if n != 0 {
				t.Errorf("Table III: %s %s fell back on %d workloads", s.Target, bk, n)
			}
		}
		g := s.Geomean
		if math.Abs(g["synth"]/g["globalisel"]-1) > 0.05 {
			t.Errorf("Fig. 9/11: %s synth geomean %.4f not within 5%% of globalisel %.4f", s.Target, g["synth"], g["globalisel"])
		}
		if f, ok := g["fastisel"]; ok && (f <= g["synth"] || f <= g["globalisel"]) {
			t.Errorf("Fig. 9: %s fastisel geomean %.4f is not slower than synth %.4f and globalisel %.4f",
				s.Target, f, g["synth"], g["globalisel"])
		}
	}
	if !slices.ContainsFunc(rep.Suites, func(s Suite) bool { _, ok := s.Geomean["fastisel"]; return ok }) {
		t.Error("Fig. 9: no suite has a fastisel backend")
	}
	for i := 1; i < len(rep.Fig7.Rows); i++ {
		if a, b := rep.Fig7.Rows[i-1], rep.Fig7.Rows[i]; b.Rules < a.Rules {
			t.Errorf("Fig. 7: %d patterns give %d rules, %d patterns gave %d", b.Patterns, b.Rules, a.Patterns, a.Rules)
		}
	}
	var q []int64
	for _, r := range rep.Ablation.Rows {
		q = append(q, r.SMTQueries)
	}
	if len(q) != 3 || !(q[0] < q[1] && q[1] < q[2]) {
		t.Errorf("§VII-D: SMT queries %v are not ordered full < no index < no probe", q)
	}
	for _, c := range rep.Coverage {
		if c.SynthFallbacks != 0 {
			t.Errorf("§VIII-B: %s synthesized backend fell back on %d rule cases", c.Target, c.SynthFallbacks)
		}
	}
	cmps := 0
	for _, line := range rep.Fig10.Listing {
		if strings.Contains(line, "= SUBS") {
			cmps++
		}
	}
	if cmps < 2 {
		t.Errorf("Fig. 10: want the comparison emitted twice, got\n%s", strings.Join(rep.Fig10.Listing, "\n"))
	}
	if rep.X86.Rules < 1 {
		t.Error("§IX: no x86 rules")
	}

	got, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("../../EXPERIMENTS.json")
	if err != nil {
		t.Fatal(err)
	}
	var g, w any
	if err := json.Unmarshal(got, &g); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(want, &w); err != nil {
		t.Fatal(err)
	}
	var diffs []string
	diffCounts("", g, w, &diffs)
	if len(diffs) > 0 {
		t.Errorf("counts differ from EXPERIMENTS.json (a change that means to move them regenerates it):\n%s",
			strings.Join(diffs, "\n"))
	}
}

// diffCounts appends a line naming each value where got and want
// differ. It skips what is not a count: the machine block, worker
// counts, and time columns (keys ending in _ms).
func diffCounts(path string, got, want any, diffs *[]string) {
	switch w := want.(type) {
	case map[string]any:
		g, ok := got.(map[string]any)
		if !ok {
			break
		}
		var keys []string
		for k := range w {
			keys = append(keys, k)
		}
		for k := range g {
			if _, ok := w[k]; !ok {
				keys = append(keys, k)
			}
		}
		slices.Sort(keys)
		for _, k := range keys {
			if k == "machine" || k == "workers" || strings.HasSuffix(k, "_ms") {
				continue
			}
			diffCounts(strings.TrimPrefix(path+"."+k, "."), g[k], w[k], diffs)
		}
		return
	case []any:
		g, ok := got.([]any)
		if !ok {
			break
		}
		if len(g) != len(w) {
			*diffs = append(*diffs, fmt.Sprintf("%s has %d entries, want %d", path, len(g), len(w)))
		}
		for i := range min(len(g), len(w)) {
			diffCounts(fmt.Sprintf("%s[%d]", path, i), g[i], w[i], diffs)
		}
		return
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		*diffs = append(*diffs, fmt.Sprintf("%s = %v, want %v", path, got, want))
	}
}

// timed fails when a run counts differently from the first, and
// summarizes each time column with Python's exclusive quartiles.
func TestTimed(t *testing.T) {
	n := 0
	_, _, err := timed(3, func() (int, []time.Duration, error) {
		n++
		return min(n, 2), nil, nil
	})
	if err == nil {
		t.Error("counts 1, 2, 2 accepted")
	}
	ms := []time.Duration{5, 1, 4, 2, 3}
	i := 0
	row, ts, err := timed(len(ms), func() (string, []time.Duration, error) {
		i++
		return "same", []time.Duration{ms[i-1] * time.Millisecond}, nil
	})
	if err != nil || row != "same" || ts[0] != (Timing{N: 5, Median: 3, IQR: 3}) {
		t.Errorf("got %q %+v %v, want median 3 and IQR 4.5-1.5", row, ts, err)
	}
}
