package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"
	"text/tabwriter"
)

// Verdicts of one (workload, metric) pair.
const (
	vOK         = "ok"          // within its bound
	vBetter     = "better"      // spread too wide to bound, but every change run beat every parent run
	vUnresolved = "unresolved"  // the parent's own spread is wider than the bound
	vRegression = "REGRESSION"  // worse than the parent by more than the bound
	vClaimMet   = "claim-met"   // won >= 9/10 pairs by more than the parent's spread
	vClaimNot   = "CLAIM-UNMET" // a claimed improvement that did not hold
)

type verdict struct {
	metric metric
	kind   string
	worse  float64 // (change - parent) / parent median, signed so positive is worse
	spread float64 // parent IQR over parent median
	wins   int     // pairs the change won
	pairs  int
}

// judge compares one metric's runs. Runs pair by position: the i-th
// parent run with the i-th change run (same seed when both sets were made
// with the same -seed and -runs).
func judge(m metric, parent, change []float64, claimed bool) verdict {
	v := verdict{metric: m, pairs: min(len(parent), len(change))}
	better := func(c, p float64) bool {
		if m.Better == higher {
			return c > p
		}
		return c < p
	}
	for i := 0; i < v.pairs; i++ {
		if better(change[i], parent[i]) {
			v.wins++
		}
	}
	pm, cm := median(parent), median(change)
	piqr, _ := iqr(parent)
	switch {
	case pm != 0:
		v.worse = (cm - pm) / math.Abs(pm)
		v.spread = piqr / math.Abs(pm)
	case cm == pm:
		v.worse = 0
	default:
		v.worse = math.Inf(1)
	}
	if m.Better == higher {
		v.worse = -v.worse
	}
	if claimed {
		// A gain needs nine tenths of all pairs (ties win for neither) and a
		// median gap wider than the parent's own run-to-run spread.
		if v.pairs > 0 && v.wins*10 >= 9*v.pairs && v.worse < 0 && math.Abs(cm-pm) > piqr {
			v.kind = vClaimMet
		} else {
			v.kind = vClaimNot
		}
		return v
	}
	switch {
	case m.Bound == 0:
		// An exact metric (0 on a healthy run, or fixed by the seed's
		// inputs) compares pair by pair: any worse pair regresses.
		v.kind = vOK
		for i := 0; i < v.pairs; i++ {
			if better(parent[i], change[i]) {
				v.kind = vRegression
			}
		}
	case v.spread > m.Bound:
		v.kind = vUnresolved
		if slices.Max(change) < slices.Min(parent) && m.Better == lower ||
			slices.Min(change) > slices.Max(parent) && m.Better == higher {
			v.kind = vBetter
		}
	case v.worse > m.Bound:
		v.kind = vRegression
	default:
		v.kind = vOK
	}
	return v
}

// compareSets judges every end-to-end metric and extra on every workload
// both sets ran, from their untraced runs.
func compareSets(parent, change runSet, claims map[string]bool) map[string][]verdict {
	pu, _ := byWorkload(parent)
	cu, _ := byWorkload(change)
	out := map[string][]verdict{}
	for _, w := range workloads {
		p, c := sortBySeed(pu[w.name]), sortBySeed(cu[w.name])
		if len(p) == 0 || len(c) == 0 {
			continue
		}
		for _, m := range append(append([]metric{}, endToEnd...), extras...) {
			pv, cv := values(p, m.Name), values(c, m.Name)
			if len(pv) == 0 || len(cv) == 0 {
				continue
			}
			out[w.name] = append(out[w.name], judge(m, pv, cv, claims[m.Name+"@"+w.name]))
		}
	}
	return out
}

func sortBySeed(recs []record) []record {
	s := slices.Clone(recs)
	slices.SortStableFunc(s, func(a, b record) int {
		switch {
		case a.Seed < b.Seed:
			return -1
		case a.Seed > b.Seed:
			return 1
		}
		return 0
	})
	return s
}

// runCompare prints one row per workload, one cell per metric, and
// reports failure on any regression or unmet claim.
func runCompare(w io.Writer, parentPath, changePath, claimList string) (bool, error) {
	parent, err := readRunSet(parentPath)
	if err != nil {
		return false, err
	}
	change, err := readRunSet(changePath)
	if err != nil {
		return false, err
	}
	claims := map[string]bool{}
	for _, c := range strings.Split(claimList, ",") {
		if c = strings.TrimSpace(c); c == "" {
			continue
		}
		name, wl, ok := strings.Cut(c, "@")
		if _, known := lookupMetric(name); !ok || !known {
			return false, fmt.Errorf("claim %q: want metric@workload with a known metric", c)
		}
		if _, known := workloadByName(wl); !known {
			return false, fmt.Errorf("claim %q: unknown workload %q", c, wl)
		}
		claims[c] = true
	}
	verdicts := compareSets(parent, change, claims)
	if len(verdicts) == 0 {
		return false, fmt.Errorf("the two run sets share no workload")
	}
	names := map[string]bool{}
	for _, vs := range verdicts {
		for _, v := range vs {
			names[v.metric.Name] = true
		}
	}
	var cols []metric
	for _, m := range append(append([]metric{}, endToEnd...), extras...) {
		if names[m.Name] {
			cols = append(cols, m)
		}
	}
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	header := []string{"workload"}
	for _, m := range cols {
		header = append(header, fmt.Sprintf("%s ±%g%%", m.Name, 100*m.Bound))
	}
	fmt.Fprintln(tw, strings.Join(header, "\t")+"\t")
	ok := true
	for _, wl := range workloads {
		vs, present := verdicts[wl.name]
		if !present {
			continue
		}
		row := []string{wl.name}
		for _, m := range cols {
			cell := "-"
			for _, v := range vs {
				if v.metric.Name != m.Name {
					continue
				}
				cell = fmt.Sprintf("%s %+.1f%%", v.kind, 100*v.worse)
				switch v.kind {
				case vUnresolved, vBetter:
					cell += fmt.Sprintf(" (spread %.0f%%)", 100*v.spread)
				case vClaimMet, vClaimNot:
					cell += fmt.Sprintf(" (won %d/%d)", v.wins, v.pairs)
				}
				if v.kind == vRegression || v.kind == vClaimNot {
					ok = false
				}
			}
			row = append(row, cell)
		}
		fmt.Fprintln(tw, strings.Join(row, "\t")+"\t")
	}
	tw.Flush()
	fmt.Fprintln(w, "(+x% = change median worse than the parent's by x%; ±b% = bound; spread = parent IQR / median)")
	return ok, nil
}

func readRunSet(path string) (runSet, error) {
	var s runSet
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}
