package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"
)

// runAll runs every workload -runs times untraced and once traced, each
// run in a child process so process-wide state and heap never carry from
// one run into the next, then prints each metric's median and spread
// across the untraced runs and the tracing overhead.
func runAll(ctx context.Context, o options, stdout, stderr io.Writer) (bool, error) {
	if o.runs < 1 {
		return false, fmt.Errorf("-runs must be at least 1")
	}
	dir, cleanup, err := scratchDir(o.workdir)
	if err != nil {
		return false, err
	}
	defer cleanup()
	bin := o.iseld
	if bin == "" {
		if bin, err = buildIseld(ctx, dir); err != nil {
			return false, err
		}
	}
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	set := runSet{Host: host(), Seconds: o.seconds, Date: time.Now().UTC()}
	child := func(w workload, seed uint64, trace bool) (record, error) {
		path := filepath.Join(dir, fmt.Sprintf("%s-%d-%v.json", w.name, seed, trace))
		args := []string{"-workload", w.name, "-seed", strconv.FormatUint(seed, 10),
			"-seconds", strconv.Itoa(o.seconds), "-iseld", bin, "-workdir", dir, "-record", path}
		if trace {
			args = append(args, "-trace", "1")
			if o.traceOut != "" {
				args = append(args, "-trace-out", traceOutFor(o.traceOut, w.name))
			}
		}
		cmd := exec.CommandContext(ctx, self, args...)
		cmd.Stdout, cmd.Stderr = io.Discard, stderr // the record file carries the result
		runErr := cmd.Run()
		var rec record
		data, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(data, &rec)
		}
		if err != nil {
			return rec, fmt.Errorf("%s seed %d: %v (child: %v)", w.name, seed, err, runErr)
		}
		return rec, nil
	}
	ok := true
	for r := 0; r < o.runs; r++ {
		for _, w := range workloads {
			rec, err := child(w, o.seed+uint64(r), false)
			if err != nil {
				return false, err
			}
			ok = ok && rec.Correct
			set.Runs = append(set.Runs, rec)
		}
	}
	for _, w := range workloads {
		rec, err := child(w, o.seed, true)
		if err != nil {
			return false, err
		}
		ok = ok && rec.Correct
		set.Runs = append(set.Runs, rec)
	}
	printSummary(stdout, set)
	if o.jsonOut != "" {
		if err := writeJSON(o.jsonOut, set); err != nil {
			return false, err
		}
	}
	return ok, nil
}

// byWorkload splits a run set's records into untraced and traced runs per
// workload, in the order the records appear.
func byWorkload(set runSet) (untraced, traced map[string][]record) {
	untraced, traced = map[string][]record{}, map[string][]record{}
	for _, rec := range set.Runs {
		if rec.Trace {
			traced[rec.Workload] = append(traced[rec.Workload], rec)
		} else {
			untraced[rec.Workload] = append(untraced[rec.Workload], rec)
		}
	}
	return untraced, traced
}

// values collects one metric across records, end-to-end or extra.
func values(recs []record, name string) []float64 {
	var out []float64
	for _, rec := range recs {
		if v, ok := rec.Metrics[name]; ok {
			out = append(out, v.Value)
		} else if v, ok := rec.Extra[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// printSummary writes, per workload, each end-to-end metric's median and
// spread across the untraced runs beside the traced run's value, and the
// traced run's per-layer metrics with the end-to-end metrics they should
// move.
func printSummary(w io.Writer, set runSet) {
	untraced, traced := byWorkload(set)
	fmt.Fprintf(w, "iselperf: %d-second runs on %s (%d CPUs, GOMAXPROCS %d, %s)\n",
		set.Seconds, set.Host.CPU, set.Host.NumCPU, set.Host.GOMAXPROCS, set.Host.Go)
	for _, wl := range workloads {
		runs, tr := untraced[wl.name], traced[wl.name]
		if len(runs) == 0 && len(tr) == 0 {
			continue
		}
		var seeds []string
		for _, rec := range runs {
			seeds = append(seeds, strconv.FormatUint(rec.Seed, 10))
		}
		fmt.Fprintf(w, "\n%s (seeds %s)\n", wl.name, strings.Join(seeds, ","))
		tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', tabwriter.AlignRight)
		fmt.Fprintln(tw, "metric\tunit\truns\tmedian\tIQR\tIQR%\tsamples/run\ttraced\toverhead\t")
		for _, m := range append(append([]metric{}, endToEnd...), extras...) {
			vs := values(runs, m.Name)
			if len(vs) == 0 {
				continue
			}
			med := median(vs)
			spread, spreadPct := "-", "-"
			if d, ok := iqr(vs); ok {
				spread = fmt.Sprintf("%.4g", d)
				if med != 0 {
					spreadPct = fmt.Sprintf("%.1f%%", 100*d/med)
				}
			}
			samples := runs[0].Extra[m.Name].N
			if v, ok := runs[0].Metrics[m.Name]; ok {
				samples = v.N
			}
			tv, over := "-", "-"
			if t := values(tr, m.Name); len(t) > 0 {
				tv = fmt.Sprintf("%.4g", t[0])
				if med != 0 {
					over = fmt.Sprintf("%+.1f%%", 100*(t[0]/med-1))
				}
			}
			fmt.Fprintf(tw, "%s\t%s\t%d\t%.4g\t%s\t%s\t%d\t%s\t%s\t\n", m.Name, m.Unit, len(vs), med, spread, spreadPct, samples, tv, over)
		}
		tw.Flush()
		if len(tr) == 0 {
			continue
		}
		fmt.Fprintf(w, "per layer (traced run, seed %d)\n", tr[0].Seed)
		tw = tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
		for _, m := range append(append([]metric{}, perLayer...), extraLayers...) {
			if v, ok := tr[0].Layers[m.Name]; ok {
				fmt.Fprintf(tw, "  %s\t%.4g %s\tmoves %s\n", m.Name, v.Value, m.Unit, m.Moves)
			}
		}
		tw.Flush()
	}
	for _, rec := range set.Runs {
		for _, p := range rec.Problems {
			fmt.Fprintf(w, "PROBLEM %s seed %d: %s\n", rec.Workload, rec.Seed, p)
		}
	}
}
