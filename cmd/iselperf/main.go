// Command iselperf is the repository's benchmark: seeded, repeatable
// workloads that drive the iseld daemon over loopback HTTP exactly as it
// runs with its default flags, check every answer, and report the
// end-to-end metrics BENCHMARK.json defines plus, from a traced run, the
// per-layer metrics that explain them. See README.md for the workloads,
// the metrics and why each was chosen.
//
// One workload, once (the form BENCHMARK.json's command uses; the last
// line of standard output is the JSON result):
//
//	iselperf -workload serve-rv -seed 1 -seconds 15 -trace 0
//
// Every workload, each run in a child process of its own, -runs times
// with seeds seed, seed+1, ..., then once traced; prints each metric's
// median and spread and the tracing overhead:
//
//	iselperf -seed 1 [-runs 3] [-json runs.json] [-trace-out trace.json]
//
// Compare two run sets under the bounds the benchmark fixes:
//
//	iselperf -compare [-claim metric@workload,...] parent.json change.json
//
// Without -iseld, iselperf builds the daemon with the go command, which
// must then run inside this module or the repository's.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	traceOut string
	iseld    string
	workdir  string
	record   string
	runs     int
	jsonOut  string
	compare  bool
	claims   string
}

func realMain(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("iselperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run this one workload in this process (empty = every workload, each in a child process)")
	fs.Uint64Var(&o.seed, "seed", 1, "seed the run's programs, input vectors and edits derive from")
	fs.IntVar(&o.seconds, "seconds", 15, "measured seconds per run (open loop, then capacity legs)")
	fs.IntVar(&o.trace, "trace", 0, "1 = traced run: replay each layer in-process and report per-layer metrics")
	fs.StringVar(&o.traceOut, "trace-out", "", "write the traced run's spans as Chrome trace JSON here (per workload: NAME-workload.json)")
	fs.StringVar(&o.iseld, "iseld", "", "iseld binary (empty = build it)")
	fs.StringVar(&o.workdir, "workdir", ".bench_build", "scratch directory for daemon cache directories and builds")
	fs.StringVar(&o.record, "record", "", "also write the run's full record (every metric, sample counts, problems) as JSON here")
	fs.IntVar(&o.runs, "runs", 3, "untraced runs per workload, seeds seed..seed+runs-1 (every-workload mode)")
	fs.StringVar(&o.jsonOut, "json", "", "write every run record as a run set here (every-workload mode)")
	fs.BoolVar(&o.compare, "compare", false, "compare two run sets: -compare parent.json change.json")
	fs.StringVar(&o.claims, "claim", "", "with -compare: metric@workload pairs the change claims to improve")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var err error
	var ok bool
	switch {
	case o.compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "iselperf: -compare takes two run-set files")
			return 2
		}
		ok, err = runCompare(stdout, fs.Arg(0), fs.Arg(1), o.claims)
	case o.workload != "":
		ok, err = runOne(ctx, o, stdout, stderr)
	default:
		ok, err = runAll(ctx, o, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "iselperf:", err)
		return 1
	}
	if !ok {
		return 1
	}
	return 0
}

// runOne runs one workload in this process and prints the result line
// BENCHMARK.json's contract asks for: end-to-end metrics untraced,
// per-layer metrics traced.
func runOne(ctx context.Context, o options, stdout, stderr io.Writer) (bool, error) {
	w, ok := workloadByName(o.workload)
	if !ok {
		return false, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds < 1 {
		return false, errors.New("-seconds must be at least 1")
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
	e := env{iseld: bin, workdir: dir, log: stderr, traceOut: o.traceOut}
	rec, err := runWorkload(ctx, e, w, planFor(o.seconds), o.seed, o.seconds, o.trace == 1)
	if err != nil {
		return false, err
	}
	printRecord(stderr, rec)
	if o.record != "" {
		if err := writeJSON(o.record, rec); err != nil {
			return false, err
		}
	}
	line, err := json.Marshal(resultLine(rec))
	if err != nil {
		return false, err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return rec.Correct, nil
}

// result is the one-line JSON summary a run ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine picks the metrics BENCHMARK.json lists: the end-to-end ones
// from an untraced run, the per-layer ones from a traced run.
func resultLine(rec *record) result {
	defs, from := endToEnd, rec.Metrics
	if rec.Trace {
		defs, from = perLayer, rec.Layers
	}
	out := result{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: map[string]resultValue{}}
	for _, m := range defs {
		if v, ok := from[m.Name]; ok {
			out.Metrics[m.Name] = resultValue{v.Value, m.Unit}
		}
	}
	return out
}

// printRecord writes a run's metrics for a human.
func printRecord(w io.Writer, rec *record) {
	fmt.Fprintf(w, "\n%s seed %d: correct=%v attempted=%d failed=%d\n", rec.Workload, rec.Seed, rec.Correct, rec.Attempted, rec.Failed)
	for _, p := range rec.Problems {
		fmt.Fprintf(w, "  PROBLEM: %s\n", p)
	}
	show := func(title string, defs []metric, vals map[string]value) {
		var lines []string
		for _, m := range defs {
			if v, ok := vals[m.Name]; ok {
				lines = append(lines, fmt.Sprintf("  %-26s %14.4f %-7s n=%d", m.Name, v.Value, v.Unit, v.N))
			}
		}
		if len(lines) > 0 {
			fmt.Fprintf(w, "%s\n%s\n", title, strings.Join(lines, "\n"))
		}
	}
	show("end to end", endToEnd, rec.Metrics)
	show("workload-specific", extras, rec.Extra)
	if rec.Trace {
		show("per layer", append(append([]metric{}, perLayer...), extraLayers...), rec.Layers)
	}
}

// scratchDir makes a fresh directory for one run's daemons under root
// and returns a function that removes it.
func scratchDir(root string) (string, func(), error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", nil, err
	}
	dir, err := os.MkdirTemp(root, "run-")
	if err != nil {
		return "", nil, err
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		os.RemoveAll(dir)
		return "", nil, err
	}
	return abs, func() { os.RemoveAll(abs) }, nil
}

// buildIseld builds the daemon into dir with the go command.
func buildIseld(ctx context.Context, dir string) (string, error) {
	bin := filepath.Join(dir, "iseld")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "iselgen/cmd/iseld")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("build iseld: %w", err)
	}
	return bin, nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// hostInfo records the machine a run set was measured on.
type hostInfo struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	OS         string `json:"os"`
}

func host() hostInfo {
	h := hostInfo{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), OS: runtime.GOOS + "/" + runtime.GOARCH}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// runSet is a file of run records: what -json writes and -compare reads.
type runSet struct {
	Host    hostInfo  `json:"host"`
	Seconds int       `json:"seconds"`
	Date    time.Time `json:"date"`
	Runs    []record  `json:"runs"`
}
