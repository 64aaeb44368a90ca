// Command iselbench reproduces the paper's evaluation (§VIII): it
// synthesizes a rule library, compiles the SPEC-CPU-2017-Integer-analog
// workload suite with every backend, simulates the generated code, and
// prints the figures and tables:
//
//	-fig9 / -fig11   normalized runtimes (target-selected via -target)
//	-table3          GlobalISel-fallback accounting
//	-fig6            pattern / sequence length distributions
//	-sizes           binary-size comparison (§VIII-C)
//	-json            machine-readable results (rows + normalized + geomeans)
//	-cost            attach the target cost model: rules are ranked by the
//	                 model and the simulator charges model latencies
//	-trace FILE      record the run's pipeline spans as Chrome trace-event
//	                 JSON (synthesis stages, per-pattern spans, selection)
//	-encjson         machine-encoding baseline (BENCH_enc.json): per target,
//	                 the workload suite is selected and assembled to bytes
//	                 and every instruction is round-trip-verified (decode +
//	                 re-encode byte identity)
//
// Synthesis timing is measured by cmd/iselperf (repeated runs against
// real iseld processes, with median and IQR), not here.
//
// Usage: iselbench -target aarch64|riscv [-scale N] [-workers N] [-json] [...]
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"iselgen/internal/bench"
	"iselgen/internal/core"
	"iselgen/internal/enc"
	"iselgen/internal/fuzz"
	"iselgen/internal/harness"
	"iselgen/internal/isel"
	"iselgen/internal/obs"
	"iselgen/internal/targets"
)

func main() {
	target := flag.String("target", "aarch64", "target: aarch64 or riscv")
	scale := flag.Int("scale", 1, "workload scale factor")
	workers := flag.Int("workers", 0, "synthesis matcher threads (0 = default)")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON instead of tables")
	fig6 := flag.Bool("fig6", false, "print length distributions (Fig. 6)")
	table3 := flag.Bool("table3", false, "print fallback table (Table III)")
	sizes := flag.Bool("sizes", false, "print binary sizes (§VIII-C)")
	withCost := flag.Bool("cost", false, "attach the target cost model (rule ranking and simulated latencies)")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON of the run to this file")
	encJSON := flag.Bool("encjson", false, "emit the machine-encoding baseline JSON (BENCH_enc.json): suite assembly and round-trip counts")
	flag.Parse()

	if *encJSON {
		emitEncJSON()
		return
	}

	cfg := core.DefaultConfig()
	if *workers > 0 {
		cfg.Workers = *workers
	}
	if *withCost {
		model, merr := harness.CostModel(*target)
		if merr != nil {
			fmt.Fprintln(os.Stderr, "iselbench:", merr)
			os.Exit(1)
		}
		cfg.CostModel = model
	}
	var o *obs.Obs
	if *traceOut != "" {
		o = obs.New()
		cfg.Obs = o
		defer writeTrace(o, *traceOut)
	}
	sp := o.TracerOrNil().Start("spec/load").SetStr("target", *target)
	s := mustSetup(*target)
	sp.End()

	if !*jsonOut {
		fmt.Printf("synthesizing %s rule library...\n", s.Name)
	}
	t0 := time.Now()
	lib := s.Synthesize(cfg, 0)
	synthElapsed := time.Since(t0)
	if o != nil {
		s.AttachObs(o) // selection spans + decision provenance too
	}
	if !*jsonOut {
		fmt.Printf("%d rules\n\n", lib.Len())
	}

	if *fig6 {
		fmt.Println(harness.Fig6(s, lib))
		return
	}

	rows, err := s.RunSuite(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "iselbench:", err)
		os.Exit(1)
	}

	if *jsonOut {
		emitJSON(s, lib.Len(), synthElapsed, *scale, rows)
		return
	}

	if *table3 {
		fmt.Println(harness.TableIII(rows))
		return
	}
	if *sizes {
		fmt.Println(harness.SizeTable(rows))
		return
	}

	figName := "Fig. 9"
	if s.Name == "riscv" {
		figName = "Fig. 11"
	}
	fmt.Printf("%s analog — runtime normalized to the SelectionDAG analog (%s, scale %d)\n\n",
		figName, s.Name, *scale)
	norm := harness.Normalized(rows, "selectiondag")
	var workloads []string
	for w := range norm {
		workloads = append(workloads, w)
	}
	sort.Strings(workloads)
	backends := []string{"selectiondag", "globalisel", "fastisel", "synth"}
	fmt.Printf("%-16s", "")
	for _, bk := range backends {
		if _, ok := norm[workloads[0]][bk]; ok {
			fmt.Printf(" %12s", bk)
		}
	}
	fmt.Println()
	for _, w := range workloads {
		fmt.Printf("%-16s", w)
		for _, bk := range backends {
			if v, ok := norm[w][bk]; ok {
				fmt.Printf(" %12.4f", v)
			}
		}
		fmt.Println()
	}
	fmt.Printf("%-16s", "geomean")
	for _, bk := range backends {
		if g := harness.GeoMean(norm, bk); g > 0 {
			fmt.Printf(" %12.4f", g)
		}
	}
	fmt.Println()
}

// benchReport is the -json output: everything the tables print, in a
// shape a perf-trajectory tracker can diff across commits.
type benchReport struct {
	Target     string                        `json:"target"`
	Scale      int                           `json:"scale"`
	Rules      int                           `json:"rules"`
	SynthMS    float64                       `json:"synth_ms"`
	Stages     core.StageStats               `json:"synth_stages"`
	Rows       []benchRow                    `json:"rows"`
	Normalized map[string]map[string]float64 `json:"normalized"`
	Geomean    map[string]float64            `json:"geomean"`
	// FuzzThroughput is programs/second through the differential-fuzzing
	// pipeline (generate + select + simulate) against the synthesized
	// backend — the sustained rate iselfuzz achieves on this machine.
	FuzzThroughput float64 `json:"fuzz_throughput"`
}

type benchRow struct {
	Workload string  `json:"workload"`
	Backend  string  `json:"backend"`
	Cycles   int64   `json:"cycles"`
	Insts    int64   `json:"insts"`
	Size     int     `json:"size"`
	Fallback bool    `json:"fallback,omitempty"`
	HookPct  float64 `json:"hook_pct,omitempty"`
}

// mustSetup loads a builtin selection target and its baselines, or
// exits.
func mustSetup(name string) *harness.Setup {
	s, err := harness.New(name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "iselbench:", err)
		os.Exit(1)
	}
	return s
}

// encReport is one target of the -encjson output (BENCH_enc.json): the
// workload suite assembled to machine bytes, with every instruction
// round-trip-verified.
type encReport struct {
	Target     string `json:"target"`
	Workloads  int    `json:"workloads"`
	Insts      int    `json:"insts"`
	CodeBytes  int    `json:"code_bytes"`
	RoundTrips int    `json:"round_trips"`
}

// emitEncJSON selects and assembles the full workload suite for both
// selection targets and demands a byte-identical decode/re-encode round
// trip for every emitted instruction (any divergence exits nonzero).
// The output is the BENCH_enc.json baseline.
func emitEncJSON() {
	var out []encReport
	for _, name := range targets.Names(true) {
		s := mustSetup(name)
		c, err := enc.NewCodec(s.ISA)
		if err != nil {
			fmt.Fprintln(os.Stderr, "iselbench:", err)
			os.Exit(1)
		}
		a := enc.NewAssembler(c)
		rep := encReport{Target: name}
		var imgs []*enc.Image
		for _, w := range bench.Suite(1) {
			f := w.Build()
			isel.Prepare(f, s.Name)
			mf, r := s.Handwritten.Select(f)
			if r.Fallback {
				fmt.Fprintf(os.Stderr, "iselbench: %s: %s: selection fell back (%s), excluded from the encoding baseline\n",
					name, w.Name, r.FallbackReason)
				continue
			}
			img, aerr := a.Assemble(mf)
			if aerr != nil {
				fmt.Fprintf(os.Stderr, "iselbench: %s: %s: assemble: %v\n", name, w.Name, aerr)
				os.Exit(1)
			}
			imgs = append(imgs, img)
			rep.Workloads++
			rep.Insts += len(img.Units)
			rep.CodeBytes += len(img.Code)
		}

		// Round-trip verification: decode each image and demand byte
		// identity against what was assembled, instruction by instruction.
		for _, img := range imgs {
			listing := c.Disassemble(img.Code, img.Base)
			if len(listing) != len(img.Units) {
				fmt.Fprintf(os.Stderr, "iselbench: %s: %d units decoded as %d lines\n", name, len(img.Units), len(listing))
				os.Exit(1)
			}
			for i, ln := range listing {
				u := img.Units[i]
				re, rerr := ln.Inst.Encode(ln.Ops)
				if rerr != nil || ln.Inst != u.IC || !bytes.Equal(re, u.Bytes) {
					fmt.Fprintf(os.Stderr, "iselbench: %s: unit %d (%s) does not round-trip\n", name, i, u.IC.Inst.Name)
					os.Exit(1)
				}
				rep.RoundTrips++
			}
		}

		out = append(out, rep)
	}
	je := json.NewEncoder(os.Stdout)
	je.SetIndent("", "  ")
	if err := je.Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "iselbench:", err)
		os.Exit(1)
	}
}

// writeTrace dumps the recorded spans as Chrome trace-event JSON.
func writeTrace(o *obs.Obs, path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "iselbench:", err)
		os.Exit(1)
	}
	defer f.Close()
	if err := o.Trace.WriteTraceJSON(f); err != nil {
		fmt.Fprintln(os.Stderr, "iselbench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "iselbench: wrote trace (%d spans) to %s\n",
		len(o.Trace.Snapshot()), path)
}

func emitJSON(s *harness.Setup, rules int, synthElapsed time.Duration, scale int, rows []harness.Row) {
	rep := benchReport{
		Target:  s.Name,
		Scale:   scale,
		Rules:   rules,
		SynthMS: float64(synthElapsed.Nanoseconds()) / 1e6,
		Geomean: map[string]float64{},
	}
	if s.Synther != nil {
		rep.Stages = s.Synther.Stats.Snapshot()
	}
	for _, r := range rows {
		rep.Rows = append(rep.Rows, benchRow{
			Workload: r.Workload, Backend: r.Backend,
			Cycles: r.Cycles, Insts: r.Insts, Size: r.Size,
			Fallback: r.Fallback, HookPct: r.HookPct,
		})
	}
	rep.FuzzThroughput = fuzz.Throughput(fuzz.SetupPipeline(s, true), 1, 300)
	rep.Normalized = harness.Normalized(rows, "selectiondag")
	seen := map[string]bool{}
	for _, r := range rows {
		if !seen[r.Backend] {
			seen[r.Backend] = true
			if g := harness.GeoMean(rep.Normalized, r.Backend); g > 0 {
				rep.Geomean[r.Backend] = g
			}
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "iselbench:", err)
		os.Exit(1)
	}
}
