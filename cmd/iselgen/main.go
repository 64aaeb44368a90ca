// Command iselgen synthesizes an instruction selection rule library for
// a target from its formal ISA specification — the paper's main
// pipeline. It prints the Table-II-style synthesis breakdown and can
// emit the generated rules in the TableGen-flavoured format of Listing 1.
//
// Usage:
//
//	iselgen -target aarch64|riscv|x86 [-rules out.td] [-inputs N]
//	        [-patterns N] [-workers N] [-summary]
//	iselgen -spec newisa.spec [...]        (inline DSL spec retargeting)
//	iselgen -spec edited.spec -incremental -from old.rules [...]
//
// With -incremental, the library saved by a previous run (-rules) is
// diffed against the current spec by instruction content fingerprint:
// rules whose supporting instructions are unchanged are re-verified and
// reused without any solver work, and synthesis runs only for the delta.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"iselgen/internal/core"
	"iselgen/internal/harness"
	"iselgen/internal/incr"
	"iselgen/internal/isa"
	"iselgen/internal/isel"
	"iselgen/internal/obs"
	"iselgen/internal/pattern"
	"iselgen/internal/rules"
	"iselgen/internal/solver"
	"iselgen/internal/targets"
	"iselgen/internal/term"
)

func main() {
	target := flag.String("target", "aarch64", "target: aarch64, riscv, or x86")
	specFile := flag.String("spec", "", "synthesize for an inline DSL spec file instead of a builtin target")
	rulesOut := flag.String("rules", "", "write the loadable rule library to this file")
	tdOut := flag.String("td", "", "write the TableGen-style rule listing to this file")
	inputs := flag.Int("inputs", 0, "test inputs per sequence (0 = default)")
	maxPatterns := flag.Int("patterns", 0, "limit considered patterns (0 = all)")
	workers := flag.Int("workers", 0, "matcher threads (0 = NumCPU)")
	summary := flag.Bool("summary", false, "print the library composition summary")
	incremental := flag.Bool("incremental", false, "resynthesize incrementally from a prior artifact (-from)")
	fromPath := flag.String("from", "", "prior rule-library artifact to diff against (with -incremental)")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON of the run to this file")
	flag.Parse()

	cfg := core.DefaultConfig()
	if *inputs > 0 {
		cfg.TestInputs = *inputs
	}
	cfg.Workers, cfg.Verdicts = core.ResolveWorkers(*workers), solver.New(0)
	if *traceOut != "" {
		o := obs.New()
		cfg.Obs = o
		defer writeTrace(o, *traceOut)
	}

	if *incremental {
		if *fromPath == "" {
			fatal(fmt.Errorf("-incremental requires -from <artifact>"))
		}
		runIncremental(*target, *specFile, *fromPath, cfg, *maxPatterns, *summary, *rulesOut, *tdOut)
		return
	}

	t0 := time.Now()
	if _, err := targets.LookupSelecting(*target); err == nil && *specFile == "" {
		sp := cfg.Obs.TracerOrNil().Start("spec/load").SetStr("target", *target)
		s, err := harness.New(*target)
		sp.End()
		if err != nil {
			fatal(err)
		}
		lib := s.Synthesize(cfg, *maxPatterns)
		printResults(lib, s.ISA, t0, s.TableII(lib), *summary, *rulesOut, *tdOut)
		return
	}
	lib, tgt, tableII, err := synthPlain(*target, *specFile, cfg, *maxPatterns)
	if err != nil {
		fatal(err)
	}
	printResults(lib, tgt, t0, tableII, *summary, *rulesOut, *tdOut)
}

// loadFor materializes the builder, target, and pattern corpus for a
// builtin target or an inline spec file without running synthesis — the
// incremental path decides what to synthesize itself. A builtin without
// a selection backend gets the 32-bit seed corpus of the §IX experiment.
// The load is traced as a "spec/load" span on tr (nil without -trace).
func loadFor(tr *obs.Tracer, target, specFile string, maxPatterns int) (*term.Builder, *isa.Target, []*pattern.Pattern, error) {
	sp := tr.Start("spec/load").SetStr("target", target)
	defer sp.End()
	b := term.NewBuilder()
	if specFile != "" {
		tgt, err := targets.LoadFile(b, specFile)
		if err != nil {
			return nil, nil, nil, err
		}
		return b, tgt, harness.CorpusPatterns(tgt.Name, maxPatterns), nil
	}
	bt, err := targets.Lookup(target)
	if err != nil {
		return nil, nil, nil, err
	}
	if bt.Selects() {
		s, err := harness.New(target)
		if err != nil {
			return nil, nil, nil, err
		}
		return s.B, s.ISA, harness.CorpusPatterns(target, maxPatterns), nil
	}
	tgt, err := bt.Load(b)
	if err != nil {
		return nil, nil, nil, err
	}
	return b, tgt, x86Patterns(maxPatterns), nil
}

// runIncremental is the -incremental flow: parse the prior artifact's
// provenance, diff it against the current spec, reuse what survives,
// synthesize the rest, and report the reuse accounting.
func runIncremental(target, specFile, fromPath string, cfg core.Config, maxPatterns int, summary bool, rulesOut, tdOut string) {
	t0 := time.Now()
	b, tgt, pats, err := loadFor(cfg.Obs.TracerOrNil(), target, specFile, maxPatterns)
	if err != nil {
		fatal(err)
	}
	text, err := os.ReadFile(fromPath)
	if err != nil {
		fatal(err)
	}
	art, err := incr.ParseArtifact(string(text))
	if err != nil {
		fatal(err)
	}
	lib, rep := incr.Resynthesize(context.Background(), b, tgt, art, incr.Options{Config: cfg, Patterns: pats})
	d := rep.Delta
	report := fmt.Sprintf(
		"delta: %d changed, %d added, %d removed, %d unchanged instructions\n"+
			"rules: %d in artifact, %d reused (%.0f%%), %d stale (%d failed re-verify), %d resynthesized, %d improved\n"+
			"work:  %d SMT queries, full pool rebuilt: %v\n",
		len(d.Changed), len(d.Added), len(d.Removed), d.Unchanged,
		rep.ArtifactRules, rep.Reused, 100*rep.ReusedFraction(),
		rep.Stale, rep.ReverifyFailed, rep.Resynthesized, rep.Improved,
		rep.SMTQueries, rep.FullPool)
	printResults(lib, tgt, t0, report, summary, rulesOut, tdOut)
}

// synthPlain runs the pipeline without the harness's baselines: for a
// DSL spec file — the retargeting flow of examples/newisa, from the CLI,
// validated up front by the same spec.Check the iseld daemon's inline
// path uses — or for a builtin target without a selection backend.
func synthPlain(target, specFile string, cfg core.Config, maxPatterns int) (*rules.Library, *isa.Target, string, error) {
	b, tgt, pats, err := loadFor(cfg.Obs.TracerOrNil(), target, specFile, maxPatterns)
	if err != nil {
		return nil, nil, "", err
	}
	synth := core.New(b, tgt, cfg)
	synth.BuildPool()
	lib := rules.NewLibrary(tgt.Name)
	synth.Synthesize(pats, lib)
	tableII := fmt.Sprintf("%s: %d instructions, %d sequences, %d rules (index %d, smt %d)\n",
		tgt.Name, len(tgt.Insts), synth.Stats.Sequences, lib.Len(),
		synth.Stats.IndexRules, synth.Stats.SMTRules)
	return lib, tgt, tableII, nil
}

func printResults(lib *rules.Library, tgt *isa.Target, t0 time.Time, tableII string, summary bool, rulesOut, tdOut string) {
	fmt.Printf("synthesized %d rules for %s in %v\n\n", lib.Len(), tgt.Name,
		time.Since(t0).Round(time.Millisecond))
	fmt.Println(tableII)

	if summary {
		st := lib.Summarize()
		fmt.Printf("by source: %v\nby sequence length: %v\nby pattern size: %v\nrules with immediate constraints: %d\n",
			st.BySource, st.BySeqLen, st.ByPatternSize, st.RulesWithImmCs)
	}
	if rulesOut != "" {
		// SaveLibraryFor stamps every instruction's content fingerprint
		// into the artifact header, which is what -incremental -from
		// diffs against after a spec edit.
		if err := os.WriteFile(rulesOut, []byte(isel.SaveLibraryFor(lib, tgt)), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote loadable rule library to %s\n", rulesOut)
	}
	if tdOut != "" {
		if err := os.WriteFile(tdOut, []byte(lib.Emit()), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote TableGen-style listing to %s\n", tdOut)
	}
}

// x86Patterns builds the 32-bit pattern set for the §IX discussion
// experiment (the x86 comparator's simplified spec has no multiplication
// and no 64-bit arithmetic).
func x86Patterns(max int) []*pattern.Pattern {
	var out []*pattern.Pattern
	for _, p := range harness.SeedPatterns() {
		if p.Root.Ty.Bits == 32 || (p.Root.Op != 0 && p.Root.Ty.Bits == 0) {
			out = append(out, p)
		}
	}
	if max > 0 && len(out) > max {
		out = out[:max]
	}
	return out
}

// writeTrace dumps the recorded spans as Chrome trace-event JSON
// (chrome://tracing / Perfetto).
func writeTrace(o *obs.Obs, path string) {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := o.Trace.WriteTraceJSON(f); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote trace (%d spans) to %s\n", len(o.Trace.Snapshot()), path)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "iselgen:", err)
	os.Exit(1)
}
