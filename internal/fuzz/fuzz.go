package fuzz

import (
	"fmt"
	"strings"
	"time"

	"iselgen/internal/bv"
	"iselgen/internal/core"
	"iselgen/internal/harness"
	"iselgen/internal/solver"
)

// SubSeed derives the deterministic per-iteration seed: a splitmix64
// finalizer over (seed, iter), so every iteration replays independently.
func SubSeed(seed, iter uint64) uint64 {
	x := seed + 0x9e3779b97f4a7c15*(iter+1)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// vectorSalt keeps input vectors independent of how much entropy the
// program generator consumed, so shrinking and replay see the same
// inputs the original failure did.
const vectorSalt = 0x7ec5

// VectorsFor derives the canonical input vectors for a program under a
// driver seed. Used by the run loop, the shrinker, and corpus replay.
func VectorsFor(seed uint64, p *Prog, n int) [][]bv.BV {
	return Vectors(bv.NewRNG(SubSeed(seed, vectorSalt)), p, n)
}

// Options configures a fuzzing run.
type Options struct {
	Seed   uint64
	N      int           // iterations per oracle
	Target string        // "aarch64" or "riscv" (select-diff / encode)
	Oracle string        // "select-diff", "encode", "spec", "smt", or "all"
	Budget time.Duration // wall-clock cap (0 = unlimited)
	// CorpusDir receives shrunk reproducers for every failure.
	CorpusDir string
	// Synth selects against a freshly synthesized library (the pipeline
	// the paper ships); off, the handwritten library is the primary.
	Synth bool
	// SpecSynth differential-checks accepted spec mutants (slower).
	SpecSynth bool
	// NumVectors is the input vectors per program (default 5).
	NumVectors int
	// MaxShrinkChecks bounds the shrinker (default 2000).
	MaxShrinkChecks int
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

// Summary reports a run.
type Summary struct {
	Ran       int // iterations that completed an oracle check
	Skipped   int // legitimate skips (fallback on every backend, rejected mutants)
	Failed    int // genuine failures
	Repros    []string
	Elapsed   time.Duration
	PerOracle map[string]int
}

func (o *Options) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// NewPipeline constructs the select-diff pipeline for a named target.
// With synth, the primary is a freshly synthesized backend with the
// handwritten library as fallback; otherwise the handwritten backend is
// primary with no fallback.
func NewPipeline(target string, synth bool) (*Pipeline, error) {
	set, err := harness.New(target)
	if err != nil {
		return nil, fmt.Errorf("fuzz: %w", err)
	}
	pl := &Pipeline{Name: set.Name, Primary: set.Handwritten, ISA: set.ISA, MinWidth: set.MinWidth()}
	if synth {
		cfg := core.DefaultConfig()
		cfg.Verdicts = solver.New(0)
		set.Synthesize(cfg, 0)
		pl.Primary, pl.Fallback = set.Synth, set.Handwritten
	}
	return pl, nil
}

// Run executes the configured oracles for N iterations each.
func Run(opts Options) (*Summary, error) {
	start := time.Now()
	sum := &Summary{PerOracle: map[string]int{}}
	deadline := time.Time{}
	if opts.Budget > 0 {
		deadline = start.Add(opts.Budget)
	}
	over := func() bool {
		return !deadline.IsZero() && time.Now().After(deadline)
	}
	oracles := []string{opts.Oracle}
	if opts.Oracle == "" || opts.Oracle == "all" {
		oracles = []string{"select-diff", "encode", "spec", "smt"}
	}
	for _, oracle := range oracles {
		var err error
		switch oracle {
		case "select-diff":
			err = runSelectDiff(&opts, sum, over)
		case "encode":
			err = runEncode(&opts, sum, over)
		case "spec":
			err = runSpec(&opts, sum, over)
		case "smt":
			err = runSMT(&opts, sum, over)
		default:
			err = fmt.Errorf("fuzz: unknown oracle %q", oracle)
		}
		if err != nil {
			return sum, err
		}
	}
	sum.Elapsed = time.Since(start)
	return sum, nil
}

func (o *Options) numVectors() int {
	if o.NumVectors > 0 {
		return o.NumVectors
	}
	return 5
}

func (o *Options) maxShrinkChecks() int {
	if o.MaxShrinkChecks > 0 {
		return o.MaxShrinkChecks
	}
	return 2000
}

func (o *Options) save(sum *Summary, r *Repro) {
	if o.CorpusDir == "" {
		return
	}
	path, err := SaveRepro(o.CorpusDir, r)
	if err != nil {
		o.logf("fuzz: cannot save reproducer: %v", err)
		return
	}
	sum.Repros = append(sum.Repros, path)
	o.logf("  reproducer written to %s", path)
}

func runSelectDiff(opts *Options, sum *Summary, over func() bool) error {
	pl, err := NewPipeline(opts.Target, opts.Synth)
	if err != nil {
		return err
	}
	cfg := DefaultGenConfig()
	nVec := opts.numVectors()
	for iter := 0; iter < opts.N && !over(); iter++ {
		rng := bv.NewRNG(SubSeed(opts.Seed, uint64(iter)))
		p := Gen(rng, cfg)
		cerr := CheckProg(pl, p, VectorsFor(opts.Seed, p, nVec))
		sum.PerOracle["select-diff"]++
		switch {
		case cerr == nil:
			sum.Ran++
		case !IsFailure(cerr):
			sum.Ran++
			sum.Skipped++
		default:
			sum.Failed++
			opts.logf("select-diff failure (iter %d): %v", iter, cerr)
			failing := func(q *Prog) bool {
				return IsFailure(CheckProg(pl, q, VectorsFor(opts.Seed, q, nVec)))
			}
			shrunk := Shrink(p, failing, opts.maxShrinkChecks())
			opts.logf("  shrunk %d -> %d operations", p.NumOps(), shrunk.NumOps())
			opts.save(sum, &Repro{
				Oracle: "select-diff",
				Target: pl.Name,
				Seed:   opts.Seed,
				Note:   firstLine(cerr.Error()),
				Prog:   shrunk.Format(),
			})
		}
	}
	return nil
}

func runSpec(opts *Options, sum *Summary, over func() bool) error {
	sopts := SpecOptions{Synth: opts.SpecSynth}
	for iter := 0; iter < opts.N && !over(); iter++ {
		src, cerr := CheckSpec(opts.Seed, iter, sopts)
		sum.PerOracle["spec"]++
		switch {
		case cerr == nil:
			sum.Ran++
		case !IsFailure(cerr):
			sum.Ran++
			sum.Skipped++
		default:
			sum.Failed++
			opts.logf("spec failure (iter %d): %v", iter, cerr)
			opts.save(sum, &Repro{
				Oracle: "spec",
				Seed:   opts.Seed,
				Iter:   iter,
				Note:   firstLine(cerr.Error()),
				Spec:   src,
			})
		}
	}
	return nil
}

func runSMT(opts *Options, sum *Summary, over func() bool) error {
	memo := solver.New(0)
	for iter := 0; iter < opts.N && !over(); iter++ {
		cerr := CheckSMT(memo, opts.Seed, iter, 0)
		sum.PerOracle["smt"]++
		if cerr == nil {
			sum.Ran++
			continue
		}
		sum.Failed++
		opts.logf("smt failure (iter %d): %v", iter, cerr)
		opts.save(sum, &Repro{
			Oracle: "smt",
			Seed:   opts.Seed,
			Iter:   iter,
			Note:   firstLine(cerr.Error()),
		})
	}
	return nil
}

func firstLine(s string) string {
	return strings.SplitN(s, "\n", 2)[0]
}
