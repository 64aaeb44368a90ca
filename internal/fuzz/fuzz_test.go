package fuzz

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"iselgen/internal/bv"
	"iselgen/internal/gmir"
	"iselgen/internal/harness"
	"iselgen/internal/rules"
)

func bvRNG(seed, iter uint64) *bv.RNG { return bv.NewRNG(SubSeed(seed, iter)) }

// Handwritten pipelines are shared across tests (and the native fuzz
// targets): building a target's ISA model is cheap, but doing it per
// subtest adds up.
var (
	pipeOnce sync.Once
	pipes    map[string]*Pipeline
	pipeErr  error
)

func testPipelines(t testing.TB) map[string]*Pipeline {
	pipeOnce.Do(func() {
		pipes = map[string]*Pipeline{}
		for _, tgt := range []string{"aarch64", "riscv"} {
			pl, err := NewPipeline(tgt, false)
			if err != nil {
				pipeErr = err
				return
			}
			pipes[tgt] = pl
		}
	})
	if pipeErr != nil {
		t.Fatalf("building pipelines: %v", pipeErr)
	}
	return pipes
}

// TestCorpusReplay re-runs every checked-in reproducer: each entry is a
// bug the fuzzer once found (or a seed pinning a lowering path), so a
// failure here is a regression.
func TestCorpusReplay(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "corpus", "*.repro"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no corpus entries found")
	}
	pls := testPipelines(t)
	for _, file := range files {
		file := file
		t.Run(filepath.Base(file), func(t *testing.T) {
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			r, err := ParseRepro(string(src))
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			if err := ReplayRepro(r, pls); err != nil {
				t.Errorf("replay failed: %v", err)
			}
		})
	}
}

// TestInjectedSelectorBug is the harness's own acceptance test: commute
// the operands of the handwritten SUBXrr rule and check that the fuzzer
// notices within a few hundred programs and shrinks the failure to a
// minimal reproducer that survives a corpus round-trip.
func TestInjectedSelectorBug(t *testing.T) {
	set, err := harness.New("aarch64")
	if err != nil {
		t.Fatal(err)
	}
	injected := false
	for _, r := range set.Handwritten.Lib.Rules {
		if len(r.Seq.Insts) == 1 && r.Seq.Insts[0].Name == "SUBXrr" &&
			len(r.Operands) == 2 &&
			r.Operands[0].Kind == rules.SrcLeaf && r.Operands[1].Kind == rules.SrcLeaf {
			r.Operands[0].Leaf, r.Operands[1].Leaf = r.Operands[1].Leaf, r.Operands[0].Leaf
			injected = true
			break
		}
	}
	if !injected {
		t.Fatal("no SUBXrr reg-reg rule found to corrupt")
	}
	pl := &Pipeline{Name: set.Name, Primary: set.Handwritten}

	const seed, maxIter = 1, 2000
	cfg := DefaultGenConfig()
	for iter := 0; iter < maxIter; iter++ {
		p := Gen(bvRNG(seed, uint64(iter)), cfg)
		cerr := CheckProg(pl, p, VectorsFor(seed, p, 5))
		if !IsFailure(cerr) {
			continue
		}
		failing := func(q *Prog) bool {
			return IsFailure(CheckProg(pl, q, VectorsFor(seed, q, 5)))
		}
		shrunk := Shrink(p, failing, 2000)
		if !failing(shrunk) {
			t.Fatalf("shrunk program no longer fails:\n%s", shrunk.Format())
		}
		if shrunk.NumOps() > 3 {
			t.Errorf("shrunk reproducer has %d ops, want <= 3:\n%s",
				shrunk.NumOps(), shrunk.Format())
		}
		// The reproducer must survive the corpus round-trip and still fail.
		dir := t.TempDir()
		path, err := SaveRepro(dir, &Repro{
			Oracle: "select-diff", Target: pl.Name, Seed: seed,
			Note: firstLine(cerr.Error()), Prog: shrunk.Format(),
		})
		if err != nil {
			t.Fatal(err)
		}
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		r, err := ParseRepro(string(src))
		if err != nil {
			t.Fatalf("round-trip parse: %v", err)
		}
		q, err := ParseProg(r.Prog)
		if err != nil {
			t.Fatalf("round-trip program parse: %v", err)
		}
		if !failing(q) {
			t.Error("round-tripped reproducer no longer fails")
		}
		return
	}
	t.Fatalf("commuted SUBXrr rule not caught in %d programs", maxIter)
}

// TestGenProgramsRoundTrip: generated programs validate, and the corpus
// text form round-trips exactly.
func TestGenProgramsRoundTrip(t *testing.T) {
	cfg := DefaultGenConfig()
	for iter := uint64(0); iter < 300; iter++ {
		p := Gen(bvRNG(11, iter), cfg)
		if err := p.Validate(); err != nil {
			t.Fatalf("iter %d: generated invalid program: %v\n%s", iter, err, p.Format())
		}
		text := p.Format()
		q, err := ParseProg(text)
		if err != nil {
			t.Fatalf("iter %d: reparse: %v\n%s", iter, err, text)
		}
		if q.Format() != text {
			t.Fatalf("iter %d: round-trip mismatch:\n%s\nvs\n%s", iter, text, q.Format())
		}
		if _, err := p.Build(); err != nil {
			t.Fatalf("iter %d: build: %v\n%s", iter, err, text)
		}
	}
}

// TestGenLegalizes: every generated program survives legalization at
// both targets' minimum widths.
func TestGenLegalizes(t *testing.T) {
	cfg := DefaultGenConfig()
	for _, minW := range []int{32, 64} {
		for iter := uint64(0); iter < 200; iter++ {
			p := Gen(bvRNG(13, iter), cfg)
			f, err := p.Build()
			if err != nil {
				t.Fatal(err)
			}
			if err := gmir.Legalize(f, minW); err != nil {
				t.Fatalf("minW %d iter %d: %v\n%s", minW, iter, err, p.Format())
			}
		}
	}
}

// TestShrinkMinimizes: shrinking against a simple structural predicate
// converges to a near-minimal program and never emits an invalid one.
func TestShrinkMinimizes(t *testing.T) {
	hasMul := func(p *Prog) bool {
		if p.Validate() != nil {
			return false
		}
		for _, in := range p.Insts {
			if in.Op == "mul" {
				return true
			}
		}
		return false
	}
	cfg := DefaultGenConfig()
	found := 0
	for iter := uint64(0); iter < 500 && found < 20; iter++ {
		p := Gen(bvRNG(17, iter), cfg)
		if !hasMul(p) {
			continue
		}
		found++
		s := Shrink(p, hasMul, 3000)
		if !hasMul(s) {
			t.Fatalf("shrunk program lost the property:\n%s", s.Format())
		}
		if s.NumOps() > 2 {
			t.Errorf("iter %d: shrunk to %d ops, want <= 2 (a mul and at most one feeder):\n%s",
				iter, s.NumOps(), s.Format())
		}
	}
	if found == 0 {
		t.Fatal("generator never produced a mul")
	}
}

// TestVectorsStable: the input vectors depend only on (seed, program
// shape), not on generator entropy, so replay sees the original inputs.
func TestVectorsStable(t *testing.T) {
	p := Gen(bvRNG(23, 0), DefaultGenConfig())
	a := VectorsFor(99, p, 4)
	b := VectorsFor(99, p, 4)
	if len(a) != 4 || len(b) != 4 {
		t.Fatalf("want 4 vectors, got %d and %d", len(a), len(b))
	}
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("vector %d arg %d differs across calls", i, j)
			}
		}
	}
}

// TestReproRoundTrip covers the corpus format for all three oracles.
func TestReproRoundTrip(t *testing.T) {
	for _, r := range []*Repro{
		{Oracle: "select-diff", Target: "aarch64", Seed: 3, Note: "ret mismatch",
			Prog: "v0 = param 64\nret v0\n"},
		{Oracle: "spec", Seed: 9, Note: "panic: boom",
			Spec: "inst z(a: reg64, b: reg64) { rd = a + b; }\n"},
		{Oracle: "smt", Seed: 4, Iter: 77, Note: "evals disagree"},
	} {
		got, err := ParseRepro(r.Format())
		if err != nil {
			t.Fatalf("%s: %v", r.Oracle, err)
		}
		if got.Format() != r.Format() {
			t.Errorf("%s: round-trip mismatch:\n%q\nvs\n%q", r.Oracle, r.Format(), got.Format())
		}
	}
}

// TestSmokeOracles runs a short burst of each oracle end-to-end; any
// failure means a real pipeline bug.
func TestSmokeOracles(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, tgt := range []string{"aarch64", "riscv"} {
		sum, err := Run(Options{Seed: 5, N: 150, Target: tgt, Oracle: "select-diff"})
		if err != nil {
			t.Fatal(err)
		}
		if sum.Failed != 0 {
			t.Errorf("%s: %d select-diff failures", tgt, sum.Failed)
		}
	}
	sum, err := Run(Options{Seed: 5, N: 150, Oracle: "smt"})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Failed != 0 {
		t.Errorf("%d smt failures", sum.Failed)
	}
	sum, err = Run(Options{Seed: 5, N: 300, Oracle: "spec"})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Failed != 0 {
		t.Errorf("%d spec failures", sum.Failed)
	}
}

// TestEncodeSmoke runs the machine-encoding round-trip oracle on a
// burst of generated programs per target: every program must select,
// assemble, decode back byte-identically, and execute on the decoding
// emulator exactly as on the MIR simulator. The renaming register
// allocator means none of them should be skipped for pressure.
func TestEncodeSmoke(t *testing.T) {
	for _, tgt := range []string{"aarch64", "riscv"} {
		sum, err := Run(Options{Seed: 5, N: 150, Target: tgt, Oracle: "encode"})
		if err != nil {
			t.Fatal(err)
		}
		if sum.Failed != 0 {
			t.Errorf("%s: %d encode failures", tgt, sum.Failed)
		}
		if sum.PerOracle["encode"] != 150 {
			t.Errorf("%s: ran %d iterations", tgt, sum.PerOracle["encode"])
		}
		if sum.Skipped != 0 {
			t.Errorf("%s: %d programs skipped the machine round-trip", tgt, sum.Skipped)
		}
	}
}

// TestSpecMutantSynthesis exercises the expensive accepted-mutant path
// (synthesize + differential-check) on a handful of iterations.
func TestSpecMutantSynthesis(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for iter := 0; iter < 12; iter++ {
		src, err := CheckSpec(21, iter, SpecOptions{Synth: true, Progs: 2})
		if IsFailure(err) {
			t.Fatalf("iter %d: %v\nspec:\n%s", iter, err, src)
		}
	}
}
