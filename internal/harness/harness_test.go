package harness

import (
	"strings"
	"testing"

	"iselgen/internal/core"
)

// The harness tests run a scaled-down synthesis (fewer test inputs) so
// the whole selection path stays fast in CI.
func quickSetup(t *testing.T, name string) *Setup {
	t.Helper()
	s, err := New(name)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.TestInputs = 48
	s.Synthesize(cfg, 0)
	return s
}

func TestCorpusPatternsContainSeeds(t *testing.T) {
	pats := CorpusPatterns("aarch64", 0)
	if len(pats) < 300 {
		t.Errorf("corpus+seeds = %d patterns", len(pats))
	}
	// Budget truncates the union.
	small := CorpusPatterns("aarch64", 25)
	if len(small) != 25 {
		t.Errorf("budgeted corpus = %d", len(small))
	}
	// No duplicates.
	seen := map[string]bool{}
	for _, p := range pats {
		if seen[p.Key()] {
			t.Fatalf("duplicate pattern %s", p)
		}
		seen[p.Key()] = true
	}
}

func TestSeedPatternsWellFormed(t *testing.T) {
	for _, p := range SeedPatterns() {
		if p.Size() < 1 {
			t.Errorf("empty pattern %s", p)
		}
	}
}

func TestEndToEndRISCV(t *testing.T) {
	s := quickSetup(t, "riscv")
	if s.SynthLib.Len() < 40 {
		t.Errorf("synthesized only %d rules", s.SynthLib.Len())
	}
	rows, err := s.RunSuite(1)
	if err != nil {
		t.Fatal(err)
	}
	// 9 workloads × 3 backends.
	if len(rows) != 27 {
		t.Errorf("rows = %d", len(rows))
	}
	norm := Normalized(rows, "selectiondag")
	g := GeoMean(norm, "synth")
	if g < 0.8 || g > 1.2 {
		t.Errorf("synth geomean %.3f outside the paper's shape", g)
	}
	if out := s.TableII(s.SynthLib); !strings.Contains(out, "Index Lookup") {
		t.Error("TableII malformed")
	}
}

func TestExtraSequencesRISCV(t *testing.T) {
	s, err := New("riscv")
	if err != nil {
		t.Fatal(err)
	}
	fn := ExtraSequences("riscv")
	if fn == nil {
		t.Fatal("no extras for riscv")
	}
	seqs := fn(s.B, s.ISA)
	if len(seqs) < 5 {
		t.Fatalf("extras = %d", len(seqs))
	}
	for _, seq := range seqs {
		if seq.Len() != 3 {
			t.Errorf("%s has length %d, want 3", seq, seq.Len())
		}
		if len(seq.FixedImms) != 2 {
			t.Errorf("%s fixed imms = %d", seq, len(seq.FixedImms))
		}
	}
	if ExtraSequences("aarch64") != nil {
		t.Error("unexpected aarch64 extras")
	}
}

func TestGeoMean(t *testing.T) {
	norm := map[string]map[string]float64{
		"a": {"x": 2.0},
		"b": {"x": 0.5},
	}
	if g := GeoMean(norm, "x"); g < 0.999 || g > 1.001 {
		t.Errorf("geomean = %f", g)
	}
	if g := GeoMean(norm, "missing"); g != 0 {
		t.Errorf("missing backend geomean = %f", g)
	}
}
