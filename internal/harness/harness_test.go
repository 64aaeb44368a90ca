package harness

import "testing"

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
