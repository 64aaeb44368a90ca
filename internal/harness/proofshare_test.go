package harness

import (
	"testing"

	"iselgen/internal/core"
	"iselgen/internal/gmir"
	"iselgen/internal/pattern"
	"iselgen/internal/rules"
	"iselgen/internal/solver"
)

// TestCompareProofShared: the SMT checker peels the shared zero-extension
// off a compare rule's miter before it keys the verdict memo, so the
// 32- and 64-bit CSET rules of one predicate (G_ZEXT of the same 32-bit
// G_ICMP) ask one question. The first is bit-blasted; the second is a
// memo hit. One worker keeps the count repeatable: with more, both can
// miss the memo before either stores its verdict.
func TestCompareProofShared(t *testing.T) {
	s, err := New("aarch64")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Workers = 1
	cfg.Verdicts = solver.New(0)
	cfg.ExtraSequences = s.builtin.Extra
	sy := core.New(s.B, s.ISA, cfg)
	sy.BuildPool()

	cset := func(bits int) *pattern.Pattern {
		cmp := &pattern.Node{Op: gmir.GICmp, Ty: gmir.S1, Pred: gmir.PredEQ,
			Args: []*pattern.Node{pattern.Leaf(gmir.S32), pattern.Leaf(gmir.S32)}}
		return pattern.New(pattern.Op(gmir.GZExt, gmir.Type{Bits: bits}, cmp))
	}
	lib := rules.NewLibrary(s.Name)
	sy.Synthesize([]*pattern.Pattern{cset(32), cset(64)}, lib)

	st := sy.Stats
	if st.SMTRules != 2 {
		t.Fatalf("%d SMT rules for the two CSET patterns, want 2", st.SMTRules)
	}
	if st.BitBlasts != 1 || st.MemoHits != 1 {
		t.Errorf("CSET-32 and CSET-64 cost %d bit-blasts and %d memo hits, want 1 and 1 (%d queries)",
			st.BitBlasts, st.MemoHits, st.SMTQueries)
	}
}
