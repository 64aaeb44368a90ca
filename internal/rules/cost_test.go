package rules

import (
	"testing"

	"iselgen/internal/gmir"
	"iselgen/internal/isa"
	"iselgen/internal/pattern"
	"iselgen/internal/term"
)

// tieTarget has two distinct 2-operand instructions: equal cost, equal
// pattern, so only the tie-break orders them.
func tieTarget(t *testing.T) (*term.Builder, *isa.Target) {
	t.Helper()
	b := term.NewBuilder()
	src := `inst ALPHA(rn: reg64, rm: reg64) { rd = rn + rm; }
inst BETA(rn: reg64, rm: reg64) { rd = rn | rm; }`
	tgt, err := isa.LoadTarget(b, "m", src, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	return b, tgt
}

func tieRule(b *term.Builder, tgt *isa.Target, name string) *Rule {
	inst := tgt.ByName(name)
	seq := isa.Single(b, inst)
	p := pattern.New(pattern.Op(gmir.GAdd, gmir.S64,
		pattern.Leaf(gmir.S64), pattern.Leaf(gmir.S64)))
	var ops []OperandSource
	for i := range inst.Operands {
		ops = append(ops, OperandSource{Kind: SrcLeaf, Leaf: i})
	}
	return &Rule{Pattern: p, Seq: seq, Operands: ops, Source: "manual"}
}

// Equal-cost rules must produce the same Lookup winner and the same
// LookupAll order whatever order Add saw them in — otherwise the library
// (and everything cached from it) depends on synthesis worker timing.
func TestAddTieBreakDeterministic(t *testing.T) {
	b, tgt := tieTarget(t)
	mk := func(names ...string) *Library {
		lib := NewLibrary("m")
		for _, n := range names {
			lib.Add(tieRule(b, tgt, n))
		}
		return lib
	}
	fwd := mk("ALPHA", "BETA")
	rev := mk("BETA", "ALPHA")
	key := tieRule(b, tgt, "ALPHA").Pattern.Key()
	cf, cr := fwd.LookupAll(key), rev.LookupAll(key)
	if len(cf) != 2 || len(cr) != 2 {
		t.Fatalf("chains = %d, %d rules", len(cf), len(cr))
	}
	for i := range cf {
		if ruleSig(cf[i]) != ruleSig(cr[i]) {
			t.Fatalf("chain position %d differs across insertion orders: %s vs %s",
				i, cf[i].Seq, cr[i].Seq)
		}
	}
	if ruleSig(fwd.Lookup(key)) != ruleSig(rev.Lookup(key)) {
		t.Error("Lookup winner depends on insertion order")
	}
}

// Candidates (the greedy dispatch order) must be insertion-order
// independent too: Freeze's sort ends in a full content tie-break.
func TestFreezeTieBreakDeterministic(t *testing.T) {
	b, tgt := tieTarget(t)
	mk := func(names ...string) *Library {
		lib := NewLibrary("m")
		for _, n := range names {
			lib.Add(tieRule(b, tgt, n))
		}
		lib.Freeze()
		return lib
	}
	fwd := mk("ALPHA", "BETA")
	rev := mk("BETA", "ALPHA")
	k := KeyOf(tieRule(b, tgt, "ALPHA").Pattern)
	cf, cr := fwd.Candidates(k), rev.Candidates(k)
	if len(cf) != len(cr) {
		t.Fatalf("candidate counts differ: %d vs %d", len(cf), len(cr))
	}
	for i := range cf {
		if ruleSig(cf[i]) != ruleSig(cr[i]) {
			t.Fatalf("candidate %d differs across insertion orders", i)
		}
	}
}
