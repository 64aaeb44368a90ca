package rules

import (
	"strings"
	"testing"
	"testing/quick"

	"iselgen/internal/bv"
	"iselgen/internal/gmir"
	"iselgen/internal/isa"
	"iselgen/internal/pattern"
	"iselgen/internal/term"
)

func TestEmbedDecode(t *testing.T) {
	z12 := Embed{Width: 12}
	if e, ok := z12.Decode(bv.New(64, 4095)); !ok || e.Lo != 4095 || e.W() != 12 {
		t.Errorf("zext12(4095) = %v, %v", e, ok)
	}
	if _, ok := z12.Decode(bv.New(64, 4096)); ok {
		t.Error("4096 fits zext12")
	}
	s9 := Embed{Width: 9, Signed: true}
	if e, ok := s9.Decode(bv.NewInt(64, -256)); !ok || e.Lo != 0x100 {
		t.Errorf("sext9(-256) = %v, %v", e, ok)
	}
	if _, ok := s9.Decode(bv.New(64, 256)); ok {
		t.Error("256 fits sext9")
	}
	sc := Embed{Width: 12, Shift: 3}
	if e, ok := sc.Decode(bv.New(64, 8*100)); !ok || e.Lo != 100 {
		t.Errorf("scaled(800) = %v, %v", e, ok)
	}
	if _, ok := sc.Decode(bv.New(64, 12)); ok {
		t.Error("unaligned 12 fits scale-8")
	}
}

// Property: Decode is exactly the inverse image of the embedding.
func TestEmbedDecodeQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 3000}
	for _, em := range []Embed{{Width: 12}, {Width: 9, Signed: true}, {Width: 12, Shift: 3}, {Width: 16, Signed: true, Shift: 1}} {
		em := em
		err := quick.Check(func(raw uint64) bool {
			v := bv.New(64, raw)
			e, ok := em.Decode(v)
			if !ok {
				return true
			}
			// Re-embed and compare.
			var back bv.BV
			if em.Signed {
				back = e.SExt(64)
			} else {
				back = e.ZExt(64)
			}
			return back.ShlN(uint(em.Shift)) == v
		}, cfg)
		if err != nil {
			t.Errorf("%v: %v", em, err)
		}
		// Every in-image value decodes.
		err = quick.Check(func(eRaw uint16) bool {
			e := bv.New(em.Width, uint64(eRaw))
			var v bv.BV
			if em.Signed {
				v = e.SExt(64)
			} else {
				v = e.ZExt(64)
			}
			v = v.ShlN(uint(em.Shift))
			got, ok := em.Decode(v)
			return ok && got == e
		}, cfg)
		if err != nil {
			t.Errorf("%v image: %v", em, err)
		}
	}
}

func TestEmbedTerm(t *testing.T) {
	b := term.NewBuilder()
	e := b.VarT("e", term.KindImm, 12)
	em := Embed{Width: 12, Shift: 3}
	tt := em.Term(b, e, 64)
	env := term.NewEnv()
	env.Bind("e", bv.New(12, 5))
	if got := tt.Eval(env); got.Lo != 40 {
		t.Errorf("embed term eval = %d", got.Lo)
	}
	emS := Embed{Width: 12, Signed: true}
	ts := emS.Term(b, e, 64)
	env.Bind("e", bv.NewInt(12, -1))
	if got := ts.Eval(env); !got.IsOnes() {
		t.Errorf("signed embed term = %v", got)
	}
}

func mkRule(t *testing.T, cost int) *Rule {
	t.Helper()
	b := term.NewBuilder()
	src := `inst A1(rn: reg64) { rd = rn; }
inst A2(rn: reg64, rm: reg64) { rd = rn + rm; }
inst A3(rn: reg64, rm: reg64, rk: reg64) { rd = rn + rm + rk; }`
	tgt, err := isa.LoadTarget(b, "m", src, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	seq := isa.Single(b, tgt.Insts[cost-1])
	p := pattern.New(pattern.Op(gmir.GAdd, gmir.S64,
		pattern.Leaf(gmir.S64), pattern.Leaf(gmir.S64)))
	var ops []OperandSource
	for i := 0; i < cost; i++ {
		ops = append(ops, OperandSource{Kind: SrcLeaf, Leaf: i % 2})
	}
	return &Rule{Pattern: p, Seq: seq, Operands: ops, Source: "manual"}
}

func TestLibraryChainsSortedByCost(t *testing.T) {
	lib := NewLibrary("t")
	r3 := mkRule(t, 3)
	r1 := mkRule(t, 1)
	r2 := mkRule(t, 2)
	lib.Add(r3)
	lib.Add(r1)
	lib.Add(r2)
	key := r1.Pattern.Key()
	chain := lib.LookupAll(key)
	if len(chain) != 3 {
		t.Fatalf("chain = %d", len(chain))
	}
	if chain[0].Cost() != 1 || chain[1].Cost() != 2 || chain[2].Cost() != 3 {
		t.Errorf("chain costs = %d,%d,%d", chain[0].Cost(), chain[1].Cost(), chain[2].Cost())
	}
	if lib.Lookup(key).Cost() != 1 {
		t.Error("Lookup not cheapest")
	}
	// Duplicate (same signature) rejected.
	lib.Add(mkRule(t, 2))
	if len(lib.LookupAll(key)) != 3 {
		t.Error("duplicate accepted")
	}
}

func TestCandidatesOrdering(t *testing.T) {
	lib := NewLibrary("t")
	small := mkRule(t, 1)
	big := mkRule(t, 2)
	// Make 'big' a larger pattern.
	big.Pattern = pattern.New(pattern.Op(gmir.GAdd, gmir.S64,
		pattern.Leaf(gmir.S64),
		pattern.Op(gmir.GShl, gmir.S64, pattern.Leaf(gmir.S64), pattern.ImmLeaf(gmir.S64))))
	lib.Add(small)
	lib.Add(big)
	cands := lib.Candidates(KeyOf(small.Pattern))
	if len(cands) != 2 || cands[0] != big {
		t.Errorf("largest-first ordering violated")
	}
}

func TestEmitFormat(t *testing.T) {
	lib := NewLibrary("t")
	r := mkRule(t, 2)
	r.Operands[1].Embed = &Embed{Width: 6}
	lib.Add(r)
	out := lib.Emit()
	for _, want := range []string{"GeneratedPattern", "G_ADD", "zext6", "cost 2"} {
		if !strings.Contains(out, want) {
			t.Errorf("Emit missing %q:\n%s", want, out)
		}
	}
	st := lib.Summarize()
	if st.Rules != 1 || st.BySource["manual"] != 1 || st.RulesWithImmCs != 1 {
		t.Errorf("summary = %+v", st)
	}
}
