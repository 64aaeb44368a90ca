package core

import (
	"testing"

	"iselgen/internal/bv"
	"iselgen/internal/gmir"
	"iselgen/internal/isa"
	"iselgen/internal/pattern"
	"iselgen/internal/rules"
	"iselgen/internal/solver"
	"iselgen/internal/term"
)

// miniTarget is an AArch64-flavoured toy ISA that exercises every
// matching path: register ops, shifted ops, immediates, scaled loads,
// flags chains, and stores.
const miniSpec = `
inst ADDrr(rn: reg64, rm: reg64) { rd = rn + rm; }
inst SUBrr(rn: reg64, rm: reg64) { rd = rn - rm; }
inst ADDri(rn: reg64, imm: imm12) { rd = rn + zext(imm, 64); }
inst SUBri(rn: reg64, imm: imm12) { rd = rn - zext(imm, 64); }
inst ADDrs(rn: reg64, rm: reg64, sh: imm6) { rd = rn + (rm << zext(sh, 64)); }
inst LSLri(rn: reg64, sh: imm6) { rd = rn << zext(sh, 64); }
inst ANDrr(rn: reg64, rm: reg64) { rd = rn & rm; }
inst ORNrr(rn: reg64, rm: reg64) { rd = rn | ~rm; }
inst MVNr(rm: reg64) { rd = ~rm; }
inst NEGr(rm: reg64) { rd = -rm; }
inst MULrr(rn: reg64, rm: reg64) { rd = rn * rm; }
inst MADD(rn: reg64, rm: reg64, ra: reg64) { rd = ra + rn * rm; }
inst MOVZ(imm: imm16) { rd = zext(imm, 64); }
inst LDRui(rn: reg64, imm: imm12) { rd = load(rn + zext(imm, 64) * 8:64, 64); }
inst LDURi(rn: reg64, simm: imm9) { rd = load(rn + sext(simm, 64), 64); }
inst STRui(rt: reg64, rn: reg64, imm: imm12) { mem[rn + zext(imm, 64) * 8:64, 64] = rt; }
inst SUBSrr(rn: reg64, rm: reg64) {
  let res = rn - rm;
  rd = res;
  flags.N = extract(res, 63, 63);
  flags.Z = res == 0;
  flags.C = uge(rn, rm);
  flags.V = extract((rn ^ rm) & (rn ^ res), 63, 63);
}
inst CSETeq() { rd = zext(flags.Z, 64); }
inst CSETlo() { rd = zext(!flags.C, 64); }
inst CSELlt(rn: reg64, rm: reg64) { rd = select(flags.N != flags.V, rn, rm); }
`

func miniSynth(t *testing.T, cfg Config) (*Synthesizer, *term.Builder) {
	t.Helper()
	b := term.NewBuilder()
	tgt, err := isa.LoadTarget(b, "mini", miniSpec, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Verdicts == nil {
		cfg.Verdicts = solver.New(0)
	}
	s := New(b, tgt, cfg)
	s.BuildPool()
	return s, b
}

func TestBuildPool(t *testing.T) {
	s, _ := miniSynth(t, Config{TestInputs: 32, Workers: 2})
	if s.Stats.Sequences < 21 {
		t.Errorf("sequences = %d, want singles plus pairs", s.Stats.Sequences)
	}
	if s.Stats.IndexEntries == 0 {
		t.Fatal("nothing indexed")
	}
	// Pairs exist: there must be sequences of length 2.
	found2 := false
	for _, e := range s.Pool {
		if e.Seq.Len() == 2 {
			found2 = true
		}
	}
	if !found2 {
		t.Error("no composed sequences in pool")
	}
}

func r64() *pattern.Node { return pattern.Leaf(gmir.S64) }
func i64() *pattern.Node { return pattern.ImmLeaf(gmir.S64) }

func TestIndexHitShiftAdd(t *testing.T) {
	// The paper's running example: add-with-shifted-operand must be
	// found via the term index, not the solver.
	s, _ := miniSynth(t, Config{TestInputs: 32, Workers: 2})
	p := pattern.New(pattern.Op(gmir.GAdd, gmir.S64, r64(),
		pattern.Op(gmir.GShl, gmir.S64, r64(), i64())))
	r := s.SynthesizeOne(p)
	if r == nil {
		t.Fatal("no rule for add(x, shl(y, imm))")
	}
	if r.Seq.String() != "ADDrs" {
		t.Errorf("sequence = %s, want ADDrs", r.Seq)
	}
	// The immediate operand must carry a width-6 constraint.
	var em *rules.Embed
	for _, op := range r.Operands {
		if op.Embed != nil {
			em = op.Embed
		}
	}
	if em == nil || em.Width != 6 {
		t.Errorf("imm embed = %+v, want width 6", em)
	}
}

func TestIndexHitFigure4(t *testing.T) {
	// sub written as add-of-negation must still find SUBrr via the
	// canonical form.
	s, _ := miniSynth(t, Config{TestInputs: 32})
	// add(x, mul(y, -1)) — G_MUL by constant -1.
	p := pattern.New(pattern.Op(gmir.GSub, gmir.S64, r64(), r64()))
	r := s.SynthesizeOne(p)
	if r == nil || r.Seq.String() != "SUBrr" {
		t.Fatalf("sub rule = %v", r)
	}
	if r.Source != "index" {
		t.Errorf("sub found via %s, want index", r.Source)
	}
}

func TestConstantOperandBindsImmediate(t *testing.T) {
	// add(x, const) must select ADDri with a zext12 constraint.
	s, _ := miniSynth(t, Config{TestInputs: 32})
	p := pattern.New(pattern.Op(gmir.GAdd, gmir.S64, r64(), i64()))
	r := s.SynthesizeOne(p)
	if r == nil {
		t.Fatal("no rule for add(x, imm)")
	}
	if r.Seq.String() != "ADDri" {
		t.Errorf("sequence = %s", r.Seq)
	}
	found := false
	for _, op := range r.Operands {
		if op.Embed != nil {
			if op.Embed.Width != 12 || op.Embed.Signed {
				t.Errorf("embed = %v, want zext12", op.Embed)
			}
			// Representability: 4095 fits, 4096 does not.
			if _, ok := op.Embed.Decode(bv.New(64, 4095)); !ok {
				t.Error("4095 rejected")
			}
			if _, ok := op.Embed.Decode(bv.New(64, 4096)); ok {
				t.Error("4096 accepted")
			}
			found = true
		}
	}
	if !found {
		t.Error("no immediate embed recorded")
	}
}

func TestScaledLoadImmediate(t *testing.T) {
	// load(add(p, const)) must match LDRui (scale 8) or LDURi; the
	// scaled form requires a shift-3 embed.
	s, _ := miniSynth(t, Config{TestInputs: 32})
	p := pattern.New(pattern.LoadOp(gmir.GLoad, gmir.S64, 64,
		pattern.Op(gmir.GPtrAdd, gmir.P0, r64(), i64())))
	r := s.SynthesizeOne(p)
	if r == nil {
		t.Fatal("no rule for load(p + imm)")
	}
	name := r.Seq.String()
	if name != "LDRui" && name != "LDURi" {
		t.Errorf("sequence = %s", name)
	}
	if name == "LDRui" {
		for _, op := range r.Operands {
			if op.Embed != nil && op.Embed.Shift != 3 {
				t.Errorf("scaled embed = %v, want shift 3", op.Embed)
			}
		}
	}
}

func TestStorePattern(t *testing.T) {
	s, _ := miniSynth(t, Config{TestInputs: 32})
	p := pattern.New(pattern.StoreOp(64, r64(),
		pattern.Op(gmir.GPtrAdd, gmir.P0, r64(), i64())))
	r := s.SynthesizeOne(p)
	if r == nil {
		t.Fatal("no rule for store")
	}
	if r.Seq.String() != "STRui" {
		t.Errorf("sequence = %s", r.Seq)
	}
}

func TestFlagChainCmpCset(t *testing.T) {
	// zext(icmp eq x y) must match the SUBSrr;CSETeq chain.
	s, _ := miniSynth(t, Config{TestInputs: 32})
	p := pattern.New(pattern.Op(gmir.GZExt, gmir.S64,
		pattern.Cmp(gmir.PredEQ, r64(), r64())))
	r := s.SynthesizeOne(p)
	if r == nil {
		t.Fatal("no rule for zext(icmp)")
	}
	if r.Seq.String() != "SUBSrr ; CSETeq" {
		t.Errorf("sequence = %s", r.Seq)
	}
	// Unsigned-less-than via CSETlo.
	p2 := pattern.New(pattern.Op(gmir.GZExt, gmir.S64,
		pattern.Cmp(gmir.PredULT, r64(), r64())))
	r2 := s.SynthesizeOne(p2)
	if r2 == nil || r2.Seq.String() != "SUBSrr ; CSETlo" {
		t.Fatalf("ult rule = %v", r2)
	}
}

func TestSelectCmpChain(t *testing.T) {
	// select(icmp slt a b, x, y) -> SUBSrr ; CSELlt.
	s, _ := miniSynth(t, Config{TestInputs: 32})
	p := pattern.New(pattern.Op(gmir.GSelect, gmir.S64,
		pattern.Cmp(gmir.PredSLT, r64(), r64()), r64(), r64()))
	r := s.SynthesizeOne(p)
	if r == nil {
		t.Fatal("no rule for select(icmp)")
	}
	if r.Seq.String() != "SUBSrr ; CSELlt" {
		t.Errorf("sequence = %s", r.Seq)
	}
}

func TestOrNotViaSMTOrIndex(t *testing.T) {
	// or(x, xor(y, -1)) == orn — whether via canonical match or solver,
	// it must be found.
	s, _ := miniSynth(t, Config{TestInputs: 64})
	p := pattern.New(pattern.Op(gmir.GOr, gmir.S64, r64(),
		pattern.Op(gmir.GXor, gmir.S64, r64(), i64())))
	// The imm leaf is a free constant; orn requires imm == -1, so this
	// pattern as a whole must NOT match ORNrr (which has no immediate).
	if r := s.SynthesizeOne(p); r != nil {
		// Acceptable only if the rule's operand sources include a
		// constant binding... there is no imm input on ORNrr, so any
		// returned rule must be something else entirely.
		t.Logf("note: or/xor/imm matched %s (%s)", r.Seq, r.Source)
	}
}

func TestMulAddFusion(t *testing.T) {
	// add(a, mul(b, c)) -> MADD.
	s, _ := miniSynth(t, Config{TestInputs: 32})
	p := pattern.New(pattern.Op(gmir.GAdd, gmir.S64, r64(),
		pattern.Op(gmir.GMul, gmir.S64, r64(), r64())))
	r := s.SynthesizeOne(p)
	if r == nil {
		t.Fatal("no rule for add(a, mul(b,c))")
	}
	if r.Seq.String() != "MADD" {
		t.Errorf("sequence = %s, want MADD", r.Seq)
	}
}

func TestSynthesizeBatchWithBenefitFilter(t *testing.T) {
	s, _ := miniSynth(t, Config{TestInputs: 32, Workers: 4})
	lib := rules.NewLibrary("mini")
	pats := []*pattern.Pattern{
		pattern.New(pattern.Op(gmir.GAdd, gmir.S64, r64(), r64())),
		pattern.New(pattern.Op(gmir.GSub, gmir.S64, r64(), r64())),
		pattern.New(pattern.Op(gmir.GShl, gmir.S64, r64(), i64())),
		pattern.New(pattern.Op(gmir.GMul, gmir.S64, r64(), r64())),
		// Beneficial fusion: shift-add (4 operands via cover = ADDrr(2)+LSLri(2),
		// ADDrs costs 3 < 4).
		pattern.New(pattern.Op(gmir.GAdd, gmir.S64, r64(),
			pattern.Op(gmir.GShl, gmir.S64, r64(), i64()))),
		// Non-beneficial fusion: add(add(x,y),z) covered by two ADDrr
		// (cost 4); any 2-instruction sequence costs >= 4, so no rule
		// should be kept.
		pattern.New(pattern.Op(gmir.GAdd, gmir.S64,
			pattern.Op(gmir.GAdd, gmir.S64, r64(), r64()), r64())),
	}
	s.Synthesize(pats, lib)
	if lib.Lookup(pats[4].Key()) == nil {
		t.Error("beneficial shift-add rule missing")
	}
	if got := lib.Lookup(pats[5].Key()); got != nil {
		t.Errorf("non-beneficial add-add rule kept: %s (cost %d)", got.Seq, got.Cost())
	}
	if lib.Len() < 5 {
		t.Errorf("library size = %d", lib.Len())
	}
	if s.Stats.IndexRules == 0 {
		t.Error("no index-path rules recorded")
	}
}

// TestRulesSemanticallySound re-verifies every synthesized rule by random
// evaluation — invariant #6 of DESIGN.md.
func TestRulesSemanticallySound(t *testing.T) {
	s, b := miniSynth(t, Config{TestInputs: 32, Workers: 2})
	lib := rules.NewLibrary("mini")
	var pats []*pattern.Pattern
	// A diverse batch.
	for _, mk := range []func() *pattern.Pattern{
		func() *pattern.Pattern { return pattern.New(pattern.Op(gmir.GAdd, gmir.S64, r64(), r64())) },
		func() *pattern.Pattern { return pattern.New(pattern.Op(gmir.GAdd, gmir.S64, r64(), i64())) },
		func() *pattern.Pattern { return pattern.New(pattern.Op(gmir.GSub, gmir.S64, r64(), i64())) },
		func() *pattern.Pattern {
			return pattern.New(pattern.Op(gmir.GAdd, gmir.S64, r64(),
				pattern.Op(gmir.GShl, gmir.S64, r64(), i64())))
		},
		func() *pattern.Pattern {
			return pattern.New(pattern.Op(gmir.GZExt, gmir.S64, pattern.Cmp(gmir.PredEQ, r64(), r64())))
		},
		func() *pattern.Pattern {
			return pattern.New(pattern.Op(gmir.GAdd, gmir.S64, r64(),
				pattern.Op(gmir.GMul, gmir.S64, r64(), r64())))
		},
	} {
		pats = append(pats, mk())
	}
	s.Synthesize(pats, lib)
	rng := bv.NewRNG(77)
	for _, r := range lib.Rules {
		checkRuleSound(t, b, r, rng)
	}
}

// checkRuleSound evaluates pattern and sequence on random concrete
// inputs, applying the rule's operand mapping and immediate embeds.
func checkRuleSound(t *testing.T, b *term.Builder, r *rules.Rule, rng *bv.RNG) {
	t.Helper()
	tp, err := r.Pattern.Compile(b)
	if err != nil {
		t.Fatal(err)
	}
	leaves := r.Pattern.Leaves()
	for trial := 0; trial < 40; trial++ {
		env := term.NewEnv()
		leafVals := make([]bv.BV, len(leaves))
		for i, l := range leaves {
			leafVals[i] = rng.BV(l.Ty.Bits)
		}
		// Sequence operand values; immediate embeds may reject a trial.
		ok := true
		for k, in := range r.Seq.Inputs {
			src := r.Operands[k]
			var v bv.BV
			switch src.Kind {
			case rules.SrcConst:
				v = src.Const
			case rules.SrcLeaf:
				v = leafVals[src.Leaf]
				if src.Embed != nil {
					e, repr := src.Embed.Decode(v)
					if !repr {
						// Force a representable value and retry binding.
						small := rng.BV(src.Embed.Width).ZExt(leaves[src.Leaf].Ty.Bits).ShlN(uint(src.Embed.Shift))
						leafVals[src.Leaf] = small
						e, repr = src.Embed.Decode(small)
						if !repr {
							ok = false
							break
						}
						v = small
					}
					v = e
					if v.W() < in.Op.Width {
						v = v.ZExt(in.Op.Width)
					}
				}
			}
			env.Bind(in.Var.Name, v)
		}
		if !ok {
			continue
		}
		for i, l := range leaves {
			env.Bind(pattern.LeafName(i, l), leafVals[i])
		}
		pv := tp.Eval(env)
		sv := r.Seq.Effects[indexOfPrimary(r)].T.Eval(env)
		if pv != sv {
			t.Errorf("rule %s unsound:\n  pattern %s = %v\n  sequence = %v\n  env %v",
				r.Seq, r.Pattern, pv, sv, env.Vals)
			return
		}
	}
}

func indexOfPrimary(r *rules.Rule) int {
	for i, e := range r.Seq.Effects {
		if e.Kind == 0 && e.Dest == "rd" { // spec.EffReg
			return i
		}
		if e.T.Op == term.Store {
			return i
		}
	}
	return 0
}

// TestVectorInstructionsIndexed: the pool must include vector-register
// sequences (the paper synthesizes Neon rules too); vector atoms only
// unify with vector atoms, so they never leak into scalar matches.
func TestVectorInstructionsIndexed(t *testing.T) {
	b := term.NewBuilder()
	tgt, err := isa.LoadTarget(b, "vecmini", `
inst VADD(rn: vec64, rm: vec64) { rd = concat(extract(rn, 63, 32) + extract(rm, 63, 32), extract(rn, 31, 0) + extract(rm, 31, 0)); }
inst ADD(rn: reg64, rm: reg64) { rd = rn + rm; }
`, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	s := New(b, tgt, Config{TestInputs: 16, Verdicts: solver.New(0)})
	s.BuildPool()
	vecSeen := false
	for _, e := range s.Pool {
		for _, in := range e.Seq.Inputs {
			if in.Var.Kind == term.KindVecReg {
				vecSeen = true
			}
		}
	}
	if !vecSeen {
		t.Fatal("no vector entries in pool")
	}
	// A scalar add pattern must match ADD, never VADD.
	p := pattern.New(pattern.Op(gmir.GAdd, gmir.S64, r64(), r64()))
	r := s.SynthesizeOne(p)
	if r == nil {
		t.Fatal("no rule for scalar add")
	}
	if r.Seq.String() != "ADD" {
		t.Errorf("scalar add selected %s", r.Seq)
	}
}

// TestFilterKeyBuckets checks that the two sides of the SMT fallback's
// candidate filter encode a signature alike: a pattern finds the pool
// entry with its signature in the bucket it looks up, for a register
// op, a load (load signature) and a store (store class).
func TestFilterKeyBuckets(t *testing.T) {
	s, _ := miniSynth(t, Config{TestInputs: 32, Workers: 1})
	w := s.newWorker()
	for _, c := range []struct {
		p   *pattern.Pattern
		seq string
	}{
		{pattern.New(pattern.Op(gmir.GAdd, gmir.S64, r64(), r64())), "ADDrr"},
		{pattern.New(pattern.LoadOp(gmir.GLoad, gmir.S64, 64,
			pattern.Op(gmir.GPtrAdd, gmir.P0, r64(), i64()))), "LDRui"},
		{pattern.New(pattern.StoreOp(64, r64(),
			pattern.Op(gmir.GPtrAdd, gmir.P0, r64(), i64()))), "STRui"},
	} {
		tp, err := c.p.Compile(w.wb)
		if err != nil {
			t.Fatal(err)
		}
		key, _, _ := patternFilterKey(c.p, tp, c.p.Leaves())
		var entry *PoolEntry
		for _, e := range s.Pool {
			if e.Seq.String() == c.seq {
				entry = e
			}
		}
		if entry == nil {
			t.Fatalf("%s is not in the pool", c.seq)
		}
		if entry.filterKey() != key {
			t.Errorf("%s: pattern key %q, entry key %q", c.seq, key, entry.filterKey())
		}
		found := false
		for _, e := range s.byFilter[key] {
			found = found || e == entry
		}
		if !found {
			t.Errorf("%s: not in the bucket %q the pattern looks up", c.seq, key)
		}
	}
}
