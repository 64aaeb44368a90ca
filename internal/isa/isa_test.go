package isa

import (
	"testing"

	"iselgen/internal/bv"
	"iselgen/internal/spec"
	"iselgen/internal/term"
)

const miniSpec = `
inst ADD(rn: reg64, rm: reg64) { rd = rn + rm; }
inst ADDI(rn: reg64, imm: imm12) { rd = rn + zext(imm, 64); }
inst LSLI(rn: reg64, sh: imm6) { rd = rn << zext(sh, 64); }
inst LDR(rn: reg64) { rd = load(rn, 64); }
inst STR(rt: reg64, rn: reg64) { mem[rn, 64] = rt; }
inst SUBS(rn: reg64, rm: reg64) {
  let res = rn - rm;
  rd = res;
  flags.N = extract(res, 63, 63);
  flags.Z = res == 0;
  flags.C = uge(rn, rm);
  flags.V = extract((rn ^ rm) & (rn ^ res), 63, 63);
}
inst CSETeq() { rd = zext(flags.Z, 64); }
inst B(imm: imm26) { pc = pc + sext(concat(imm, 0:2), 64); }
inst LDRpost(rn: reg64, simm: imm9) {
  rd = load(rn, 64);
  rn = rn + sext(simm, 64);
}
`

func loadMini(t *testing.T) (*term.Builder, *Target) {
	t.Helper()
	b := term.NewBuilder()
	tgt, err := LoadTarget(b, "mini", miniSpec, map[string]int{"LDR": 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	return b, tgt
}

func TestLoadTarget(t *testing.T) {
	_, tgt := loadMini(t)
	if len(tgt.Insts) != 9 {
		t.Fatalf("insts = %d", len(tgt.Insts))
	}
	ldr := tgt.ByName("LDR")
	if ldr == nil || ldr.Latency != 3 || ldr.Size != 4 {
		t.Errorf("LDR metadata = %+v", ldr)
	}
	if add := tgt.ByName("ADD"); add.Latency != 1 {
		t.Errorf("default latency = %d", add.Latency)
	}
	if tgt.ByName("NOPE") != nil {
		t.Error("ByName invented an instruction")
	}
}

func TestSingleSequence(t *testing.T) {
	b, tgt := loadMini(t)
	s := Single(b, tgt.ByName("ADDI"))
	if s.Len() != 1 || s.Cost() != 2 {
		t.Errorf("len=%d cost=%d", s.Len(), s.Cost())
	}
	if len(s.Inputs) != 2 {
		t.Fatalf("inputs = %+v", s.Inputs)
	}
	if s.Inputs[0].Var.Name != "s0.rn.r64" || s.Inputs[1].Var.Name != "s0.imm.i12" {
		t.Errorf("input names = %s, %s", s.Inputs[0].Var.Name, s.Inputs[1].Var.Name)
	}
	// Effect evaluates correctly under renamed vars.
	env := term.NewEnv()
	env.Bind("s0.rn.r64", bv.New(64, 100))
	env.Bind("s0.imm.i12", bv.New(12, 23))
	if got := s.Effects[0].T.Eval(env); got.Lo != 123 {
		t.Errorf("effect = %d", got.Lo)
	}
}

func TestAppendWiring(t *testing.T) {
	b, tgt := loadMini(t)
	// LSLI ; ADD with ADD.rm wired: computes rn2 + (rn1 << sh).
	s := Single(b, tgt.ByName("LSLI"))
	s2, err := Append(b, s, tgt.ByName("ADD"), []string{"rm"}, false)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 2 || s2.String() != "LSLI ; ADD" {
		t.Errorf("seq = %s", s2)
	}
	if s2.Cost() != 4 {
		t.Errorf("cost = %d, want 4", s2.Cost())
	}
	if len(s2.Effects) != 1 {
		t.Fatalf("effects = %d", len(s2.Effects))
	}
	env := term.NewEnv()
	env.Bind("s0.rn.r64", bv.New(64, 3))
	env.Bind("s0.sh.i6", bv.New(6, 4))
	env.Bind("s1.rn.r64", bv.New(64, 10))
	if got := s2.Effects[0].T.Eval(env); got.Lo != 10+3<<4 {
		t.Errorf("shift-add = %d", got.Lo)
	}
	if len(s2.Inputs) != 3 {
		t.Errorf("inputs = %+v", s2.Inputs)
	}
}

func TestAppendFlagConsumption(t *testing.T) {
	b, tgt := loadMini(t)
	// SUBS ; CSETeq — the cmp+cset chain (§VI-A "instruction chains").
	s := Single(b, tgt.ByName("SUBS"))
	s2, err := Append(b, s, tgt.ByName("CSETeq"), nil, true)
	if err != nil {
		t.Fatal(err)
	}
	// Final effects: only CSET's rd (flags of SUBS were consumed).
	if len(s2.Effects) != 1 || s2.Effects[0].Kind != spec.EffReg {
		t.Fatalf("effects = %+v", s2.Effects)
	}
	env := term.NewEnv()
	env.Bind("s0.rn.r64", bv.New(64, 7))
	env.Bind("s0.rm.r64", bv.New(64, 7))
	if got := s2.Effects[0].T.Eval(env); got.Lo != 1 {
		t.Errorf("x==y cset = %d, want 1", got.Lo)
	}
	env.Bind("s0.rm.r64", bv.New(64, 8))
	if got := s2.Effects[0].T.Eval(env); got.Lo != 0 {
		t.Errorf("x!=y cset = %d, want 0", got.Lo)
	}
	// No flag inputs should remain.
	for _, in := range s2.Inputs {
		if in.Flags {
			t.Errorf("unconsumed flag input %s", in.Var.Name)
		}
	}
}

func TestAppendRule1(t *testing.T) {
	b, tgt := loadMini(t)
	s := Single(b, tgt.ByName("ADD"))
	if _, err := Append(b, s, tgt.ByName("ADDI"), nil, false); err == nil {
		t.Error("append without wiring or flags accepted (rule 1)")
	}
}

func TestAppendRule2PC(t *testing.T) {
	b, tgt := loadMini(t)
	s := Single(b, tgt.ByName("B"))
	if s.CanAppend(tgt.ByName("ADD")) {
		t.Error("append after PC effect accepted (rule 2)")
	}
}

func TestAppendRule3Memory(t *testing.T) {
	b, tgt := loadMini(t)
	// LDR ; LDR would need two memory operations.
	s := Single(b, tgt.ByName("LDR"))
	if s.CanAppend(tgt.ByName("LDR")) {
		t.Error("two loads accepted (rule 3)")
	}
	// LDR ; ADD is fine (one load).
	if !s.CanAppend(tgt.ByName("ADD")) {
		t.Error("load-feeding-add rejected")
	}
	// LSLI ; STR is fine: shift feeding a store's value.
	s2 := Single(b, tgt.ByName("LSLI"))
	if !s2.CanAppend(tgt.ByName("STR")) {
		t.Error("compute-then-store rejected")
	}
	seq, err := Append(b, s2, tgt.ByName("STR"), []string{"rt"}, false)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Effects[0].Kind != spec.EffMem {
		t.Errorf("final effect = %v", seq.Effects[0].Kind)
	}
}

func TestAppendAfterMultiEffect(t *testing.T) {
	b, tgt := loadMini(t)
	// Post-index load has a write-back; appending would lose it.
	s := Single(b, tgt.ByName("LDRpost"))
	if s.CanAppend(tgt.ByName("ADD")) {
		t.Error("append after write-back accepted")
	}
}

func TestAppendWireWidthMismatch(t *testing.T) {
	b := term.NewBuilder()
	tgt, err := LoadTarget(b, "m", `
inst W32(rn: reg32) { rd = rn + 1; }
inst X64(rn: reg64) { rd = rn + 1; }
`, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	s := Single(b, tgt.ByName("W32"))
	if _, err := Append(b, s, tgt.ByName("X64"), []string{"rn"}, false); err == nil {
		t.Error("32->64 wire accepted")
	}
}

func TestPruneInputs(t *testing.T) {
	b, tgt := loadMini(t)
	// SUBS ; CSETeq: SUBS's operands survive (they feed the flags), and
	// nothing is wired, so inputs are exactly SUBS's two registers.
	s := Single(b, tgt.ByName("SUBS"))
	s2, err := Append(b, s, tgt.ByName("CSETeq"), nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(s2.Inputs) != 2 {
		t.Errorf("inputs = %+v", s2.Inputs)
	}
}

// TestCompileExec: LoadTarget compiles every effect over the input
// layout (a store into address and value programs), and an effect
// variable that is not an operand, a flag or pc at its slot's width is a
// load error rather than a failure in the middle of execution.
func TestCompileExec(t *testing.T) {
	b := term.NewBuilder()
	tgt, err := LoadTarget(b, "mini", miniSpec, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range tgt.Insts {
		if len(in.Exec) != len(in.Effects) || in.execScratch == 0 {
			t.Fatalf("%s: %d programs for %d effects, scratch %d", in.Name, len(in.Exec), len(in.Effects), in.execScratch)
		}
		for k, e := range in.Effects {
			if (e.Kind == spec.EffMem) != (in.Exec[k].Addr != nil) {
				t.Errorf("%s: %s effect with address program %v", in.Name, e.Kind, in.Exec[k].Addr)
			}
		}
	}
	// SUBS over the layout [rn rm N Z C V pc]: 9 - 4, and the flags.
	subs := tgt.ByName("SUBS")
	var f Frame
	f.Reset()
	vals := f.Begin(subs, 0)
	if len(vals) != 2+len(spec.FlagNames)+1 {
		t.Fatalf("SUBS layout has %d slots", len(vals))
	}
	vals[0], vals[1] = bv.New(64, 9), bv.New(64, 4)
	if got := f.Run(subs.Exec[0].Val, nil); got.Lo != 5 {
		t.Errorf("SUBS rd = %d, want 5", got.Lo)
	}
	for k, e := range subs.Effects {
		if e.Kind == spec.EffFlag && spec.FlagNames[subs.Exec[k].Flag] != e.Dest {
			t.Errorf("flag effect %s has index %d", e.Dest, subs.Exec[k].Flag)
		}
	}
	if got := f.Run(subs.Exec[3].Val, nil); subs.Effects[3].Dest != "C" || got.Lo != 1 {
		t.Errorf("SUBS effect 3 (%s) = %v, want C = 1", subs.Effects[3].Dest, got)
	}

	for _, bad := range []struct {
		name string
		w    int
	}{
		{"X.other", 64}, // not an operand of X
		{"X.rn", 32},    // an operand at the wrong width
		{"Y.rn", 64},    // another instruction's operand
	} {
		b := term.NewBuilder()
		v := b.VarT(bad.name, term.KindReg, bad.w)
		in := &Instruction{Name: "X", Operands: []spec.Operand{{Name: "rn", Kind: spec.OpReg, Width: 64}},
			Effects: []spec.Effect{{Kind: spec.EffReg, Dest: "rd", T: b.ZExt(64, b.Extract(0, 0, v))}}}
		if err := compileExec(in); err == nil {
			t.Errorf("effect over %s (%d bits) compiled", bad.name, bad.w)
		}
	}
}
