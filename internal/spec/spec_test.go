package spec

import (
	"strings"
	"testing"

	"iselgen/internal/bv"
	"iselgen/internal/term"
)

func mustParse(t *testing.T, src string) *File {
	t.Helper()
	f, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return f
}

func symbolize1(t *testing.T, src string) (*term.Builder, *Sem) {
	t.Helper()
	f := mustParse(t, src)
	if len(f.Insts) != 1 {
		t.Fatalf("want 1 inst, got %d", len(f.Insts))
	}
	b := term.NewBuilder()
	sem, err := Symbolize(f.Insts[0], b, "")
	if err != nil {
		t.Fatalf("symbolize: %v", err)
	}
	return b, sem
}

func TestParseBasics(t *testing.T) {
	f := mustParse(t, `
// two instructions
inst ADDXrr(rn: reg64, rm: reg64) { rd = rn + rm; }
inst ADDXri(rn: reg64, imm: imm12) { rd = rn + zext(imm, 64); }
`)
	if len(f.Insts) != 2 {
		t.Fatalf("insts = %d", len(f.Insts))
	}
	if f.Insts[0].Name != "ADDXrr" || len(f.Insts[0].Operands) != 2 {
		t.Errorf("first inst parsed wrong: %+v", f.Insts[0])
	}
	op := f.Insts[1].Operands[1]
	if op.Kind != OpImm || op.Width != 12 {
		t.Errorf("imm operand = %+v", op)
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		`inst X(a: reg64) { rd = a + ; }`,
		`inst X(a: blah64) { rd = a; }`,
		`inst X(a: reg64) { rd = a `,
		`inst X(a: reg64) { flags.Q = a; }`,
		`notinst X() {}`,
		`inst X(a: reg64) { rd = 0xZZ; }`,
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("no error for %q", src)
		}
	}
}

func TestSymbolizeAddShifted(t *testing.T) {
	// The paper's ADDWrs example (Fig. 3a): 32-bit add with the second
	// operand shifted left by an immediate.
	b, sem := symbolize1(t, `
inst ADDWrs(rn: reg32, rm: reg32, shift: imm5) {
  rd = rn + (rm << zext(shift, 32));
}`)
	if len(sem.Effects) != 1 || sem.Effects[0].Kind != EffReg {
		t.Fatalf("effects = %+v", sem.Effects)
	}
	got := sem.Effects[0].T
	rn := b.Reg("rn", 32)
	rm := b.Reg("rm", 32)
	sh := b.Imm("shift", 5)
	want := b.Add(rn, b.Shl(rm, b.ZExt(32, sh)))
	if got != want {
		t.Errorf("effect = %s, want %s", got, want)
	}
}

func TestSymbolizeLoadPostIndex(t *testing.T) {
	// Fig. 3c analog: post-index load has two effects.
	_, sem := symbolize1(t, `
inst LDRXpost(rn: reg64, simm: imm9) {
  rd = load(rn, 64);
  rn = rn + sext(simm, 64);
}`)
	if len(sem.Effects) != 2 {
		t.Fatalf("effects = %d, want 2", len(sem.Effects))
	}
	if sem.Effects[0].Kind != EffReg || sem.Effects[1].Kind != EffWB {
		t.Errorf("effect kinds = %v, %v", sem.Effects[0].Kind, sem.Effects[1].Kind)
	}
	if sem.Effects[1].Dest != "rn" {
		t.Errorf("write-back dest = %q", sem.Effects[1].Dest)
	}
	if sem.Effects[0].T.Op != term.Load {
		t.Errorf("first effect is %v, want load", sem.Effects[0].T.Op)
	}
}

func TestSymbolizeStore(t *testing.T) {
	_, sem := symbolize1(t, `
inst STRWui(rt: reg32, rn: reg64, imm: imm12) {
  mem[rn + zext(imm, 64) * 4:64, 32] = rt;
}`)
	if len(sem.Effects) != 1 || sem.Effects[0].Kind != EffMem {
		t.Fatalf("effects = %+v", sem.Effects)
	}
	if sem.Effects[0].T.Op != term.Store {
		t.Errorf("store effect root = %v", sem.Effects[0].T.Op)
	}
}

func TestSymbolizeFlags(t *testing.T) {
	// SUBS-style: result plus NZCV.
	_, sem := symbolize1(t, `
inst SUBSXrr(rn: reg64, rm: reg64) {
  let res = rn - rm;
  rd = res;
  flags.N = extract(res, 63, 63);
  flags.Z = res == 0;
  flags.C = uge(rn, rm);
  flags.V = extract((rn ^ rm) & (rn ^ res), 63, 63);
}`)
	if len(sem.Effects) != 5 {
		t.Fatalf("effects = %d, want 5", len(sem.Effects))
	}
	kinds := map[EffectKind]int{}
	for _, e := range sem.Effects {
		kinds[e.Kind]++
		if e.Kind == EffFlag && e.T.W() != 1 {
			t.Errorf("flag %s width = %d", e.Dest, e.T.W())
		}
	}
	if kinds[EffReg] != 1 || kinds[EffFlag] != 4 {
		t.Errorf("kind histogram = %v", kinds)
	}
	// Flags come in NZCV order.
	var order []string
	for _, e := range sem.Effects {
		if e.Kind == EffFlag {
			order = append(order, e.Dest)
		}
	}
	if strings.Join(order, "") != "NZCV" {
		t.Errorf("flag order = %v", order)
	}
}

func TestSymbolizeConditionalBranch(t *testing.T) {
	// CBZ-style: pc written only on the taken path; the join must supply
	// the pc+4 fall-through.
	b, sem := symbolize1(t, `
inst CBZX(rt: reg64, imm: imm19) {
  if (rt == 0) {
    pc = pc + sext(concat(imm, 0:2), 64);
  }
}`)
	if len(sem.Effects) != 1 || sem.Effects[0].Kind != EffPC {
		t.Fatalf("effects = %+v", sem.Effects)
	}
	eff := sem.Effects[0].T
	if eff.Op != term.Ite {
		t.Fatalf("pc effect = %s, want ite", eff)
	}
	// Evaluate: rt == 0 takes the branch.
	env := term.NewEnv()
	env.Bind("rt", bv.Zero(64))
	env.Bind("imm", bv.New(19, 3))
	env.Bind("pc", bv.New(64, 0x1000))
	if got := eff.Eval(env); got.Lo != 0x1000+12 {
		t.Errorf("taken pc = %#x, want %#x", got.Lo, 0x1000+12)
	}
	env.Bind("rt", bv.New(64, 7))
	if got := eff.Eval(env); got.Lo != 0x1004 {
		t.Errorf("fall-through pc = %#x, want 0x1004", got.Lo)
	}
	_ = b
}

func TestSymbolizeCSel(t *testing.T) {
	// Conditional select reading the flag inputs.
	b, sem := symbolize1(t, `
inst CSELXeq(rn: reg64, rm: reg64) {
  rd = select(flags.Z, rn, rm);
}`)
	eff := sem.Effects[0].T
	env := term.NewEnv()
	env.Bind("rn", bv.New(64, 11))
	env.Bind("rm", bv.New(64, 22))
	env.Bind("Z", bv.New(1, 1))
	if got := eff.Eval(env); got.Lo != 11 {
		t.Errorf("Z=1 selects %d, want 11", got.Lo)
	}
	env.Bind("Z", bv.Zero(1))
	if got := eff.Eval(env); got.Lo != 22 {
		t.Errorf("Z=0 selects %d, want 22", got.Lo)
	}
	// The flag read must be a KindFlag variable.
	found := false
	for _, v := range eff.Vars() {
		if v.Kind == term.KindFlag && v.Name == "Z" {
			found = true
		}
	}
	if !found {
		t.Error("no flag variable in effect term")
	}
	_ = b
}

func TestSymbolizeIfJoinLocals(t *testing.T) {
	b, sem := symbolize1(t, `
inst ABSX(rn: reg64) {
  let v = rn;
  if (slt(rn, 0:64)) {
    v = -rn;
  }
  rd = v;
}`)
	eff := sem.Effects[0].T
	env := term.NewEnv()
	env.Bind("rn", bv.NewInt(64, -5))
	if got := eff.Eval(env); got.Lo != 5 {
		t.Errorf("abs(-5) = %d", got.Int64())
	}
	env.Bind("rn", bv.New(64, 9))
	if got := eff.Eval(env); got.Lo != 9 {
		t.Errorf("abs(9) = %d", got.Lo)
	}
	_ = b
}

func TestSymbolizeIfElseChain(t *testing.T) {
	_, sem := symbolize1(t, `
inst CLAMP(rn: reg32, lo: imm8, hi: imm8) {
  let l = zext(lo, 32);
  let h = zext(hi, 32);
  if (ult(rn, l)) {
    rd = l;
  } else if (ugt(rn, h)) {
    rd = h;
  } else {
    rd = rn;
  }
}`)
	eff := sem.Effects[0].T
	env := term.NewEnv()
	env.Bind("lo", bv.New(8, 10))
	env.Bind("hi", bv.New(8, 20))
	for in, want := range map[uint64]uint64{5: 10, 15: 15, 30: 20} {
		env.Bind("rn", bv.New(32, in))
		if got := eff.Eval(env); got.Lo != want {
			t.Errorf("clamp(%d) = %d, want %d", in, got.Lo, want)
		}
	}
}

func TestSymbolizeWritebackPrefix(t *testing.T) {
	f := mustParse(t, `inst X(rn: reg64) { rd = rn + 1; }`)
	b := term.NewBuilder()
	sem, err := Symbolize(f.Insts[0], b, "i3.")
	if err != nil {
		t.Fatal(err)
	}
	vars := sem.Effects[0].T.Vars()
	if len(vars) != 1 || vars[0].Name != "i3.rn" {
		t.Errorf("prefixed var = %v", vars)
	}
}

func TestSymbolizeErrors(t *testing.T) {
	for _, src := range []string{
		// unknown ident
		`inst X(a: reg64) { rd = b; }`,
		// assign to immediate
		`inst X(a: imm8) { a = a; }`,
		// width mismatch in writeback
		`inst X(a: reg64) { a = trunc(a, 32); }`,
		// flag width
		`inst X(a: reg64) { flags.Z = a; }`,
		// literal width unknown
		`inst X(a: reg64) { rd = zext(5, 64) + a; }`,
		// conditional non-pc single-branch effect
		`inst X(a: reg64) { if (a == 0) { rd = a; } }`,
		// conditional store one branch
		`inst X(a: reg64) { if (a == 0) { mem[a, 64] = a; } }`,
		// no effects at all
		`inst X(a: reg64) { let v = a; }`,
		// binary width mismatch
		`inst X(a: reg64, b: reg32) { rd = a + b; }`,
	} {
		f, err := Parse(src)
		if err != nil {
			continue // parse-time rejection also fine for some cases
		}
		if _, err := Symbolize(f.Insts[0], term.NewBuilder(), ""); err == nil {
			t.Errorf("no symbolize error for %q", src)
		}
	}
}

func TestNumberFormats(t *testing.T) {
	_, sem := symbolize1(t, `
inst X(a: reg64) {
  rd = a + 0x10 + 0b101 + 1_000;
}`)
	eff := sem.Effects[0].T
	env := term.NewEnv()
	env.Bind("a", bv.Zero(64))
	if got := eff.Eval(env); got.Lo != 16+5+1000 {
		t.Errorf("literals sum = %d", got.Lo)
	}
}

func TestBooleanOperatorAliases(t *testing.T) {
	_, sem := symbolize1(t, `
inst X(a: reg64, b: reg64) {
  rd = zext((a == b) && (ult(a, b) || a != 0:64), 64);
}`)
	eff := sem.Effects[0].T
	env := term.NewEnv()
	env.Bind("a", bv.New(64, 5))
	env.Bind("b", bv.New(64, 5))
	if got := eff.Eval(env); got.Lo != 1 {
		t.Errorf("5,5 = %d, want 1", got.Lo)
	}
	env.Bind("b", bv.New(64, 6))
	if got := eff.Eval(env); got.Lo != 0 {
		t.Errorf("5,6 = %d, want 0", got.Lo)
	}
}
