package isa

import (
	"testing"

	"iselgen/internal/spec"
	"iselgen/internal/term"
)

// foldSpec composes flag- and PC-carrying results into instructions
// whose semantics can fold them away once substituted: the high half of
// a zero-extended flag is constant zero, and x&0, x*0, x-x or a select
// on a constant condition then erase the rest.
const foldSpec = `
inst SUBS(rn: reg64, rm: reg64) {
  let res = rn - rm;
  rd = res;
  flags.N = extract(res, 63, 63);
  flags.Z = res == 0;
}
inst CSETeq() { rd = zext(flags.Z, 64); }
inst CSELeq(rn: reg64, rm: reg64) { rd = select(flags.Z, rn, rm); }
inst CINCeq(rn: reg64) { rd = rn + zext(flags.Z, 64); }
inst ADR(imm: imm21) { rd = pc + sext(imm, 64); }
inst MVN(rn: reg64) { rd = ~rn; }
inst HI32(rn: reg64) { rd = zext(extract(rn, 63, 32), 64); }
inst LO32(rn: reg64) { rd = zext(extract(rn, 31, 0), 64); }
inst ANDHI(rn: reg64) { rd = rn & zext(extract(rn, 63, 32), 64); }
inst MULHI(rn: reg64) { rd = rn * zext(extract(rn, 63, 32), 64); }
inst SUBHI(rn: reg64) { rd = rn - zext(extract(rn, 63, 32), 64); }
inst ORTOP(rn: reg64) { rd = rn | sext(extract(rn, 63, 63), 64); }
inst SELTOP(rn: reg64, rm: reg64) { rd = select(extract(rn, 63, 63), rm, rn); }
inst NOTSUB(rn: reg64, rm: reg64) { rd = ~(rm - rn); }
inst EQ(rn: reg64, rm: reg64) { rd = zext(rn == rm, 64); }
inst CATHI(rn: reg64) { rd = extract(concat(zext(extract(rn, 63, 32), 64), rn), 127, 64); }
inst CNEGeq(rn: reg64) {
  rd = select(flags.Z, -rn, rn);
  flags.Z = rn == 0;
}
`

// readsOf reports which kinds of the flag/PC variables each built
// effect actually contains.
func readsOf(seq *Sequence) (flags, pc uint64) {
	for i, e := range seq.Effects {
		for _, v := range e.T.Vars() {
			switch v.Kind {
			case term.KindFlag:
				flags |= 1 << i
			case term.KindPC:
				pc |= 1 << i
			}
		}
	}
	return flags, pc
}

// TestMustReadSound composes every single of foldSpec with every
// instruction, wired through each register operand and through the
// flags, and checks MustRead against the built sequence: every claimed
// read is present, rejections agree with Append's, and the claims are
// not vacuous.
func TestMustReadSound(t *testing.T) {
	b := term.NewBuilder()
	tgt, err := LoadTarget(b, "fold", foldSpec, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	ac := NewAppendCache()
	var claimed, missed int
	check := func(base *Sequence, inst *Instruction, wire []string, consume bool) {
		flags, pc, rerr := ac.MustRead(b, base, inst, wire, consume)
		seq, aerr := ac.Append(b, base, inst, wire, consume)
		if (rerr == nil) != (aerr == nil) {
			t.Fatalf("%s <- %s %v: MustRead error %v, Append error %v", inst.Name, base, wire, rerr, aerr)
		}
		if aerr != nil {
			return
		}
		gotF, gotPC := readsOf(seq)
		if flags&^gotF != 0 || pc&^gotPC != 0 {
			t.Errorf("%s %v: MustRead claims flags %b pc %b, built effects read flags %b pc %b",
				seq, wire, flags, pc, gotF, gotPC)
		}
		if flags|pc != 0 {
			claimed++
		}
		if gotF&^flags != 0 || gotPC&^pc != 0 {
			missed++
		}
	}
	for _, first := range tgt.Insts {
		base := Single(b, first)
		for _, inst := range tgt.Insts {
			for _, op := range inst.Operands {
				if op.Kind != spec.OpImm {
					check(base, inst, []string{op.Name}, false)
				}
			}
			check(base, inst, nil, true)
		}
	}
	if claimed == 0 {
		t.Error("MustRead never claimed a read")
	}
	t.Logf("%d compositions with a claimed read, %d with an unclaimed one", claimed, missed)

	// The high half of CSETeq's zero-extended flag folds to zero, so a
	// fold fires on the flag's way to the root and no read is claimed.
	for _, name := range []string{"HI32", "ANDHI", "MULHI", "SELTOP", "CATHI"} {
		flags, _, err := ac.MustRead(b, Single(b, tgt.ByName("CSETeq")), tgt.ByName(name), []string{"rn"}, false)
		if err != nil || flags != 0 {
			t.Errorf("CSETeq ; %s: flags %b, err %v; want no claimed flag read", name, flags, err)
		}
	}
	if flags, _, _ := ac.MustRead(b, Single(b, tgt.ByName("CSETeq")), tgt.ByName("LO32"), []string{"rn"}, false); flags != 1 {
		t.Errorf("CSETeq ; LO32: flags %b, want the rd effect to read a flag", flags)
	}
	if _, pc, _ := ac.MustRead(b, Single(b, tgt.ByName("ADR")), tgt.ByName("MVN"), []string{"rn"}, false); pc != 1 {
		t.Errorf("ADR ; MVN: pc %b, want the rd effect to read the PC", pc)
	}
}
