package trie

import (
	"testing"

	"iselgen/internal/bv"
	"iselgen/internal/canon"
	"iselgen/internal/term"
)

// fixture builds a shared term builder and canon context. ISA-side
// variables use a/b/imm-style names; IR-side query variables use x/y/c.
func fixture() (*term.Builder, *canon.Ctx, *Index) {
	return term.NewBuilder(), canon.NewCtx(), New()
}

func TestInsertLookupExact(t *testing.T) {
	b, cx, ix := fixture()
	a := b.Reg("a", 64)
	b2 := b.Reg("b", 64)
	add := cx.Canon(b.Add(a, b2))
	ix.Insert(add, "ADDXrr")

	x := b.Reg("x", 64)
	y := b.Reg("y", 64)
	ms := ix.Lookup(cx.Canon(b.Add(x, y)))
	if len(ms) == 0 {
		t.Fatal("no match for x+y against a+b")
	}
	found := false
	for _, m := range ms {
		if len(m.Payloads) == 1 && m.Payloads[0] == "ADDXrr" {
			found = true
			// Binding must map {a,b} onto {x,y} bijectively here.
			if len(m.Binding.Regs) != 2 {
				t.Errorf("reg bindings = %d, want 2", len(m.Binding.Regs))
			}
		}
	}
	if !found {
		t.Error("ADDXrr payload not returned")
	}
}

func TestFigure5AddShifted(t *testing.T) {
	// The paper's Fig. 5 / §V-B3 example: index "a + (bvshl a imm)"-style
	// terms; the query "x + (bvshl y (extract[5:0] imm))" must unify with
	// the shifted-add term by binding the differently-shaped immediates.
	b, cx, ix := fixture()
	a := b.Reg("a", 64)
	a2 := b.Reg("b", 64)
	shiftImm := b.VarT("sh", term.KindImm, 6)
	// ISA: a + (b << zext(sh)) — ADDXrs.
	isa := b.Add(a, b.Shl(a2, b.ZExt(64, shiftImm)))
	ix.Insert(cx.Canon(isa), "ADDXrs")
	// ISA: a + imm12 — ADDXri.
	imm12 := b.VarT("i12", term.KindImm, 12)
	ix.Insert(cx.Canon(b.Add(a, b.ZExt(64, imm12))), "ADDXri")

	// IR query: x + (y << (imm & 63)) with a 64-bit immediate, as gMIR's
	// G_SHL by a 64-bit constant operand would produce.
	x := b.Reg("x", 64)
	y := b.Reg("y", 64)
	qImm := b.VarT("qi", term.KindImm, 64)
	q := b.Add(x, b.Shl(y, b.ZExt(64, b.Extract(5, 0, qImm))))
	ms := ix.Lookup(cx.Canon(q))
	var got []string
	for _, m := range ms {
		got = append(got, m.Payloads[0].(string))
	}
	if !contains(got, "ADDXrs") {
		t.Fatalf("ADDXrs not matched; matches = %v", got)
	}
	// Verify the immediate binding carries the extract window.
	for _, m := range ms {
		if m.Payloads[0] != "ADDXrs" {
			continue
		}
		if len(m.Binding.Imms) != 1 {
			t.Fatalf("imm bindings = %d, want 1", len(m.Binding.Imms))
		}
		ib := m.Binding.Imms[0]
		if ib.Query == nil || ib.Query.Var.Name != "qi" {
			t.Errorf("imm bound to %v, want qi", ib.Query)
		}
		if ib.QHi != 5 || ib.QLo != 0 {
			t.Errorf("query window [%d:%d], want [5:0]", ib.QHi, ib.QLo)
		}
	}
}

func TestExcessImmBindsToZero(t *testing.T) {
	// Paper: "the term x could be unified ... with x+imm as we can bind
	// the excess imm to zero".
	b, cx, ix := fixture()
	a := b.Reg("a", 64)
	imm := b.VarT("i12", term.KindImm, 12)
	ix.Insert(cx.Canon(b.Add(a, b.ZExt(64, imm))), "ADDXri")

	x := b.Reg("x", 64)
	ms := ix.Lookup(cx.Canon(x))
	if len(ms) == 0 {
		t.Fatal("bare register did not match a+imm")
	}
	ib := ms[0].Binding.Imms[0]
	if ib.Query != nil || !ib.Const.IsZero() {
		t.Errorf("excess imm binding = %+v, want zero const", ib)
	}
}

func TestQueryConstBindsToImm(t *testing.T) {
	// "bind excess constants in queries to immediates": query x+42
	// matches a+imm with imm := 42.
	b, cx, ix := fixture()
	a := b.Reg("a", 64)
	imm := b.VarT("i12", term.KindImm, 12)
	ix.Insert(cx.Canon(b.Add(a, b.ZExt(64, imm))), "ADDXri")

	x := b.Reg("x", 64)
	ms := ix.Lookup(cx.Canon(b.Add(x, b.Const(64, 42))))
	if len(ms) == 0 {
		t.Fatal("x+42 did not match a+imm")
	}
	ib := ms[0].Binding.Imms[0]
	if ib.Query != nil || ib.Const.Lo != 42 {
		t.Errorf("const binding = %+v, want 42", ib)
	}
}

func TestScaledImmediate(t *testing.T) {
	// Scaled addressing: ISA computes base + 4·imm (a scaled offset);
	// query base + 4·qimm must bind with matching coefficients, and query
	// base + const 44 must bind imm := 11.
	b, cx, ix := fixture()
	base := b.Reg("a", 64)
	imm := b.VarT("i12", term.KindImm, 12)
	isa := b.Add(base, b.Mul(b.Const(64, 4), b.ZExt(64, imm)))
	ix.Insert(cx.Canon(isa), "LDRoff")

	x := b.Reg("x", 64)
	ms := ix.Lookup(cx.Canon(b.Add(x, b.Const(64, 44))))
	if len(ms) == 0 {
		t.Fatal("x+44 did not match a+4*imm")
	}
	ib := ms[0].Binding.Imms[0]
	if ib.Const.Lo != 11 {
		t.Errorf("scaled const = %d, want 11", ib.Const.Lo)
	}
	// Non-divisible constant must not match.
	if ms := ix.Lookup(cx.Canon(b.Add(x, b.Const(64, 43)))); len(ms) != 0 {
		t.Errorf("x+43 matched a+4*imm: %v", ms)
	}
	// Immediate-to-immediate with different coefficients is allowed and
	// records both coefficients for the constraint.
	qi := b.VarT("qi", term.KindImm, 64)
	ms = ix.Lookup(cx.Canon(b.Add(x, b.Mul(b.Const(64, 4), qi))))
	if len(ms) == 0 {
		t.Fatal("x+4*qi did not match")
	}
	ib = ms[0].Binding.Imms[0]
	if ib.CoefQ.Lo != 4 || ib.CoefI.Lo != 4 {
		t.Errorf("coefs = %v/%v, want 4/4", ib.CoefQ, ib.CoefI)
	}
}

func TestPCRelative(t *testing.T) {
	b, cx, ix := fixture()
	pc := b.VarT("pc", term.KindPC, 64)
	imm := b.VarT("i21", term.KindImm, 21)
	// ADR: pc + sext(imm) — linearized sext keeps pc+imm structure plus a
	// sign-bit term; use zext here for the plain pattern.
	isa := b.Add(pc, b.ZExt(64, imm))
	ix.Insert(cx.Canon(isa), "ADR")

	qi := b.VarT("sym", term.KindImm, 64)
	ms := ix.Lookup(cx.Canon(qi))
	if len(ms) == 0 {
		t.Fatal("lone immediate did not match pc+imm")
	}
	ib := ms[0].Binding.Imms[0]
	if !ib.PCRel {
		t.Error("binding not marked PC-relative")
	}
}

func TestNoFalseMatches(t *testing.T) {
	b, cx, ix := fixture()
	a := b.Reg("a", 64)
	c := b.Reg("b", 64)
	ix.Insert(cx.Canon(b.Add(a, c)), "ADD")
	ix.Insert(cx.Canon(b.And(a, c)), "AND")
	ix.Insert(cx.Canon(b.Sub(a, c)), "SUB")

	x := b.Reg("x", 64)
	y := b.Reg("y", 64)
	for _, tc := range []struct {
		q    *term.Term
		want string
	}{
		{b.Xor(x, y), ""},
		{b.And(x, y), "AND"},
		{b.Sub(x, y), "SUB"},
		{b.Mul(x, y), ""},
	} {
		ms := ix.Lookup(cx.Canon(tc.q))
		var got []string
		for _, m := range ms {
			got = append(got, m.Payloads[0].(string))
		}
		if tc.want == "" && len(got) != 0 {
			t.Errorf("%s matched %v, want none", tc.q, got)
		}
		if tc.want != "" && !contains(got, tc.want) {
			t.Errorf("%s matched %v, want %s", tc.q, got, tc.want)
		}
	}
}

func TestRegisterKindsDoNotMix(t *testing.T) {
	b, cx, ix := fixture()
	v := b.VarT("v", term.KindVecReg, 64)
	w := b.VarT("w", term.KindVecReg, 64)
	ix.Insert(cx.Canon(b.Add(v, w)), "VADD")

	x := b.Reg("x", 64)
	y := b.Reg("y", 64)
	if ms := ix.Lookup(cx.Canon(b.Add(x, y))); len(ms) != 0 {
		t.Errorf("scalar add matched vector add: %v", ms)
	}
}

func TestSharedOperandBinding(t *testing.T) {
	// Query x+x (which canonicalizes to 2x) must match an indexed 2a
	// (e.g. from a+a or a<<1) with a→x, but must NOT match a+b with two
	// distinct operands unless both bind to x — which is allowed.
	b, cx, ix := fixture()
	a := b.Reg("a", 64)
	c := b.Reg("b", 64)
	ix.Insert(cx.Canon(b.Add(a, a)), "DOUBLE")
	ix.Insert(cx.Canon(b.Add(a, c)), "ADD")

	x := b.Reg("x", 64)
	ms := ix.Lookup(cx.Canon(b.Add(x, x)))
	var got []string
	for _, m := range ms {
		got = append(got, m.Payloads[0].(string))
	}
	if !contains(got, "DOUBLE") {
		t.Errorf("x+x matches = %v, want DOUBLE", got)
	}
	// a+b has coefficient-1 addends; 2x cannot unify addend-wise.
	if contains(got, "ADD") {
		t.Log("note: x+x also matched ADD (both operands bound to x) — acceptable")
	}
	// Distinct query operands must not bind one ISA operand to two vars.
	y := b.Reg("y", 64)
	ms2 := ix.Lookup(cx.Canon(b.Add(b.Add(x, y), x)))
	for _, m := range ms2 {
		if m.Payloads[0] == "DOUBLE" {
			t.Error("x+y+x matched 2a")
		}
	}
}

func TestCommutativeCrossContextOrder(t *testing.T) {
	// Opaque products are ordered by canonical ID, which differs between
	// the ISA and query sides; unification must try both orders.
	b, cx, ix := fixture()
	a := b.Reg("a", 64)
	c := b.Reg("b", 64)
	ix.Insert(cx.Canon(b.Mul(a, c)), "MUL")

	// Declare query vars in reverse so their IDs order differently.
	y := b.Reg("y", 64)
	x := b.Reg("x", 64)
	ms := ix.Lookup(cx.Canon(b.Mul(x, y)))
	if len(ms) == 0 {
		t.Fatal("mul did not match across operand orders")
	}
}

func TestNestedLinUnification(t *testing.T) {
	// 32-bit sums nested inside 64-bit extensions: zext(a32+b32) as an
	// indexed ISA term (ADDW-style) must match zext(x32+y32).
	b, cx, ix := fixture()
	a := b.Reg("a", 32)
	c := b.Reg("b", 32)
	ix.Insert(cx.Canon(b.ZExt(64, b.Add(a, c))), "ADDWzext")

	x := b.Reg("x", 32)
	y := b.Reg("y", 32)
	ms := ix.Lookup(cx.Canon(b.ZExt(64, b.Add(x, y))))
	if len(ms) == 0 {
		t.Fatal("nested 32-bit sum did not unify")
	}
	if len(ms[0].Binding.Regs) != 2 {
		t.Errorf("bindings = %d, want 2", len(ms[0].Binding.Regs))
	}
}

func TestLoadPatternMatch(t *testing.T) {
	b, cx, ix := fixture()
	base := b.Reg("a", 64)
	imm := b.VarT("i12", term.KindImm, 12)
	isa := b.Load(64, b.Add(base, b.ZExt(64, imm)))
	ix.Insert(cx.Canon(isa), "LDRXui")

	x := b.Reg("x", 64)
	ms := ix.Lookup(cx.Canon(b.Load(64, b.Add(x, b.Const(64, 16)))))
	if len(ms) == 0 {
		t.Fatal("load with constant offset did not match")
	}
	ib := ms[0].Binding.Imms[0]
	if ib.Const.Lo != 16 {
		t.Errorf("offset = %d, want 16", ib.Const.Lo)
	}
	// Plain load must also match via zero-binding.
	ms2 := ix.Lookup(cx.Canon(b.Load(64, x)))
	if len(ms2) == 0 {
		t.Fatal("plain load did not match via zero offset")
	}
}

func TestMultiplePayloadsSameTerm(t *testing.T) {
	b, cx, ix := fixture()
	a := b.Reg("a", 64)
	c := b.Reg("b", 64)
	ct := cx.Canon(b.Add(a, c))
	ix.Insert(ct, "ADD1")
	ix.Insert(ct, "ADD2")
	x := b.Reg("x", 64)
	y := b.Reg("y", 64)
	ms := ix.Lookup(cx.Canon(b.Add(x, y)))
	if len(ms) == 0 || len(ms[0].Payloads) != 2 {
		t.Fatalf("payloads not accumulated: %v", ms)
	}
	if ix.Len() != 2 {
		t.Errorf("Len = %d, want 2", ix.Len())
	}
}

// TestBindingVerification re-checks every match by substituting the
// binding into the ISA term and comparing canonical forms — invariant #3
// of DESIGN.md (index matches are sound).
func TestBindingVerification(t *testing.T) {
	b, cx, ix := fixture()
	a := b.Reg("a", 64)
	c := b.Reg("b", 64)
	sh := b.VarT("sh", term.KindImm, 6)
	i12 := b.VarT("i12", term.KindImm, 12)
	isaTerms := map[string]*term.Term{
		"ADDXrr": b.Add(a, c),
		"ADDXrs": b.Add(a, b.Shl(c, b.ZExt(64, sh))),
		"ADDXri": b.Add(a, b.ZExt(64, i12)),
		"SUBXrr": b.Sub(a, c),
		"LSLXri": b.Shl(a, b.ZExt(64, sh)),
	}
	for name, tt := range isaTerms {
		ix.Insert(cx.Canon(tt), name)
	}

	x := b.Reg("x", 64)
	y := b.Reg("y", 64)
	queries := []*term.Term{
		b.Add(x, y),
		b.Add(x, b.Shl(y, b.Const(64, 3))),
		b.Add(x, b.Const(64, 100)),
		b.Sub(x, y),
		b.Shl(x, b.Const(64, 7)),
		b.Add(b.Shl(y, b.Const(64, 2)), x),
	}
	rng := bv.NewRNG(31)
	for _, q := range queries {
		for _, m := range ix.Lookup(cx.Canon(q)) {
			name := m.Payloads[0].(string)
			isa := isaTerms[name]
			subst := map[*term.Term]*term.Term{}
			okBind := true
			for _, rb := range m.Binding.Regs {
				subst[rb.ISA.Var] = rb.Query.Var
			}
			for _, ib := range m.Binding.Imms {
				w := ib.ISA.Width
				if ib.Query == nil {
					subst[ib.ISA.Var] = b.ConstBV(ib.Const.Trunc(w))
				} else if ib.Query.Width >= w {
					subst[ib.ISA.Var] = b.Extract(w-1, 0, ib.Query.Var)
				} else {
					okBind = false
				}
			}
			if !okBind {
				continue
			}
			inst := b.Rebuild(isa, subst)
			// Evaluate both on random inputs: a sound match must agree.
			for k := 0; k < 16; k++ {
				env := term.NewEnv()
				for _, v := range q.Vars() {
					env.Bind(v.Name, rng.BV(v.W()))
				}
				for _, v := range inst.Vars() {
					if _, ok := env.Vals[v.Name]; !ok {
						env.Bind(v.Name, rng.BV(v.W()))
					}
				}
				if q.Eval(env) != inst.Eval(env) {
					t.Errorf("unsound match %s for %s:\n  inst=%s\n  env=%v",
						name, q, inst, env.Vals)
					break
				}
			}
		}
	}
}

func contains(ss []string, want string) bool {
	for _, s := range ss {
		if s == want {
			return true
		}
	}
	return false
}

func TestSignWindowConstContradictionRejected(t *testing.T) {
	// An immediate bound to a constant with its sign bit set cannot also
	// satisfy a zero claim on that sign bit (the decomposed sext term):
	// query p + 0x800 against a sign-extending 12-bit offset must NOT
	// produce a constant binding of 0x800 with a zero-extension shape.
	b, cx, ix := fixture()
	base := b.Reg("a", 64)
	imm := b.VarT("i12", term.KindImm, 12)
	ix.Insert(cx.Canon(b.Add(base, b.SExt(64, imm))), "ADDIsext")

	x := b.Reg("x", 64)
	// 0x800 sign-extends to 0xFFFFF...800, not 0x800: no valid binding.
	for _, m := range ix.Lookup(cx.Canon(b.Add(x, b.Const(64, 0x800)))) {
		for _, ib := range m.Binding.Imms {
			if ib.Query == nil && ib.Const.ZExt(64).Lo == 0x800 {
				t.Errorf("contradictory constant binding emitted: %+v", ib)
			}
		}
	}
	// A negative offset representable under sign extension must bind via
	// the value path (query const 0xFFFFF...FF8 = sext(-8)).
	ms := ix.Lookup(cx.Canon(b.Add(x, b.ConstInt(64, -8))))
	found := false
	for _, m := range ms {
		for _, ib := range m.Binding.Imms {
			if ib.Query == nil && !ib.Const.IsZero() {
				found = true
			}
		}
	}
	if !found {
		t.Log("note: negative-offset binding not found via index (SMT fallback would cover)")
	}
}
