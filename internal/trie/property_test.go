package trie

import (
	"testing"

	"iselgen/internal/bv"
	"iselgen/internal/canon"
	"iselgen/internal/term"
)

// randomISATerm builds a random instruction-effect-shaped term over the
// given register and immediate variables.
func randomISATerm(b *term.Builder, rng *bv.RNG, regs, imms []*term.Term, depth int) *term.Term {
	if depth == 0 || rng.Intn(4) == 0 {
		switch rng.Intn(3) {
		case 0:
			if len(imms) > 0 {
				imm := imms[rng.Intn(len(imms))]
				return b.ZExt(64, imm)
			}
			fallthrough
		case 1:
			return regs[rng.Intn(len(regs))]
		default:
			return b.ConstBV(rng.BV(64))
		}
	}
	sub := func() *term.Term { return randomISATerm(b, rng, regs, imms, depth-1) }
	switch rng.Intn(8) {
	case 0:
		return b.Add(sub(), sub())
	case 1:
		return b.Sub(sub(), sub())
	case 2:
		return b.And(sub(), sub())
	case 3:
		return b.Xor(sub(), sub())
	case 4:
		return b.Shl(sub(), b.Const(64, uint64(rng.Intn(63))))
	case 5:
		return b.Not(sub())
	case 6:
		return b.Or(sub(), sub())
	default:
		return b.Mul(sub(), b.ConstBV(rng.BV(8).ZExt(64)))
	}
}

// TestPropertyAlphaRenamedLookup is invariant #3: a term inserted into
// the index must be found when queried through an alpha-renamed copy
// (ISA operand names vs IR pattern names), and the returned binding must
// evaluate consistently.
func TestPropertyAlphaRenamedLookup(t *testing.T) {
	rng := bv.NewRNG(20240705)
	misses := 0
	for trial := 0; trial < 200; trial++ {
		b := term.NewBuilder()
		cx := canon.NewCtx()
		ix := New()

		regs := []*term.Term{b.Reg("s0.a", 64), b.Reg("s0.b", 64)}
		imms := []*term.Term{b.VarT("s0.i", term.KindImm, 12)}
		isaT := randomISATerm(b, rng, regs, imms, 3)
		if isaT.IsConst() {
			continue
		}
		ix.Insert(cx.Canon(isaT), trial)

		// Alpha-rename: IR-side variables (same widths/kinds).
		qRegs := []*term.Term{b.Reg("p0", 64), b.Reg("p1", 64)}
		qImms := []*term.Term{b.VarT("pi", term.KindImm, 12)}
		subst := map[*term.Term]*term.Term{
			regs[0]: qRegs[0], regs[1]: qRegs[1], imms[0]: qImms[0],
		}
		queryT := b.Rebuild(isaT, subst)
		matches := ix.Lookup(cx.Canon(queryT))
		found := false
		for _, m := range matches {
			if len(m.Payloads) > 0 && m.Payloads[0] == trial {
				found = true
				// The binding must be evaluation-consistent: assigning
				// each ISA var the value of its bound query var makes the
				// terms agree.
				if !bindingConsistent(t, isaT, queryT, m.Binding, rng) {
					t.Fatalf("trial %d: inconsistent binding for %s", trial, isaT)
				}
			}
		}
		if !found {
			// The index is allowed to have false negatives (§V-C), but an
			// identical-up-to-renaming term should essentially always hit;
			// tolerate only a tiny number of unifier search-limit misses.
			misses++
			t.Logf("trial %d: self-lookup missed for %s", trial, isaT)
		}
	}
	if misses > 4 {
		t.Errorf("too many self-lookup misses: %d/200", misses)
	}
}

// bindingConsistent evaluates both terms under a random assignment
// connected through the binding.
func bindingConsistent(t *testing.T, isaT, queryT *term.Term, bind *Binding, rng *bv.RNG) bool {
	t.Helper()
	for k := 0; k < 8; k++ {
		env := term.NewEnv()
		// Assign query vars.
		for _, v := range queryT.Vars() {
			env.Bind(v.Name, rng.BV(v.W()))
		}
		// Assign ISA vars through the binding.
		ok := true
		for _, rb := range bind.Regs {
			env.Bind(rb.ISA.Var.Name, env.Vals[rb.Query.Var.Name])
		}
		for _, ib := range bind.Imms {
			if ib.PCRel || ib.ISALo != 0 {
				ok = false
				break
			}
			// Scaled bindings (CoefQ != CoefI) encode a multiplicative
			// constraint that the rule layer resolves (coefShift +
			// verification); the plain value-equality check below only
			// applies to unit-coefficient bindings.
			if ib.CoefQ.ZExt(64) != ib.CoefI.ZExt(64) {
				ok = false
				break
			}
			var v bv.BV
			if ib.Query == nil {
				v = ib.Const
			} else {
				v = env.Vals[ib.Query.Var.Name]
			}
			// Respect the window: only usable when the query value fits.
			w := ib.ISA.Var.W()
			narrow := v.ZExt(64).Trunc(w)
			if narrow.ZExt(v.ZExt(64).W()) != v.ZExt(64) {
				ok = false // not representable; skip this sample
				break
			}
			env.Bind(ib.ISA.Var.Name, narrow)
		}
		if !ok {
			continue
		}
		// ISA vars the binding left free must not influence the result
		// (they cancel out of the canonical form — e.g. x+i-i): bind them
		// to fresh random values and demand agreement anyway.
		for _, v := range isaT.Vars() {
			if _, bound := env.Vals[v.Name]; !bound {
				env.Bind(v.Name, rng.BV(v.W()))
			}
		}
		if isaT.Eval(env) != queryT.Eval(env) {
			t.Logf("disagree on %v", env.Vals)
			return false
		}
	}
	return true
}

// TestPropertyNoFalsePayloads: looking up a random query must never
// return a match whose binding is evaluation-inconsistent (soundness of
// unification up to the recorded constraints).
func TestPropertyNoFalsePayloads(t *testing.T) {
	rng := bv.NewRNG(424242)
	for trial := 0; trial < 120; trial++ {
		b := term.NewBuilder()
		cx := canon.NewCtx()
		ix := New()
		regs := []*term.Term{b.Reg("s0.a", 64), b.Reg("s0.b", 64)}
		imms := []*term.Term{b.VarT("s0.i", term.KindImm, 12)}
		// Index several random terms.
		var indexed []*term.Term
		for i := 0; i < 5; i++ {
			tt := randomISATerm(b, rng, regs, imms, 2)
			indexed = append(indexed, tt)
			ix.Insert(cx.Canon(tt), i)
		}
		// Random query over IR-style vars.
		qRegs := []*term.Term{b.Reg("p0", 64), b.Reg("p1", 64)}
		qImms := []*term.Term{b.VarT("pi", term.KindImm, 64)}
		q := randomISATerm(b, rng, qRegs, qImms, 2)
		for _, m := range ix.Lookup(cx.Canon(q)) {
			idx := m.Payloads[0].(int)
			if !bindingConsistent(t, indexed[idx], q, m.Binding, rng) {
				t.Fatalf("trial %d: unsound match\n  indexed %s\n  query   %s",
					trial, indexed[idx], q)
			}
		}
	}
}

// Payloads returns the payloads stored for a canonical term.
func (ix *Index) Payloads(ct *canon.CTerm) []any { return ix.payloads[ct] }
