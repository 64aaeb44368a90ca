package term

import (
	"testing"

	"iselgen/internal/bv"
)

// genTerm builds a pseudo-random term over nv variables of width w,
// deterministically from the RNG, covering every op Program implements.
func genTerm(b *Builder, rng *bv.RNG, w, depth, nv int) *Term {
	if depth <= 0 || rng.Uint64()%4 == 0 {
		if rng.Uint64()%3 == 0 {
			return b.ConstBV(rng.BV(w))
		}
		return b.VarT("v"+string(rune('a'+int(rng.Uint64()%uint64(nv)))), KindReg, w)
	}
	sub := func() *Term { return genTerm(b, rng, w, depth-1, nv) }
	switch rng.Uint64() % 16 {
	case 0:
		return b.Add(sub(), sub())
	case 1:
		return b.Sub(sub(), sub())
	case 2:
		return b.Mul(sub(), sub())
	case 3:
		return b.And(sub(), sub())
	case 4:
		return b.Or(sub(), sub())
	case 5:
		return b.Xor(sub(), sub())
	case 6:
		return b.Not(sub())
	case 7:
		return b.Neg(sub())
	case 8:
		return b.Shl(sub(), sub())
	case 9:
		return b.LShr(sub(), sub())
	case 10:
		return b.AShr(sub(), sub())
	case 11:
		if w > 1 {
			return b.ZExt(w, b.Extract(w/2-1, 0, sub()))
		}
		return sub()
	case 12:
		if w > 1 {
			return b.SExt(w, b.Extract(w/2-1, 0, sub()))
		}
		return sub()
	case 13:
		return b.Ite(b.Eq(sub(), sub()), sub(), sub())
	case 14:
		return b.Popcount(sub())
	default:
		return b.Ite(b.Ult(sub(), sub()), sub(), b.Ctz(sub()))
	}
}

// TestProgramMatchesEval cross-checks the compiled evaluator against the
// reference recursive evaluator on random terms and random inputs: the
// two must agree bit for bit, or every Program user (sample digests, the
// SMT-fallback probe, the counterexample screen) silently diverges.
func TestProgramMatchesEval(t *testing.T) {
	rng := bv.NewRNG(42)
	for iter := 0; iter < 500; iter++ {
		b := NewBuilder()
		w := []int{8, 16, 32, 64}[rng.Uint64()%4]
		tm := genTerm(b, rng, w, 4, 3)
		p := Compile(tm)

		pv := p.Vars()
		want := tm.Vars()
		if len(pv) != len(want) {
			t.Fatalf("iter %d: program has %d vars, term has %d", iter, len(pv), len(want))
		}
		for i, v := range want {
			if pv[i].Name != v.Name || pv[i].Width != v.W() {
				t.Fatalf("iter %d: var slot %d is %s/%d, want %s/%d",
					iter, i, pv[i].Name, pv[i].Width, v.Name, v.W())
			}
		}

		vals := make([]bv.BV, len(pv))
		for trial := 0; trial < 16; trial++ {
			env := NewEnv()
			for i, v := range pv {
				vals[i] = rng.BV(v.Width)
				env.Bind(v.Name, vals[i])
			}
			got := p.Run(vals)
			ref := tm.Eval(env)
			if got != ref {
				t.Fatalf("iter %d trial %d: program=%v eval=%v for %s", iter, trial, got, ref, tm)
			}
		}
	}
}

// TestProgramLoadStore pins the memory-model behavior: Run must read the
// same deterministic hash memory Term.Eval uses when no Mem is attached.
func TestProgramLoadStore(t *testing.T) {
	b := NewBuilder()
	addr := b.VarT("a", KindReg, 64)
	ld := b.Load(32, addr)
	tm := b.Add(ld, b.ZExt(32, b.VarT("x", KindReg, 8)))
	p := Compile(tm)
	env := NewEnv()
	env.Bind("a", bv.New(64, 0x1000))
	env.Bind("x", bv.New(8, 7))
	vals := []bv.BV{bv.New(64, 0x1000), bv.New(8, 7)}
	if got, ref := p.Run(vals), tm.Eval(env); got != ref {
		t.Fatalf("load: program=%v eval=%v", got, ref)
	}

	st := b.Store(b.VarT("a", KindReg, 64), b.VarT("v", KindReg, 32))
	ps := Compile(st)
	env2 := NewEnv()
	env2.Bind("a", bv.New(64, 0x2000))
	env2.Bind("v", bv.New(32, 99))
	if got, ref := ps.Run([]bv.BV{bv.New(64, 0x2000), bv.New(32, 99)}), st.Eval(env2); got != ref {
		t.Fatalf("store: program=%v eval=%v", got, ref)
	}
}

// fixedMem is a MemModel that answers every load with addr+bits.
type fixedMem struct{}

func (fixedMem) Load(addr uint64, bits int) bv.BV { return bv.New(bits, addr+uint64(bits)) }

// TestCompileLayoutRunIn: a layout program reads each variable from the
// slot the caller assigned, in caller scratch, and loads from the
// supplied memory — agreeing with Term.Eval under an Env with that Mem.
// A variable outside the layout fails the compilation.
func TestCompileLayoutRunIn(t *testing.T) {
	b := NewBuilder()
	x, y := b.VarT("x", KindReg, 64), b.VarT("y", KindReg, 64)
	tm := b.Sub(b.Load(64, b.Add(x, y)), x)
	layout := map[string]int{"y": 0, "x": 2} // slot 1 is unused
	p, err := CompileLayout(tm, func(v *Term) int {
		if s, ok := layout[v.Name]; ok {
			return s
		}
		return -1
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Vars()) != 0 {
		t.Errorf("layout program lists %d vars", len(p.Vars()))
	}
	vals := []bv.BV{bv.New(64, 0x20), bv.BV{}, bv.New(64, 0x100)}
	env := NewEnv()
	env.Bind("x", vals[2])
	env.Bind("y", vals[0])
	env.Mem = fixedMem{}
	if got, want := p.RunIn(vals, make([]bv.BV, p.Len()), fixedMem{}), tm.Eval(env); got != want || got.Lo != 0x160-0x100 {
		t.Errorf("RunIn = %v, Eval = %v", got, want)
	}
	onlyX := func(v *Term) int {
		if v.Name == "x" {
			return 0
		}
		return -1
	}
	if _, err := CompileLayout(tm, onlyX); err == nil {
		t.Error("a variable outside the layout compiled")
	}
}
