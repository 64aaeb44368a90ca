package sim_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"iselgen/internal/bench"
	"iselgen/internal/bv"
	"iselgen/internal/cost"
	"iselgen/internal/fuzz"
	"iselgen/internal/gmir"
	"iselgen/internal/isa"
	"iselgen/internal/isel"
	"iselgen/internal/mir"
	"iselgen/internal/sim"
	"iselgen/internal/spec"
	"iselgen/internal/targets"
	"iselgen/internal/term"
)

const simSpec = `
inst ADD(rn: reg64, rm: reg64) { rd = rn + rm; }
inst ADDI(rn: reg64, imm: imm12) { rd = rn + zext(imm, 64); }
inst SUBS(rn: reg64, rm: reg64) {
  let res = rn - rm;
  rd = res;
  flags.N = extract(res, 63, 63);
  flags.Z = res == 0;
  flags.C = uge(rn, rm);
  flags.V = extract((rn ^ rm) & (rn ^ res), 63, 63);
}
inst Beq(imm: imm19) { if (flags.Z) { pc = pc + sext(concat(imm, 0:2), 64); } }
inst Bne(imm: imm19) { if (flags.Z == 0) { pc = pc + sext(concat(imm, 0:2), 64); } }
inst ADC(rn: reg64, rm: reg64) { rd = rn + rm + zext(flags.C, 64); }
inst B(imm: imm26) { pc = pc + sext(concat(imm, 0:2), 64); }
inst LDR(rn: reg64, imm: imm12) { rd = load(rn + zext(imm, 64), 64); }
inst STR(rt: reg64, rn: reg64, imm: imm12) { mem[rn + zext(imm, 64), 64] = rt; }
inst LDP(rn: reg64, simm: imm9) {
  rd = load(rn, 64);
  rn = rn + sext(simm, 64);
}
`

func target(t *testing.T) (*term.Builder, *isa.Target) {
	t.Helper()
	b := term.NewBuilder()
	tgt, err := isa.LoadTarget(b, "simtest", simSpec, map[string]int{"LDR": 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	return b, tgt
}

func TestStraightLine(t *testing.T) {
	_, tgt := target(t)
	f := &mir.Func{Name: "f", NumRegs: 4, Params: []mir.Reg{0, 1}}
	f.Blocks = []*mir.Block{{ID: 0, Insts: []*mir.Inst{
		{Meta: tgt.ByName("ADD"), Dsts: []mir.Reg{2}, Args: []mir.Operand{mir.R(0), mir.R(1)}},
		{Meta: tgt.ByName("ADDI"), Dsts: []mir.Reg{3}, Args: []mir.Operand{mir.R(2), mir.I(bv.New(12, 5))}},
		{Pseudo: mir.PRet, Args: []mir.Operand{mir.R(3)}},
	}}}
	m := &sim.Machine{}
	res, err := m.Run(f, []bv.BV{bv.New(64, 10), bv.New(64, 20)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret.Lo != 35 {
		t.Errorf("result = %d", res.Ret.Lo)
	}
	if res.Insts != 3 {
		t.Errorf("insts = %d", res.Insts)
	}
	// Latency model: 1 + 1 + 1 = 3 cycles (ret counts 1).
	if res.Cycles != 3 {
		t.Errorf("cycles = %d", res.Cycles)
	}
}

func TestConditionalBranchAndFlags(t *testing.T) {
	_, tgt := target(t)
	// if (a == b) return 1 else return 2, via SUBS + Beq.
	f := &mir.Func{Name: "f", NumRegs: 5, Params: []mir.Reg{0, 1}}
	dummy := mir.I(bv.Zero(19))
	f.Blocks = []*mir.Block{
		{ID: 0, Insts: []*mir.Inst{
			{Meta: tgt.ByName("SUBS"), Dsts: []mir.Reg{2}, Args: []mir.Operand{mir.R(0), mir.R(1)}},
			{Meta: tgt.ByName("Beq"), Args: []mir.Operand{dummy}, Succs: []int{2}},
		}},
		{ID: 1, Insts: []*mir.Inst{
			{Meta: tgt.ByName("ADDI"), Dsts: []mir.Reg{3}, Args: []mir.Operand{mir.R(4), mir.I(bv.New(12, 2))}},
			{Pseudo: mir.PRet, Args: []mir.Operand{mir.R(3)}},
		}},
		{ID: 2, Insts: []*mir.Inst{
			{Meta: tgt.ByName("ADDI"), Dsts: []mir.Reg{3}, Args: []mir.Operand{mir.R(4), mir.I(bv.New(12, 1))}},
			{Pseudo: mir.PRet, Args: []mir.Operand{mir.R(3)}},
		}},
	}
	m := &sim.Machine{}
	res, err := m.Run(f, []bv.BV{bv.New(64, 7), bv.New(64, 7)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret.Lo != 1 {
		t.Errorf("equal args: result = %d, want 1 (taken)", res.Ret.Lo)
	}
	res, err = m.Run(f, []bv.BV{bv.New(64, 7), bv.New(64, 8)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret.Lo != 2 {
		t.Errorf("unequal args: result = %d, want 2 (fallthrough)", res.Ret.Lo)
	}
}

func TestUnconditionalBranch(t *testing.T) {
	_, tgt := target(t)
	f := &mir.Func{Name: "f", NumRegs: 3, Params: []mir.Reg{0}}
	f.Blocks = []*mir.Block{
		{ID: 0, Insts: []*mir.Inst{
			{Meta: tgt.ByName("B"), Args: []mir.Operand{mir.I(bv.Zero(26))}, Succs: []int{2}},
		}},
		{ID: 1, Insts: []*mir.Inst{ // skipped
			{Meta: tgt.ByName("ADDI"), Dsts: []mir.Reg{0}, Args: []mir.Operand{mir.R(0), mir.I(bv.New(12, 99))}},
			{Pseudo: mir.PRet, Args: []mir.Operand{mir.R(0)}},
		}},
		{ID: 2, Insts: []*mir.Inst{
			{Pseudo: mir.PRet, Args: []mir.Operand{mir.R(0)}},
		}},
	}
	m := &sim.Machine{}
	res, err := m.Run(f, []bv.BV{bv.New(64, 42)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret.Lo != 42 {
		t.Errorf("result = %d (block 1 executed?)", res.Ret.Lo)
	}
}

func TestMemoryAndLatency(t *testing.T) {
	_, tgt := target(t)
	f := &mir.Func{Name: "f", NumRegs: 3, Params: []mir.Reg{0, 1}}
	f.Blocks = []*mir.Block{{ID: 0, Insts: []*mir.Inst{
		{Meta: tgt.ByName("STR"), Args: []mir.Operand{mir.R(1), mir.R(0), mir.I(bv.New(12, 8))}},
		{Meta: tgt.ByName("LDR"), Dsts: []mir.Reg{2}, Args: []mir.Operand{mir.R(0), mir.I(bv.New(12, 8))}},
		{Pseudo: mir.PRet, Args: []mir.Operand{mir.R(2)}},
	}}}
	m := &sim.Machine{Mem: gmir.NewMemory()}
	res, err := m.Run(f, []bv.BV{bv.New(64, 0x100), bv.New(64, 0xabcd)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret.Lo != 0xabcd {
		t.Errorf("load-after-store = %#x", res.Ret.Lo)
	}
	// STR 1 + LDR 3 + RET 1.
	if res.Cycles != 5 {
		t.Errorf("cycles = %d, want 5", res.Cycles)
	}
}

func TestWritebackDualDest(t *testing.T) {
	_, tgt := target(t)
	// Post-index load: rd and write-back both land in Dsts.
	f := &mir.Func{Name: "f", NumRegs: 4, Params: []mir.Reg{0}}
	f.Blocks = []*mir.Block{{ID: 0, Insts: []*mir.Inst{
		{Meta: tgt.ByName("LDP"), Dsts: []mir.Reg{1, 2},
			Args: []mir.Operand{mir.R(0), mir.I(bv.NewInt(9, 16))}},
		{Meta: tgt.ByName("ADD"), Dsts: []mir.Reg{3}, Args: []mir.Operand{mir.R(1), mir.R(2)}},
		{Pseudo: mir.PRet, Args: []mir.Operand{mir.R(3)}},
	}}}
	m := &sim.Machine{Mem: gmir.NewMemory()}
	m.Mem.Store(0x200, bv.New(64, 5), 64)
	res, err := m.Run(f, []bv.BV{bv.New(64, 0x200)})
	if err != nil {
		t.Fatal(err)
	}
	// loaded 5, rn' = 0x210: 5 + 0x210 = 0x215.
	if res.Ret.Lo != 0x215 {
		t.Errorf("result = %#x, want 0x215", res.Ret.Lo)
	}
}

func TestStepLimit(t *testing.T) {
	_, tgt := target(t)
	f := &mir.Func{Name: "spin", NumRegs: 1, Params: []mir.Reg{0}}
	f.Blocks = []*mir.Block{{ID: 0, Insts: []*mir.Inst{
		{Meta: tgt.ByName("B"), Args: []mir.Operand{mir.I(bv.Zero(26))}, Succs: []int{0}},
	}}}
	m := &sim.Machine{MaxSteps: 100}
	_, err := m.Run(f, []bv.BV{bv.Zero(64)})
	if err == nil || !strings.Contains(err.Error(), "step limit") {
		t.Errorf("err = %v, want step limit", err)
	}
}

func TestAdjust(t *testing.T) {
	if got := sim.Adjust(bv.New(64, 0x1ff), 8); got.Lo != 0xff {
		t.Errorf("truncating read = %v", got)
	}
	if got := sim.Adjust(bv.New(8, 0xff), 64); got.Lo != 0xff || got.W() != 64 {
		t.Errorf("widening read = %v", got)
	}
	if got := sim.Adjust(bv.BV{}, 32); !got.IsZero() || got.W() != 32 {
		t.Errorf("unwritten register = %v", got)
	}
}

// A cost table overrides cycle charging; the target-derived default
// table reproduces the metadata latencies exactly, so switching the
// accounting on changes nothing until the table is edited.
func TestModelCycleAccounting(t *testing.T) {
	_, tgt := target(t)
	f := &mir.Func{Name: "f", NumRegs: 3, Params: []mir.Reg{0}}
	f.Blocks = []*mir.Block{{ID: 0, Insts: []*mir.Inst{
		{Meta: tgt.ByName("LDR"), Dsts: []mir.Reg{1}, Args: []mir.Operand{mir.R(0), mir.I(bv.New(12, 0))}},
		{Meta: tgt.ByName("ADD"), Dsts: []mir.Reg{2}, Args: []mir.Operand{mir.R(1), mir.R(1)}},
		{Pseudo: mir.PRet, Args: []mir.Operand{mir.R(2)}},
	}}}
	mem := gmir.NewMemory()
	mem.Store(0x100, bv.New(64, 21), 64)
	args := []bv.BV{bv.New(64, 0x100)}

	plain := &sim.Machine{Mem: mem}
	base, err := plain.Run(f, args)
	if err != nil {
		t.Fatal(err)
	}
	if base.Cycles != 3+1+1 {
		t.Fatalf("metadata cycles = %d", base.Cycles)
	}

	derived := &sim.Machine{Mem: mem, Model: cost.FromTarget(tgt)}
	same, err := derived.Run(f, args)
	if err != nil {
		t.Fatal(err)
	}
	if same.Cycles != base.Cycles {
		t.Errorf("derived table diverges: %d vs %d", same.Cycles, base.Cycles)
	}

	tab := cost.FromTarget(tgt)
	tab.Latency["ADD"] = 10
	bumped := &sim.Machine{Mem: mem, Model: tab}
	res, err := bumped.Run(f, args)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != 3+10+1 {
		t.Errorf("bumped cycles = %d, want 14", res.Cycles)
	}
	if res.Ret.Lo != 42 {
		t.Errorf("result = %d", res.Ret.Lo)
	}
}

// refRun is the reference stepper: every step binds a fresh term.Env by
// variable name and evaluates each effect term with term.Eval, sharing
// nothing with the compiled programs. Tests check sim.Machine against
// it.
func refRun(mem *gmir.Memory, f *mir.Func, args []bv.BV) (sim.Result, error) {
	if len(args) != len(f.Params) {
		return sim.Result{}, fmt.Errorf("sim: %s takes %d args, got %d", f.Name, len(f.Params), len(args))
	}
	regs := make([]bv.BV, f.NumRegs)
	for i, p := range f.Params {
		regs[p] = args[i]
	}
	flags := map[string]bv.BV{"N": bv.Zero(1), "Z": bv.Zero(1), "C": bv.Zero(1), "V": bv.Zero(1)}
	layout := map[int]int{}
	for i, b := range f.Blocks {
		layout[b.ID] = i
	}
	res := sim.Result{}
	bi := 0
	for bi < len(f.Blocks) {
		taken := -1
		for _, in := range f.Blocks[bi].Insts {
			if res.Insts++; res.Insts > 200_000_000 {
				return res, fmt.Errorf("sim: %s: step limit exceeded", f.Name)
			}
			res.Cycles += int64(in.Latency())
			switch {
			case in.Pseudo == mir.PCopy:
				regs[in.Dsts[0]] = regs[in.Args[0].Reg]
				continue
			case in.Pseudo == mir.PRet:
				if len(in.Args) == 1 {
					res.Ret = regs[in.Args[0].Reg]
					res.HasRet = true
				}
				res.Flags = flags
				return res, nil
			}
			t, err := refStep(mem, in, regs, flags)
			if err != nil {
				return res, fmt.Errorf("sim: %s: %s: %w", f.Name, in, err)
			}
			if t {
				taken = in.Succs[0]
				break
			}
		}
		if taken >= 0 {
			ni, ok := layout[taken]
			if !ok {
				return res, fmt.Errorf("sim: %s: branch to unknown bb%d", f.Name, taken)
			}
			bi = ni
		} else {
			bi++
		}
	}
	return res, fmt.Errorf("sim: %s: fell off the end", f.Name)
}

func refStep(mem *gmir.Memory, in *mir.Inst, regs []bv.BV, flags map[string]bv.BV) (bool, error) {
	meta := in.Meta
	if meta == nil {
		return false, fmt.Errorf("unexpected pseudo")
	}
	if len(in.Args) != len(meta.Operands) {
		return false, fmt.Errorf("operand count %d, want %d", len(in.Args), len(meta.Operands))
	}
	env := term.NewEnv()
	env.Mem = mem
	labelImm := -1
	for i, op := range meta.Operands {
		name := meta.Name + "." + op.Name
		a := in.Args[i]
		if a.IsImm {
			env.Bind(name, sim.Adjust(a.Imm, op.Width))
			if len(in.Succs) > 0 && op.Kind == spec.OpImm && labelImm < 0 {
				labelImm = i
			}
		} else {
			env.Bind(name, sim.Adjust(regs[a.Reg], op.Width))
		}
	}
	for _, fn := range spec.FlagNames {
		env.Bind(meta.Name+"."+fn, flags[fn])
	}
	const pcBase = 0x100000
	env.Bind(meta.Name+".pc", bv.New(64, pcBase))

	branchTaken := false
	dstIdx := 0
	for _, e := range meta.Effects {
		switch e.Kind {
		case spec.EffReg, spec.EffWB:
			if dstIdx >= len(in.Dsts) {
				return false, fmt.Errorf("missing destination register for %s effect", e.Kind)
			}
			regs[in.Dsts[dstIdx]] = e.T.Eval(env)
			dstIdx++
		case spec.EffFlag:
			flags[e.Dest] = e.T.Eval(env)
		case spec.EffMem:
			addr := e.T.Args[0].Eval(env)
			val := e.T.Args[1].Eval(env)
			mem.Store(addr.Uint64(), val, int(e.T.Aux0))
		case spec.EffPC:
			if len(in.Succs) == 0 {
				return false, fmt.Errorf("PC effect without successor")
			}
			if labelImm < 0 {
				return false, fmt.Errorf("branch without label immediate")
			}
			labelName := meta.Name + "." + meta.Operands[labelImm].Name
			labelW := meta.Operands[labelImm].Width
			env.Bind(labelName, bv.New(labelW, 2))
			r1 := e.T.Eval(env)
			env.Bind(labelName, bv.New(labelW, 3))
			r2 := e.T.Eval(env)
			if r1 != r2 {
				branchTaken = true
			} else if r1.Lo != pcBase+uint64(in.Size()) {
				branchTaken = true
			}
		}
	}
	return branchTaken, nil
}

// checkAgainstRef runs f through the compiled simulator and the
// reference stepper, each on a fresh memory seeded by init, and fails
// unless both agree on the outcome, every counter, the flags and the
// final memory.
func checkAgainstRef(t *testing.T, f *mir.Func, args []bv.BV, init func(*gmir.Memory)) sim.Result {
	t.Helper()
	mem, refMem := gmir.NewMemory(), gmir.NewMemory()
	if init != nil {
		init(mem)
		init(refMem)
	}
	got, err := (&sim.Machine{Mem: mem}).Run(f, args)
	want, refErr := refRun(refMem, f, args)
	if fmt.Sprint(err) != fmt.Sprint(refErr) {
		t.Fatalf("%s: error %v, reference %v", f.Name, err, refErr)
	}
	if got.Ret != want.Ret || got.HasRet != want.HasRet || got.Cycles != want.Cycles ||
		got.Insts != want.Insts || !reflect.DeepEqual(got.Flags, want.Flags) {
		t.Fatalf("%s%v: got %+v, reference %+v\n%s", f.Name, args, got, want, f)
	}
	if !reflect.DeepEqual(mem.Snapshot(), refMem.Snapshot()) {
		t.Fatalf("%s%v: final memory differs from the reference\n%s", f.Name, args, f)
	}
	return got
}

// TestCompiledMatchesReference selects fuzz.Gen programs on every
// selecting builtin target with every baseline backend, plus the
// benchmark suite on the handwritten one, and requires the compiled
// stepper to agree with the reference stepper on each run.
func TestCompiledMatchesReference(t *testing.T) {
	progs := 60
	if testing.Short() {
		progs = 15
	}
	for _, bt := range targets.All() {
		if !bt.Selects() {
			continue
		}
		t.Run(bt.Name, func(t *testing.T) {
			b := term.NewBuilder()
			tgt, err := bt.Load(b)
			if err != nil {
				t.Fatal(err)
			}
			backends, handwritten := bt.Baselines(b, tgt)
			lower := func(bk *isel.Backend, f *gmir.Function) *mir.Func {
				if err := gmir.Legalize(f, bt.MinWidth); err != nil {
					t.Fatal(err)
				}
				isel.Prepare(f, bt.Name)
				mf, rep := bk.Select(f)
				if rep.Fallback {
					return nil
				}
				return mf
			}
			rng := bv.NewRNG(3)
			ran := 0
			for i := 0; i < progs; i++ {
				p := fuzz.Gen(rng, fuzz.GenConfig{})
				vecs := fuzz.Vectors(rng, p, 2)
				for _, bk := range backends {
					f, err := p.Build()
					if err != nil {
						t.Fatal(err)
					}
					if mf := lower(bk, f); mf != nil {
						for _, args := range vecs {
							checkAgainstRef(t, mf, args, nil)
							ran++
						}
					}
				}
			}
			if ran == 0 {
				t.Fatal("every program fell back")
			}
			if testing.Short() {
				return
			}
			for _, w := range bench.Suite(1) {
				mf := lower(handwritten, w.Build())
				if mf == nil {
					t.Fatalf("%s: fell back", w.Name)
				}
				checkAgainstRef(t, mf, w.Args, w.InitMem)
			}
		})
	}
}

// TestCompiledMatchesReferenceCases pins the step semantics the input
// layout must preserve, each against the reference stepper.
func TestCompiledMatchesReferenceCases(t *testing.T) {
	_, tgt := target(t)
	in := func(name string, dsts []mir.Reg, args ...mir.Operand) *mir.Inst {
		return &mir.Inst{Meta: tgt.ByName(name), Dsts: dsts, Args: args}
	}
	ret := func(r mir.Reg) *mir.Inst { return &mir.Inst{Pseudo: mir.PRet, Args: []mir.Operand{mir.R(r)}} }
	br := func(name string, succ int) *mir.Inst {
		return &mir.Inst{Meta: tgt.ByName(name), Args: []mir.Operand{mir.I(bv.Zero(19))}, Succs: []int{succ}}
	}

	// A destination aliasing a source: SUBS overwrites rn, yet its flags
	// (C = rn >= rm, V from rn) must see the old rn.
	alias := &mir.Func{Name: "alias", NumRegs: 2, Params: []mir.Reg{0, 1}}
	alias.Blocks = []*mir.Block{{ID: 0, Insts: []*mir.Inst{
		in("SUBS", []mir.Reg{0}, mir.R(0), mir.R(1)),
		in("ADC", []mir.Reg{0}, mir.R(0), mir.R(0)),
		ret(0),
	}}}
	// 3 - 5 = -2 with C clear (3 < 5; the new rn would set it); then
	// -2 + -2 + C = -4.
	if got := checkAgainstRef(t, alias, []bv.BV{bv.New(64, 3), bv.New(64, 5)}, nil); got.Ret.Lo != ^uint64(3) {
		t.Errorf("aliased SUBS/ADC = %#x, want %#x", got.Ret.Lo, ^uint64(3))
	}
	// Write-back aliasing the loaded destination's base.
	wb := &mir.Func{Name: "wb", NumRegs: 2, Params: []mir.Reg{0}}
	wb.Blocks = []*mir.Block{{ID: 0, Insts: []*mir.Inst{
		in("LDP", []mir.Reg{1, 0}, mir.R(0), mir.I(bv.NewInt(9, 8))),
		in("ADD", []mir.Reg{0}, mir.R(0), mir.R(1)),
		ret(0),
	}}}
	seed := func(m *gmir.Memory) { m.Store(0x300, bv.New(64, 7), 64) }
	if got := checkAgainstRef(t, wb, []bv.BV{bv.New(64, 0x300)}, seed); got.Ret.Lo != 0x308+7 {
		t.Errorf("write-back = %#x, want %#x", got.Ret.Lo, 0x308+7)
	}

	// A flag-setting compare followed by a flag read: ADC adds the carry
	// SUBS left (C = rn >= rm).
	flagRead := &mir.Func{Name: "flagread", NumRegs: 4, Params: []mir.Reg{0, 1}}
	flagRead.Blocks = []*mir.Block{{ID: 0, Insts: []*mir.Inst{
		in("SUBS", []mir.Reg{2}, mir.R(0), mir.R(1)),
		in("ADC", []mir.Reg{3}, mir.R(0), mir.R(1)),
		ret(3),
	}}}
	for _, c := range []struct{ a, b, want uint64 }{{5, 3, 9}, {3, 5, 8}} {
		got := checkAgainstRef(t, flagRead, []bv.BV{bv.New(64, c.a), bv.New(64, c.b)}, nil)
		if got.Ret.Lo != c.want {
			t.Errorf("ADC after SUBS %d,%d = %d, want %d", c.a, c.b, got.Ret.Lo, c.want)
		}
	}

	// A taken and a not-taken conditional branch, and an unconditional one.
	cond := &mir.Func{Name: "cond", NumRegs: 4, Params: []mir.Reg{0, 1}}
	cond.Blocks = []*mir.Block{
		{ID: 0, Insts: []*mir.Inst{in("SUBS", []mir.Reg{2}, mir.R(0), mir.R(1)), br("Bne", 2)}},
		{ID: 1, Insts: []*mir.Inst{in("ADDI", []mir.Reg{3}, mir.R(2), mir.I(bv.New(12, 100))),
			{Meta: tgt.ByName("B"), Args: []mir.Operand{mir.I(bv.Zero(26))}, Succs: []int{3}}}},
		{ID: 2, Insts: []*mir.Inst{in("ADDI", []mir.Reg{3}, mir.R(2), mir.I(bv.New(12, 200)))}},
		{ID: 3, Insts: []*mir.Inst{ret(3)}},
	}
	if got := checkAgainstRef(t, cond, []bv.BV{bv.New(64, 4), bv.New(64, 4)}, nil); got.Ret.Lo != 100 {
		t.Errorf("not-taken branch = %d, want 100", got.Ret.Lo)
	}
	if got := checkAgainstRef(t, cond, []bv.BV{bv.New(64, 5), bv.New(64, 4)}, nil); got.Ret.Lo != 201 {
		t.Errorf("taken branch = %d, want 201", got.Ret.Lo)
	}

	// A store then a load of the same address.
	mem := &mir.Func{Name: "mem", NumRegs: 3, Params: []mir.Reg{0, 1}}
	mem.Blocks = []*mir.Block{{ID: 0, Insts: []*mir.Inst{
		in("STR", nil, mir.R(1), mir.R(0), mir.I(bv.New(12, 16))),
		in("LDR", []mir.Reg{2}, mir.R(0), mir.I(bv.New(12, 16))),
		ret(2),
	}}}
	if got := checkAgainstRef(t, mem, []bv.BV{bv.New(64, 0x500), bv.New(64, 0xbeef)}, nil); got.Ret.Lo != 0xbeef {
		t.Errorf("store/load = %#x", got.Ret.Lo)
	}
}

// countedLoop sums n, n-1, ..., 1 with SUBS/ADD/Bne.
func countedLoop(tgt *isa.Target) *mir.Func {
	f := &mir.Func{Name: "loop", NumRegs: 4, Params: []mir.Reg{0, 1}}
	f.Blocks = []*mir.Block{
		{ID: 0, Insts: []*mir.Inst{
			{Meta: tgt.ByName("ADD"), Dsts: []mir.Reg{3}, Args: []mir.Operand{mir.R(3), mir.R(0)}},
			{Meta: tgt.ByName("SUBS"), Dsts: []mir.Reg{0}, Args: []mir.Operand{mir.R(0), mir.R(1)}},
			{Meta: tgt.ByName("Bne"), Args: []mir.Operand{mir.I(bv.Zero(19))}, Succs: []int{0}},
		}},
		{ID: 1, Insts: []*mir.Inst{{Pseudo: mir.PRet, Args: []mir.Operand{mir.R(3)}}}},
	}
	return f
}

// TestStepAllocatesNothing: a run allocates a fixed amount (register
// file, block layout, result flags), however many steps it takes.
func TestStepAllocatesNothing(t *testing.T) {
	_, tgt := target(t)
	f := countedLoop(tgt)
	mem := gmir.NewMemory()
	allocs := func(n uint64) float64 {
		args := []bv.BV{bv.New(64, n), bv.New(64, 1)}
		if got := checkAgainstRef(t, f, args, nil); got.Ret.Lo != n*(n+1)/2 {
			t.Fatalf("sum to %d = %d", n, got.Ret.Lo)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := (&sim.Machine{Mem: mem}).Run(f, args); err != nil {
				t.Fatal(err)
			}
		})
	}
	if short, long := allocs(10), allocs(1000); short != long {
		t.Errorf("10 iterations allocate %v, 1000 allocate %v", short, long)
	}
}
