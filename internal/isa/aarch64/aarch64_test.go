package aarch64

import (
	"testing"

	"iselgen/internal/bv"
	"iselgen/internal/isa"
	"iselgen/internal/spec"
	"iselgen/internal/term"
)

func load(t *testing.T) (*term.Builder, *isa.Target) {
	t.Helper()
	b := term.NewBuilder()
	tgt, err := Load(b)
	if err != nil {
		t.Fatal(err)
	}
	return b, tgt
}

// evalRd evaluates the primary register effect of the named instruction.
func evalRd(t *testing.T, tgt *isa.Target, name string, binds map[string]bv.BV) bv.BV {
	t.Helper()
	inst := tgt.ByName(name)
	if inst == nil {
		t.Fatalf("no instruction %s", name)
	}
	env := term.NewEnv()
	for k, v := range binds {
		env.Bind(name+"."+k, v)
	}
	for _, e := range inst.Effects {
		if e.Kind == spec.EffReg && e.Dest == "rd" {
			return e.T.Eval(env)
		}
	}
	t.Fatalf("%s has no rd effect", name)
	return bv.BV{}
}

func TestInstructionCount(t *testing.T) {
	_, tgt := load(t)
	if len(tgt.Insts) < 250 {
		t.Errorf("only %d instructions; expected a rich AArch64 subset", len(tgt.Insts))
	}
	// No duplicate names.
	seen := map[string]bool{}
	for _, in := range tgt.Insts {
		if seen[in.Name] {
			t.Errorf("duplicate instruction %s", in.Name)
		}
		seen[in.Name] = true
	}
}

func TestArithmeticSemantics(t *testing.T) {
	_, tgt := load(t)
	if got := evalRd(t, tgt, "ADDXrr", map[string]bv.BV{
		"rn": bv.New(64, 7), "rm": bv.New(64, 5)}); got.Lo != 12 {
		t.Errorf("ADDXrr = %d", got.Lo)
	}
	// The paper's ADDWrs (Fig. 3a): 32-bit add with LSL-shifted operand.
	if got := evalRd(t, tgt, "ADDWrs_lsl", map[string]bv.BV{
		"rn": bv.New(32, 1), "rm": bv.New(32, 3), "sh": bv.New(5, 4)}); got.Lo != 1+3<<4 {
		t.Errorf("ADDWrs_lsl = %d", got.Lo)
	}
	if got := evalRd(t, tgt, "SUBXri", map[string]bv.BV{
		"rn": bv.New(64, 100), "imm": bv.New(12, 1)}); got.Lo != 99 {
		t.Errorf("SUBXri = %d", got.Lo)
	}
	if got := evalRd(t, tgt, "MADDX", map[string]bv.BV{
		"rn": bv.New(64, 3), "rm": bv.New(64, 4), "ra": bv.New(64, 5)}); got.Lo != 17 {
		t.Errorf("MADDX = %d", got.Lo)
	}
	if got := evalRd(t, tgt, "EXTRX", map[string]bv.BV{
		"rn": bv.New(64, 1), "rm": bv.Zero(64), "lsb": bv.New(6, 60)}); got.Lo != 16 {
		t.Errorf("EXTRX = %d, want 16", got.Lo)
	}
}

func TestMOVKInsertsHalfword(t *testing.T) {
	_, tgt := load(t)
	got := evalRd(t, tgt, "MOVKX_16", map[string]bv.BV{
		"rn": bv.New(64, 0xffffffffffffffff), "imm": bv.New(16, 0x1234)})
	if got.Lo != 0xffffffff1234ffff {
		t.Errorf("MOVKX_16 = %#x", got.Lo)
	}
	got = evalRd(t, tgt, "MOVZX_48", map[string]bv.BV{"imm": bv.New(16, 0xbeef)})
	if got.Lo != 0xbeef000000000000 {
		t.Errorf("MOVZX_48 = %#x", got.Lo)
	}
	got = evalRd(t, tgt, "MOVNW_0", map[string]bv.BV{"imm": bv.New(16, 0)})
	if got.Lo != 0xffffffff {
		t.Errorf("MOVNW_0 = %#x", got.Lo)
	}
}

func TestConditionCodes(t *testing.T) {
	_, tgt := load(t)
	flags := func(n, z, c, v uint64) map[string]bv.BV {
		return map[string]bv.BV{
			"N": bv.New(1, n), "Z": bv.New(1, z), "C": bv.New(1, c), "V": bv.New(1, v),
			"rn": bv.New(64, 1), "rm": bv.New(64, 2),
		}
	}
	// lt: N != V.
	if got := evalRd(t, tgt, "CSELXlt", flags(1, 0, 0, 0)); got.Lo != 1 {
		t.Errorf("CSELXlt with N=1,V=0 chose %d, want rn", got.Lo)
	}
	if got := evalRd(t, tgt, "CSELXlt", flags(0, 0, 0, 0)); got.Lo != 2 {
		t.Errorf("CSELXlt with N=V chose %d, want rm", got.Lo)
	}
	// hi: C & !Z.
	if got := evalRd(t, tgt, "CSETXhi", flags(0, 0, 1, 0)); got.Lo != 1 {
		t.Errorf("CSETXhi = %d", got.Lo)
	}
	if got := evalRd(t, tgt, "CSETXhi", flags(0, 1, 1, 0)); got.Lo != 0 {
		t.Errorf("CSETXhi with Z = %d", got.Lo)
	}
	// CSINC else-arm increments.
	if got := evalRd(t, tgt, "CSINCXeq", flags(0, 0, 0, 0)); got.Lo != 3 {
		t.Errorf("CSINCXeq not-taken = %d, want rm+1", got.Lo)
	}
	// CSETM produces a mask.
	if got := evalRd(t, tgt, "CSETMXeq", flags(0, 1, 0, 0)); !got.IsOnes() {
		t.Errorf("CSETMXeq = %v", got)
	}
}

func TestSUBSFlagSemantics(t *testing.T) {
	_, tgt := load(t)
	inst := tgt.ByName("SUBSXrr")
	env := term.NewEnv()
	env.Bind("SUBSXrr.rn", bv.New(64, 5))
	env.Bind("SUBSXrr.rm", bv.New(64, 5))
	effs := map[string]bv.BV{}
	for _, e := range inst.Effects {
		if e.Kind == spec.EffFlag {
			effs[e.Dest] = e.T.Eval(env)
		}
	}
	if !effs["Z"].Bool() || effs["N"].Bool() || !effs["C"].Bool() || effs["V"].Bool() {
		t.Errorf("5-5 flags = %v", effs)
	}
	// 0 - 1: N=1, Z=0, C=0 (borrow), V=0.
	env.Bind("SUBSXrr.rn", bv.Zero(64))
	env.Bind("SUBSXrr.rm", bv.New(64, 1))
	for _, e := range inst.Effects {
		if e.Kind == spec.EffFlag {
			effs[e.Dest] = e.T.Eval(env)
		}
	}
	if !effs["N"].Bool() || effs["Z"].Bool() || effs["C"].Bool() || effs["V"].Bool() {
		t.Errorf("0-1 flags = %v", effs)
	}
	// Signed overflow: INT64_MIN - 1.
	env.Bind("SUBSXrr.rn", bv.New128(64, 0, 1<<63))
	env.Bind("SUBSXrr.rm", bv.New(64, 1))
	for _, e := range inst.Effects {
		if e.Kind == spec.EffFlag {
			effs[e.Dest] = e.T.Eval(env)
		}
	}
	if !effs["V"].Bool() {
		t.Errorf("INT64_MIN-1 flags = %v, want V", effs)
	}
}

func TestLoadStoreAddressing(t *testing.T) {
	_, tgt := load(t)
	// LDRXui scales the immediate by 8.
	inst := tgt.ByName("LDRXui")
	env := term.NewEnv()
	env.Bind("LDRXui.rn", bv.New(64, 0x1000))
	env.Bind("LDRXui.imm", bv.New(12, 2))
	addr := inst.Effects[0].T.Args[0].Eval(env)
	if addr.Lo != 0x1010 {
		t.Errorf("LDRXui address = %#x, want 0x1010", addr.Lo)
	}
	// LDURXi uses a signed unscaled offset.
	inst = tgt.ByName("LDURXi")
	env = term.NewEnv()
	env.Bind("LDURXi.rn", bv.New(64, 0x1000))
	env.Bind("LDURXi.simm", bv.NewInt(9, -8))
	addr = inst.Effects[0].T.Args[0].Eval(env)
	if addr.Lo != 0xff8 {
		t.Errorf("LDURXi address = %#x, want 0xff8", addr.Lo)
	}
	// Post-index load: two effects.
	inst = tgt.ByName("LDRXpost")
	if len(inst.Effects) != 2 {
		t.Errorf("LDRXpost effects = %d", len(inst.Effects))
	}
	// Sign-extending byte load.
	inst = tgt.ByName("LDRSBXui")
	if inst.Effects[0].T.Op != term.SExt {
		t.Errorf("LDRSBXui effect = %s", inst.Effects[0].T)
	}
}

func TestVectorLaneSemantics(t *testing.T) {
	_, tgt := load(t)
	// VADD_2s adds two 32-bit lanes independently: wraparound must not
	// carry across lanes.
	got := evalRd(t, tgt, "VADD_2s", map[string]bv.BV{
		"rn": bv.New(64, 0x00000001_ffffffff), "rm": bv.New(64, 0x00000002_00000001)})
	if got.Lo != 0x00000003_00000000 {
		t.Errorf("VADD_2s = %#x", got.Lo)
	}
	// VCNT_8b counts per byte.
	got = evalRd(t, tgt, "VCNT_8b", map[string]bv.BV{"rn": bv.New(64, 0xff03010000000007)})
	if got.Lo != 0x0802010000000003 {
		t.Errorf("VCNT_8b = %#x", got.Lo)
	}
	// VCMEQ produces lane masks.
	got = evalRd(t, tgt, "VCMEQ_4h", map[string]bv.BV{
		"rn": bv.New(64, 0x1111_2222_3333_4444), "rm": bv.New(64, 0x1111_0000_3333_0000)})
	if got.Lo != 0xffff_0000_ffff_0000 {
		t.Errorf("VCMEQ_4h = %#x", got.Lo)
	}
}

func TestBranchSemantics(t *testing.T) {
	_, tgt := load(t)
	inst := tgt.ByName("CBZX")
	env := term.NewEnv()
	env.Bind("CBZX.rt", bv.Zero(64))
	env.Bind("CBZX.imm", bv.NewInt(19, -1))
	env.Bind("CBZX.pc", bv.New(64, 0x1000))
	// Displacements are byte-granular: the mechanical variable-length
	// encodings cannot keep targets 4-byte aligned, so there is no x4
	// scale.
	if got := inst.Effects[0].T.Eval(env); got.Lo != 0x1000-1 {
		t.Errorf("CBZX taken pc = %#x", got.Lo)
	}
	env.Bind("CBZX.rt", bv.New(64, 1))
	// Fall-through advances by the encoded size (CBZX's mechanical
	// encoding is wider than 4 bytes).
	if got := inst.Effects[0].T.Eval(env); got.Lo != 0x1000+uint64(inst.Size) {
		t.Errorf("CBZX fall-through pc = %#x, size %d", got.Lo, inst.Size)
	}
	if !inst.HasPCEffect() {
		t.Error("CBZX has no PC effect")
	}
	// Bcond_le taken when Z set.
	inst = tgt.ByName("Bcond_le")
	env = term.NewEnv()
	env.Bind("Bcond_le.imm", bv.New(19, 1))
	env.Bind("Bcond_le.pc", bv.New(64, 0))
	env.Bind("Bcond_le.Z", bv.New(1, 1))
	env.Bind("Bcond_le.N", bv.Zero(1))
	env.Bind("Bcond_le.V", bv.Zero(1))
	if got := inst.Effects[0].T.Eval(env); got.Lo != 1 {
		t.Errorf("Bcond_le taken = %#x", got.Lo)
	}
}

func TestLatencies(t *testing.T) {
	_, tgt := load(t)
	if tgt.ByName("LDRXui").Latency != 3 {
		t.Error("load latency not applied")
	}
	if tgt.ByName("SDIVX").Latency != 12 {
		t.Error("division latency not applied")
	}
	if tgt.ByName("ADDXrr").Latency != 1 {
		t.Error("default latency wrong")
	}
}
