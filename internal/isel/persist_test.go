package isel

import (
	"strings"
	"testing"

	"iselgen/internal/bv"
	"iselgen/internal/gmir"
	"iselgen/internal/isa/aarch64"
	"iselgen/internal/mir"
	"iselgen/internal/pattern"
	"iselgen/internal/sim"
	"iselgen/internal/term"
)

func TestPatternKeyRoundTrip(t *testing.T) {
	pats := []*pattern.Pattern{
		pattern.New(pattern.Op(gmir.GAdd, gmir.S64,
			pattern.Leaf(gmir.S64),
			pattern.Op(gmir.GShl, gmir.S64, pattern.Leaf(gmir.S64), pattern.ImmLeaf(gmir.S64)))),
		pattern.New(&pattern.Node{Op: gmir.GICmp, Ty: gmir.S1, Pred: gmir.PredSLT,
			Args: []*pattern.Node{pattern.Leaf(gmir.S32), pattern.ImmLeaf(gmir.S32)}}),
		pattern.New(pattern.LoadOp(gmir.GSLoad, gmir.S64, 16,
			pattern.Op(gmir.GPtrAdd, gmir.P0, pattern.Leaf(gmir.S64), pattern.ImmLeaf(gmir.S64)))),
		pattern.New(pattern.StoreOp(8, pattern.Leaf(gmir.S32), pattern.Leaf(gmir.P0))),
	}
	for _, p := range pats {
		got, err := pattern.ParseKey(p.Key())
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if got.Key() != p.Key() {
			t.Errorf("roundtrip %q -> %q", p.Key(), got.Key())
		}
	}
	// Malformed keys fail cleanly.
	for _, bad := range []string{"", "(", "(1:64", "x64", "(1:64 r64) junk"} {
		if _, err := pattern.ParseKey(bad); err == nil {
			t.Errorf("no error for %q", bad)
		}
	}
}

func TestLibrarySaveLoadRoundTrip(t *testing.T) {
	b := term.NewBuilder()
	tgt, err := aarch64.Load(b)
	if err != nil {
		t.Fatal(err)
	}
	lib := buildA64Handwritten(b, tgt, true)
	text := SaveLibraryFor(lib, tgt)
	if !strings.Contains(text, "ADDXrs_lsl") {
		t.Fatal("save output incomplete")
	}

	loaded, err := LoadLibrary(b, tgt, text)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != lib.Len() {
		t.Fatalf("loaded %d rules, saved %d", loaded.Len(), lib.Len())
	}
	// The reloaded library must drive selection identically.
	fb := gmir.NewFunc("f")
	x := fb.Param(gmir.S64)
	y := fb.Param(gmir.S64)
	fb.Ret(fb.Add(x, fb.Shl(y, fb.Const(gmir.S64, 3))))
	f := fb.MustFinish()
	bk := &Backend{Name: "loaded", ISA: tgt, Lib: loaded, Hooks: Hooks{
		MatConst:    a64MatConstSmart,
		LowerBrCond: a64LowerBrCond(true),
	}}
	mf, rep := bk.Select(f)
	if rep.Fallback {
		t.Fatalf("fallback: %s", rep.FallbackReason)
	}
	if !strings.Contains(mf.String(), "ADDXrs_lsl") {
		t.Errorf("reloaded rules did not fold:\n%s", mf)
	}
	m := &sim.Machine{}
	res, err := m.Run(mf, []bv.BV{bv.New(64, 5), bv.New(64, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret.Lo != 5+2<<3 {
		t.Errorf("result = %d", res.Ret.Lo)
	}
	_ = mir.PNone
}

func TestLoadLibraryRejectsCorruption(t *testing.T) {
	b := term.NewBuilder()
	tgt, err := aarch64.Load(b)
	if err != nil {
		t.Fatal(err)
	}
	// A rule whose operands are swapped must fail verification on load:
	// SUBXrr with reversed operands computes the wrong difference.
	bad := "(" + "4:64 r64 r64)" + "\tSUBXrr\tp1 p0-oops"
	if _, err := LoadLibrary(b, tgt, bad); err == nil {
		t.Error("corrupted operand token accepted")
	}
	// Semantically wrong but syntactically valid: pattern says ADD (op 2),
	// sequence is SUBXrr.
	addKey := pattern.New(pattern.Op(gmir.GAdd, gmir.S64,
		pattern.Leaf(gmir.S64), pattern.Leaf(gmir.S64))).Key()
	wrong := addKey + "\tSUBXrr\tp0 p1"
	if _, err := LoadLibrary(b, tgt, wrong); err == nil {
		t.Error("semantically wrong rule accepted (verification skipped?)")
	}
}
