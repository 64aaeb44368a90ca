package isel

import (
	"strings"
	"testing"

	"iselgen/internal/core"
	"iselgen/internal/gmir"
	"iselgen/internal/isa"
	"iselgen/internal/isa/aarch64"
	"iselgen/internal/isa/riscv"
	"iselgen/internal/isa/x86"
	"iselgen/internal/pattern"
	"iselgen/internal/rules"
	"iselgen/internal/solver"
	"iselgen/internal/term"
)

// The disk layer of the service cache depends on Save → Load → Save
// being byte-identical (a re-persisted artifact must not churn) and on
// every reloaded rule passing verification. Exercised for all three
// targets.

func checkRoundTrip(t *testing.T, b *term.Builder, tgt *isa.Target, lib *rules.Library) {
	t.Helper()
	if lib.Len() == 0 {
		t.Fatal("empty library, nothing round-trips")
	}
	text := SaveLibrary(lib)
	loaded, err := LoadLibrary(b, tgt, text)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if loaded.Len() != lib.Len() {
		t.Fatalf("loaded %d rules, saved %d", loaded.Len(), lib.Len())
	}
	again := SaveLibrary(loaded)
	if again != text {
		t.Errorf("re-emit not byte-identical:\n--- first ---\n%s\n--- second ---\n%s", text, again)
	}
	for _, r := range loaded.Rules {
		if err := VerifyRule(b, r); err != nil {
			t.Errorf("reloaded rule %s does not verify: %v", r.Seq, err)
		}
	}
}

func TestRoundTripAArch64(t *testing.T) {
	b := term.NewBuilder()
	tgt, err := aarch64.Load(b)
	if err != nil {
		t.Fatal(err)
	}
	checkRoundTrip(t, b, tgt, buildA64Handwritten(b, tgt, true))
}

func TestRoundTripRISCV(t *testing.T) {
	b := term.NewBuilder()
	tgt, err := riscv.Load(b)
	if err != nil {
		t.Fatal(err)
	}
	checkRoundTrip(t, b, tgt, buildRVHandwritten(b, tgt, true))
}

// TestRoundTripX86 uses a synthesized library (x86 has no handwritten
// one), so SMT-sourced rules with immediate constraints and fixed
// constants go through the round-trip too.
func TestRoundTripX86(t *testing.T) {
	b := term.NewBuilder()
	tgt, err := x86.Load(b)
	if err != nil {
		t.Fatal(err)
	}
	synth := core.New(b, tgt, core.Config{TestInputs: 32, Workers: 2, Verdicts: solver.New(0)})
	synth.BuildPool()
	r32 := func() *pattern.Node { return pattern.Leaf(gmir.S32) }
	i32 := func() *pattern.Node { return pattern.ImmLeaf(gmir.S32) }
	pats := []*pattern.Pattern{
		pattern.New(pattern.Op(gmir.GAdd, gmir.S32, r32(), r32())),
		pattern.New(pattern.Op(gmir.GAdd, gmir.S32, r32(), i32())),
		pattern.New(pattern.Op(gmir.GSub, gmir.S32, r32(), r32())),
		pattern.New(pattern.Op(gmir.GAnd, gmir.S32, r32(), i32())),
		pattern.New(pattern.Op(gmir.GXor, gmir.S32, r32(), r32())),
		pattern.New(pattern.Op(gmir.GShl, gmir.S32, r32(), i32())),
		pattern.New(pattern.Op(gmir.GAdd, gmir.S32, r32(),
			pattern.Op(gmir.GShl, gmir.S32, r32(), i32()))),
		pattern.New(pattern.Op(gmir.GOr, gmir.S32, r32(),
			pattern.Op(gmir.GXor, gmir.S32, r32(), i32()))),
	}
	lib := rules.NewLibrary("x86")
	synth.Synthesize(pats, lib)
	checkRoundTrip(t, b, tgt, lib)
}

// Artifacts saved while libraries were ranked by a cost table carry a
// "cost:<lat>,<sz>" field on every rule line. They must still load, and
// re-saving one must drop the field, reproducing the cost-less artifact.
func TestRoundTripCostAnnotated(t *testing.T) {
	b := term.NewBuilder()
	tgt, err := aarch64.Load(b)
	if err != nil {
		t.Fatal(err)
	}
	lib := buildA64Handwritten(b, tgt, true)
	plain := SaveLibrary(lib)
	lines := strings.Split(plain, "\n")
	for i, l := range lines {
		if l != "" && !strings.HasPrefix(l, "#") {
			cut := strings.LastIndex(l, "\t")
			lines[i] = l[:cut] + "\tcost:3,8" + l[cut:]
		}
	}
	old := strings.Join(lines, "\n")
	if old == plain {
		t.Fatal("no rule line to annotate")
	}
	loaded, err := LoadLibrary(b, tgt, old)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != lib.Len() {
		t.Fatalf("loaded %d rules, saved %d", loaded.Len(), lib.Len())
	}
	if got := SaveLibrary(loaded); got != plain {
		t.Errorf("re-saving a cost-annotated artifact kept the field or changed it:\n%s", got)
	}
}

// Cost-less artifacts load unchanged (no error, no churn on re-save).
func TestLegacyLinesLoadWithoutCost(t *testing.T) {
	b := term.NewBuilder()
	tgt, err := aarch64.Load(b)
	if err != nil {
		t.Fatal(err)
	}
	lib := buildA64Handwritten(b, tgt, true)
	text := SaveLibrary(lib)
	if strings.Contains(text, "cost:") {
		t.Fatal("a saved library must not emit cost fields")
	}
	checkRoundTrip(t, b, tgt, lib)
	// A malformed cost field is a load error, not a silent fallback.
	var line string
	for _, l := range strings.Split(text, "\n") {
		if l != "" && !strings.HasPrefix(l, "#") {
			line = l
			break
		}
	}
	fields := strings.Split(line, "\t")
	bad := strings.Join(append(fields[:len(fields)-1], "cost:banana", fields[len(fields)-1]), "\t")
	if _, err := LoadRule(b, tgt, bad); err == nil {
		t.Error("malformed cost field loaded without error")
	}
}
