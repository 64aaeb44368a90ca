package cost

import (
	"strings"
	"testing"

	"iselgen/internal/isa"
	"iselgen/internal/isa/aarch64"
	"iselgen/internal/mir"
	"iselgen/internal/term"
)

func TestVectorOrdering(t *testing.T) {
	a := Vector{Latency: 2, Size: 16}
	b := Vector{Latency: 3, Size: 4}
	if !a.Less(b) {
		t.Errorf("latency must dominate: %v < %v", a, b)
	}
	c := Vector{Latency: 2, Size: 8}
	if !c.Less(a) || a.Less(c) {
		t.Errorf("size must break latency ties: %v < %v", c, a)
	}
	if (Vector{}).IsZero() != true || a.IsZero() {
		t.Error("IsZero misclassifies")
	}
	if got := a.Add(b); got != (Vector{Latency: 5, Size: 20}) {
		t.Errorf("Add = %v", got)
	}
}

func TestVectorStringRoundTrip(t *testing.T) {
	v := Vector{Latency: 12, Size: 8}
	got, err := ParseVector(v.String())
	if err != nil || got != v {
		t.Fatalf("ParseVector(%q) = %v, %v", v.String(), got, err)
	}
	for _, bad := range []string{"", "3", "a,b", "-1,4"} {
		if _, err := ParseVector(bad); err == nil {
			t.Errorf("ParseVector(%q) accepted", bad)
		}
	}
}

func TestVersionDistinguishesTables(t *testing.T) {
	a := NewTable("demo")
	b := NewTable("demo")
	if a.Version() != b.Version() {
		t.Fatal("equal tables must share a version")
	}
	b.Latency["MUL"] = 3
	if a.Version() == b.Version() {
		t.Fatal("distinct tables must have distinct versions")
	}
	var nilT *Table
	if nilT.Version() != "-" {
		t.Fatal("nil table version sentinel")
	}
}

func TestFromTargetMatchesSim(t *testing.T) {
	b := term.NewBuilder()
	tgt, err := aarch64.Load(b)
	if err != nil {
		t.Fatal(err)
	}
	tb := FromTarget(tgt)
	for _, in := range tgt.Insts {
		if got := tb.LatencyOf(in.Name); got != in.Latency {
			t.Errorf("%s latency %d, want %d", in.Name, got, in.Latency)
		}
		if got := tb.SizeOf(in.Name); got != in.Size {
			t.Errorf("%s size %d, want %d", in.Name, got, in.Size)
		}
	}
	if tb.LatencyOf("MULX") <= 1 {
		t.Error("expected a multi-cycle multiply in the aarch64 table")
	}
}

func TestSeqVector(t *testing.T) {
	b := term.NewBuilder()
	tgt, err := aarch64.Load(b)
	if err != nil {
		t.Fatal(err)
	}
	tb := FromTarget(tgt)
	add := tgt.ByName("ADDXrr")
	mul := tgt.ByName("MULX")
	if add == nil || mul == nil {
		t.Skip("expected instructions missing")
	}
	seq := isa.Single(b, mul)
	s2, err := isa.Append(b, seq, add, []string{"rn"}, false)
	if err != nil {
		t.Fatal(err)
	}
	want := Vector{
		Latency: int64(tb.LatencyOf("MULX") + tb.LatencyOf("ADDXrr")),
		Size:    int64(tb.SizeOf("MULX") + tb.SizeOf("ADDXrr")),
	}
	if got := tb.SeqVector(s2); got != want {
		t.Errorf("SeqVector = %v, want %v", got, want)
	}
}

func TestStaticOfAndPseudo(t *testing.T) {
	b := term.NewBuilder()
	tgt, err := aarch64.Load(b)
	if err != nil {
		t.Fatal(err)
	}
	tb := FromTarget(tgt)
	mul := tgt.ByName("MULX")
	f := &mir.Func{Name: "t", Blocks: []*mir.Block{{Insts: []*mir.Inst{
		{Meta: mul},
		{Pseudo: mir.PCopy},
	}}}}
	want := Vector{
		Latency: int64(tb.LatencyOf("MULX")) + Pseudo.Latency,
		Size:    int64(tb.SizeOf("MULX")) + Pseudo.Size,
	}
	if got := StaticOf(f, tb); got != want {
		t.Errorf("StaticOf = %v, want %v", got, want)
	}
	// Legacy accounting (nil table) agrees with FromTarget on this
	// function, since the table was derived from the same metadata.
	if got := StaticOf(f, nil); got != want {
		t.Errorf("StaticOf(nil) = %v, want %v", got, want)
	}
	if strings.Contains(tb.Format(), "default latency=1 size=4") == false {
		t.Error("defaults missing from Format")
	}
}
