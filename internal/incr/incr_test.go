package incr

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"iselgen/internal/core"
	"iselgen/internal/gmir"
	"iselgen/internal/isa"
	"iselgen/internal/isel"
	"iselgen/internal/pattern"
	"iselgen/internal/rules"
	"iselgen/internal/solver"
	"iselgen/internal/term"
)

// bigSpec generates a 300+-variant spec: 10 selectable ALU instructions
// (5 ops × 2 widths) plus 300 semantically distinct filler variants, the
// shape of a condition-code-expanded production ISA. edit mutates the
// semantics of exactly one instruction (XOR64rr); addMul appends the two
// MULX variants as brand new instructions.
func bigSpec(edit, addMul bool) string {
	var sb strings.Builder
	ops := []struct{ name, expr string }{
		{"ADD", "rn + rm"}, {"SUB", "rn - rm"}, {"AND", "rn & rm"},
		{"OR", "rn | rm"}, {"XOR", "rn ^ rm"}, {"MULX", "rn * rm"},
	}
	for _, w := range []int{32, 64} {
		for _, op := range ops {
			if op.name == "MULX" && !addMul {
				continue
			}
			expr := op.expr
			if edit && op.name == "XOR" && w == 64 {
				expr = "(rn ^ rm) + 1"
			}
			fmt.Fprintf(&sb, "inst %s%drr(rn: reg%d, rm: reg%d) { rd = %s; }\n",
				op.name, w, w, w, expr)
		}
	}
	for _, w := range []int{32, 64} {
		for i := 0; i < 150; i++ {
			fmt.Fprintf(&sb, "inst F%d_%d(rn: reg%d, rm: reg%d) { rd = (rn + %d) ^ rm; }\n",
				w, i, w, w, i+1)
		}
	}
	return sb.String()
}

// bigPatterns is the corpus: the 10 patterns the base spec covers, the 2
// mul patterns it does not (exercising the previously-uncovered path),
// plus the xor patterns.
func bigPatterns() []*pattern.Pattern {
	var out []*pattern.Pattern
	for _, ty := range []gmir.Type{gmir.S32, gmir.S64} {
		for _, op := range []gmir.Opcode{gmir.GAdd, gmir.GSub, gmir.GAnd, gmir.GOr, gmir.GXor, gmir.GMul} {
			t := ty
			out = append(out, pattern.New(pattern.Op(op, t, pattern.Leaf(t), pattern.Leaf(t))))
		}
	}
	return out
}

// bigCfg's verdict store is shared by every synthesis of the package's
// tests, as one store serves a daemon's runs.
var bigCfg = core.Config{TestInputs: 16, MaxSeqLen: 1, Workers: 4, Verdicts: solver.New(0)}

func synthBig(t *testing.T, spec string) (*term.Builder, *isa.Target, *rules.Library, *core.Synthesizer) {
	t.Helper()
	b := term.NewBuilder()
	tgt, err := isa.LoadTarget(b, "big", spec, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	syn := core.New(b, tgt, bigCfg)
	syn.BuildPool()
	lib := rules.NewLibrary("big")
	syn.Synthesize(bigPatterns(), lib)
	return b, tgt, lib, syn
}

// ruleSet computes the builder-independent rule-fingerprint set of a
// library (the persisted line of each rule).
func ruleSet(lib *rules.Library) []string {
	var out []string
	for _, r := range lib.Rules {
		out = append(out, isel.RuleLine(r))
	}
	sort.Strings(out)
	return out
}

// TestIncrementalOneInstructionEdit is the acceptance scenario: edit one
// instruction in a 310-variant spec, resynthesize incrementally, and
// check (a) ≥90% of rules are reused, (b) zero SMT queries were issued,
// (c) the incremental library's rule-fingerprint set is identical to a
// from-scratch resynthesis of the edited spec.
func TestIncrementalOneInstructionEdit(t *testing.T) {
	if n := strings.Count(bigSpec(false, false), "inst "); n < 300 {
		t.Fatalf("spec has %d variants, want 300+", n)
	}
	_, tgt1, lib1, _ := synthBig(t, bigSpec(false, false))
	if lib1.Len() < 10 {
		t.Fatalf("base synthesis produced only %d rules", lib1.Len())
	}
	artifact := isel.SaveLibraryFor(lib1, tgt1)

	// From-scratch reference for the edited spec.
	_, _, lib2, _ := synthBig(t, bigSpec(true, false))

	// Incremental resynthesis in a fresh builder.
	art, err := ParseArtifact(artifact)
	if err != nil {
		t.Fatal(err)
	}
	b3 := term.NewBuilder()
	tgt3, err := isa.LoadTarget(b3, "big", bigSpec(true, false), nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	lib3, rep, err := Resynthesize(b3, tgt3, art, Options{Config: bigCfg, Patterns: bigPatterns()})
	if err != nil {
		t.Fatal(err)
	}

	if got := rep.Delta.Changed; len(got) != 1 || got[0] != "XOR64rr" {
		t.Errorf("delta changed = %v, want [XOR64rr]", got)
	}
	if rep.Delta.Unchanged != 309 {
		t.Errorf("delta unchanged = %d, want 309", rep.Delta.Unchanged)
	}
	if frac := rep.ReusedFraction(); frac < 0.9 {
		t.Errorf("reused %d/%d rules (%.0f%%), want >= 90%%",
			rep.Reused, rep.ArtifactRules, frac*100)
	}
	if rep.SMTQueries != 0 {
		t.Errorf("incremental resynthesis issued %d SMT queries, want 0", rep.SMTQueries)
	}
	if rep.FullPool {
		// The stale pattern does force a full pool here (XOR64rr's rule
		// went stale) — that is expected; assert the counter is honest.
		if rep.Stale == 0 {
			t.Error("full pool built with no stale rules")
		}
	}
	got, want := ruleSet(lib3), ruleSet(lib2)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("incremental library differs from from-scratch:\n-- incremental --\n%s\n-- from scratch --\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestIncrementalAddInstruction: adding instructions covers previously
// uncovered patterns from the reduced pool alone — 100% reuse, no full
// pool, no SMT.
func TestIncrementalAddInstruction(t *testing.T) {
	_, tgt1, lib1, _ := synthBig(t, bigSpec(false, false))
	artifact := isel.SaveLibraryFor(lib1, tgt1)

	_, _, lib2, _ := synthBig(t, bigSpec(false, true))
	if lib2.Len() != lib1.Len()+2 {
		t.Fatalf("adding MULX should add 2 rules: %d -> %d", lib1.Len(), lib2.Len())
	}

	art, err := ParseArtifact(artifact)
	if err != nil {
		t.Fatal(err)
	}
	b3 := term.NewBuilder()
	tgt3, err := isa.LoadTarget(b3, "big", bigSpec(false, true), nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	lib3, rep, err := Resynthesize(b3, tgt3, art, Options{Config: bigCfg, Patterns: bigPatterns()})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reused != lib1.Len() || rep.Stale != 0 {
		t.Errorf("reused %d stale %d, want %d/0", rep.Reused, rep.Stale, lib1.Len())
	}
	if len(rep.Delta.Added) != 2 {
		t.Errorf("delta added = %v, want 2 instructions", rep.Delta.Added)
	}
	if rep.FullPool {
		t.Error("full pool built although no rule went stale")
	}
	if rep.SMTQueries != 0 {
		t.Errorf("SMT queries = %d, want 0", rep.SMTQueries)
	}
	if rep.Resynthesized != 2 {
		t.Errorf("resynthesized = %d, want 2", rep.Resynthesized)
	}
	got, want := ruleSet(lib3), ruleSet(lib2)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("incremental library differs from from-scratch:\n-- incremental --\n%s\n-- from scratch --\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestIncrementalNoOp: an edit that does not change semantics (formatting,
// comments, reordering) reuses everything and synthesizes nothing.
func TestIncrementalNoOp(t *testing.T) {
	base := bigSpec(false, false)
	_, tgt1, lib1, _ := synthBig(t, base)
	artifact := isel.SaveLibraryFor(lib1, tgt1)

	// Reorder instructions and perturb whitespace: content fingerprints
	// hash effect terms, not spec text, so none of this changes identity.
	lines := strings.Split(strings.TrimSpace(base), "\n")
	reordered := append([]string{}, lines[len(lines)/2:]...)
	reordered = append(reordered, lines[:len(lines)/2]...)
	noop := strings.Join(reordered, "\n\n") + "\n"

	art, err := ParseArtifact(artifact)
	if err != nil {
		t.Fatal(err)
	}
	b := term.NewBuilder()
	tgt, err := isa.LoadTarget(b, "big", noop, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	lib, rep, err := Resynthesize(b, tgt, art, Options{Config: bigCfg, Patterns: bigPatterns()})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Delta.Changed)+len(rep.Delta.Added)+len(rep.Delta.Removed) != 0 {
		t.Errorf("no-op edit produced a delta: %+v", rep.Delta)
	}
	if rep.Reused != lib1.Len() || rep.Resynthesized != 0 || rep.SMTQueries != 0 || rep.FullPool {
		t.Errorf("no-op edit did work: %+v", rep)
	}
	if got, want := ruleSet(lib), ruleSet(lib1); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("no-op library differs from the original")
	}
}

func TestDiff(t *testing.T) {
	old := map[string]string{"A": "1", "B": "2", "C": "3"}
	new := map[string]string{"A": "1", "B": "9", "D": "4"}
	d := Diff(old, new)
	if len(d.Added) != 1 || d.Added[0] != "D" ||
		len(d.Removed) != 1 || d.Removed[0] != "C" ||
		len(d.Changed) != 1 || d.Changed[0] != "B" ||
		d.Unchanged != 1 {
		t.Errorf("Diff = %+v", d)
	}
}

func TestParseArtifactProvenance(t *testing.T) {
	_, tgtP, lib, _ := synthBig(t, bigSpec(false, false))
	art, err := ParseArtifact(isel.SaveLibraryFor(lib, tgtP))
	if err != nil {
		t.Fatal(err)
	}
	if len(art.Rules) != lib.Len() {
		t.Fatalf("parsed %d rules, library has %d", len(art.Rules), lib.Len())
	}
	for i, ar := range art.Rules {
		r := lib.Rules[i]
		if ar.PatternKey != r.Pattern.Key() {
			t.Errorf("rule %d: key %q vs %q", i, ar.PatternKey, r.Pattern.Key())
		}
		if ar.Source != r.Source {
			t.Errorf("rule %d: source %q vs %q", i, ar.Source, r.Source)
		}
		if len(ar.Insts) != len(r.Seq.Insts) {
			t.Errorf("rule %d: %d insts vs %d", i, len(ar.Insts), len(r.Seq.Insts))
			continue
		}
		for j, name := range ar.Insts {
			if name != r.Seq.Insts[j].Name {
				t.Errorf("rule %d inst %d: %q vs %q", i, j, name, r.Seq.Insts[j].Name)
			}
		}
		// Every supporting instruction must appear in the header with the
		// fingerprint the rule was stamped with.
		for _, p := range r.Prov {
			if art.InstFPs[p.Name] != p.FP {
				t.Errorf("rule %d: header fp for %s = %q, stamped %q",
					i, p.Name, art.InstFPs[p.Name], p.FP)
			}
		}
	}
}

// TestPreProvenanceArtifact: an artifact with no "#%inst" header (the old
// format) degrades to a full resynthesis — everything stale, nothing
// wrong.
func TestPreProvenanceArtifact(t *testing.T) {
	_, tgt1, lib1, _ := synthBig(t, bigSpec(false, false))
	var stripped []string
	for _, line := range strings.Split(isel.SaveLibraryFor(lib1, tgt1), "\n") {
		if !strings.HasPrefix(line, "#%inst") {
			stripped = append(stripped, line)
		}
	}
	art, err := ParseArtifact(strings.Join(stripped, "\n"))
	if err != nil {
		t.Fatal(err)
	}
	b := term.NewBuilder()
	tgt, err := isa.LoadTarget(b, "big", bigSpec(false, false), nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	lib, rep, err := Resynthesize(b, tgt, art, Options{Config: bigCfg, Patterns: bigPatterns()})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reused != 0 || rep.Stale != lib1.Len() || !rep.FullPool {
		t.Errorf("pre-provenance artifact: %+v, want all stale + full pool", rep)
	}
	if got, want := ruleSet(lib), ruleSet(lib1); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("full fallback differs from original library")
	}
}

// TestReverifyFailedRule: a corrupted-but-provenance-intact rule is never
// served; it is dropped and its pattern resynthesized.
func TestReverifyFailedRule(t *testing.T) {
	_, tgt1, lib1, _ := synthBig(t, bigSpec(false, false))
	// Swap the operand tokens of the first SUB rule: provenance still
	// matches, verification must not.
	text := isel.SaveLibraryFor(lib1, tgt1)
	corrupted := strings.Replace(text, "SUB64rr\tp0 p1", "SUB64rr\tp1 p0", 1)
	if corrupted == text {
		t.Fatal("corruption did not apply; rule line layout changed?")
	}
	art, err := ParseArtifact(corrupted)
	if err != nil {
		t.Fatal(err)
	}
	b := term.NewBuilder()
	tgt, err := isa.LoadTarget(b, "big", bigSpec(false, false), nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	lib, rep, err := Resynthesize(b, tgt, art, Options{Config: bigCfg, Patterns: bigPatterns()})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ReverifyFailed != 1 {
		t.Errorf("reverify failed = %d, want 1", rep.ReverifyFailed)
	}
	if got, want := ruleSet(lib), ruleSet(lib1); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("corrupted rule not healed by resynthesis")
	}
}
