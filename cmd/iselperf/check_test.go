package main

import (
	"encoding/json"
	"io"
	"strings"
	"testing"

	"iselgen/internal/bv"
)

func TestParseBVRoundTrips(t *testing.T) {
	for _, v := range []bv.BV{
		bv.New(64, 0xd3a72eed6bafd391),
		bv.New(32, 7),
		bv.New(1, 1),
		bv.New(7, 0x55),
		bv.New128(128, 0x0123456789abcdef, 0xfedcba9876543210),
	} {
		got, err := parseBV(v.String())
		if err != nil || got != v {
			t.Errorf("parseBV(%q) = %v, %v; want %v", v.String(), got, err, v)
		}
	}
	for _, bad := range []string{"", "12", "#x", "#xzz", "#b102"} {
		if _, err := parseBV(bad); err == nil {
			t.Errorf("parseBV(%q) accepted a malformed literal", bad)
		}
	}
}

// flip changes one hex digit of a checksum.
func flip(sum string) string {
	last := sum[len(sum)-1]
	repl := byte('0')
	if last == '0' {
		repl = '1'
	}
	return sum[:len(sum)-1] + string(repl)
}

// A served checksum that disagrees with the interpreter makes the run
// incorrect, and an incorrect run exits nonzero.
func TestFlippedServedChecksumFailsTheRun(t *testing.T) {
	progs := genPrograms(7, checkEvery)
	want, err := interpret(progs[0], vectorSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	answer := func(sum string) []byte {
		b, _ := json.Marshal(selectAnswer{Checksum: sum, RuleInsts: 1})
		return b
	}
	reads := []sample{{idx: 0, body: answer(want.String())}}
	for i := 1; i < checkEvery; i++ {
		reads = append(reads, sample{idx: i, body: answer("#x0")}) // off the stride: not checked
	}

	r := &runner{seed: 7, rec: &record{}, env: env{log: io.Discard}}
	r.checkReads(progs, reads)
	if len(r.rec.Problems) != 0 {
		t.Fatalf("correct checksum flagged: %v", r.rec.Problems)
	}

	reads[0].body = answer(flip(want.String()))
	r.checkReads(progs, reads)
	if len(r.rec.Problems) != 1 || !strings.Contains(r.rec.Problems[0], "interpreter") {
		t.Fatalf("flipped checksum not caught: %v", r.rec.Problems)
	}
	r.rec.Correct = len(r.rec.Problems) == 0
	if res := resultLine(r.rec); res.Correct {
		t.Error("the result line reports a run with a wrong answer as correct")
	}
}

func TestFallbacksAreCountedNotChecked(t *testing.T) {
	progs := genPrograms(3, 4)
	b, _ := json.Marshal(selectAnswer{Fallback: true})
	r := &runner{seed: 3, rec: &record{}, env: env{log: io.Discard}}
	if n := r.checkReads(progs, []sample{{idx: 0, body: b}, {idx: 1, body: b}}); n != 2 || len(r.rec.Problems) != 0 {
		t.Errorf("fallbacks = %d with problems %v, want 2 and none", n, r.rec.Problems)
	}
}

func TestEditsAreDistinctAndChangeOneInstruction(t *testing.T) {
	a, b := editSpec(1, 0), editSpec(1, 1)
	if a == b || a == editSpec(2, 0) {
		t.Error("edits must be distinct across edits and seeds, or they would hit the cache")
	}
	if strings.Contains(a, editAnchor) || !strings.Contains(a, "rs1 - rs2 - ") {
		t.Error("edit did not rewrite the anchored instruction")
	}
}
