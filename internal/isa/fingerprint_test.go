package isa

import (
	"testing"

	"iselgen/internal/term"
)

const fpSpec = `
inst ADDrr(rn: reg64, rm: reg64) { rd = rn + rm; }
inst SUBrr(rn: reg64, rm: reg64) { rd = rn - rm; }
inst MOVZ(imm: imm16) { rd = zext(imm, 64); }
`

func fingerprints(t *testing.T, b *term.Builder, src string) map[string]string {
	t.Helper()
	tgt, err := LoadTarget(b, "fp", src, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, in := range tgt.Insts {
		if len(in.FP) != 64 {
			t.Fatalf("%s: fingerprint %q", in.Name, in.FP)
		}
		out[in.Name] = in.FP
	}
	return out
}

// Instruction fingerprints are computed at load and identify content:
// they agree across builders with different construction histories and
// across reordering, whitespace and commuted operands, and change only
// for the instruction whose semantics changed.
func TestInstructionFingerprints(t *testing.T) {
	ref := fingerprints(t, term.NewBuilder(), fpSpec)

	busy := term.NewBuilder()
	fingerprints(t, busy, "inst XORrr(rm: reg64, rn: reg64) { rd = rm ^ rn; }\ninst ANDrr(rm: reg64, rn: reg64) { rd = rm & rn; }\n")
	reordered := `
inst MOVZ(imm: imm16) { rd = zext(imm, 64); }
inst   SUBrr(rn: reg64, rm: reg64) { rd = rn - rm; }
inst ADDrr(rn: reg64, rm: reg64) { rd = rm + rn; }
`
	for name, fp := range fingerprints(t, busy, reordered) {
		if ref[name] != fp {
			t.Errorf("%s: fingerprint changed under a content-preserving edit", name)
		}
	}

	edited := fingerprints(t, term.NewBuilder(), `
inst ADDrr(rn: reg64, rm: reg64) { rd = rn + rm; }
inst SUBrr(rn: reg64, rm: reg64) { rd = rm - rn; }
inst MOVZ(imm: imm16) { rd = zext(imm, 64); }
`)
	for name, fp := range edited {
		if changed := fp != ref[name]; changed != (name == "SUBrr") {
			t.Errorf("%s: fingerprint changed = %t", name, changed)
		}
	}
}
