package isa

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strings"

	"iselgen/internal/term"
)

// Fingerprint is the content-addressed identity of its parts: the
// SHA-256 over each part, length-prefixed, hex-encoded. It keys
// instructions (instFingerprint), loaded specs (core.SpecFingerprint)
// and rule libraries (the daemon's cache key: §VI-A makes libraries
// persistable artifacts, and the fingerprint is what makes
// re-synthesis avoidable). The length prefix keeps concatenation
// ambiguity ("ab","c" vs "a","bc") from aliasing two input sets.
func Fingerprint(parts ...string) string {
	h := sha256.New()
	var n [8]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write([]byte(p))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// instFingerprint computes the content identity of one instruction: the
// hash over its name, operand signature, and *symbolically executed*
// effect terms. Hashing the effect terms rather than the spec text makes
// whitespace, comment, and instruction-reordering edits free — only a
// semantic change to the instruction produces a new fingerprint.
func instFingerprint(in *Instruction) string {
	parts := []string{"inst", in.Name}
	for _, op := range in.Operands {
		parts = append(parts, fmt.Sprintf("op|%s|%d|%d", op.Name, op.Kind, op.Width))
	}
	for _, e := range in.Effects {
		parts = append(parts, fmt.Sprintf("eff|%d|%s|%s", e.Kind, e.Dest, canonRender(e.T)))
	}
	return Fingerprint(parts...)
}

// canonRender renders a term like term.Term.String but sorts the operands
// of commutative operations lexicographically by their rendering. The
// builder orders commutative operands by hash-cons ID, which depends on
// construction history — two builders loading the same spec after
// different preceding work would disagree. Fingerprints must identify
// *content*, so the rendering has to be builder-independent.
func canonRender(t *term.Term) string {
	switch t.Op {
	case term.Const:
		return t.CVal.String()
	case term.Var:
		return t.Name
	case term.Extract:
		return fmt.Sprintf("((_ extract %d %d) %s)", t.Aux0, t.Aux1, canonRender(t.Args[0]))
	case term.ZExt, term.SExt:
		return fmt.Sprintf("((_ %s %d) %s)", t.Op, t.W()-t.Args[0].W(), canonRender(t.Args[0]))
	case term.Load:
		return fmt.Sprintf("(load%d %s)", t.Aux0, canonRender(t.Args[0]))
	case term.Store:
		return fmt.Sprintf("(store%d %s %s)", t.Aux0, canonRender(t.Args[0]), canonRender(t.Args[1]))
	default:
		args := make([]string, len(t.Args))
		for i, a := range t.Args {
			args[i] = canonRender(a)
		}
		if t.Op.IsCommutative() && len(args) == 2 && args[1] < args[0] {
			args[0], args[1] = args[1], args[0]
		}
		return "(" + t.Op.String() + " " + strings.Join(args, " ") + ")"
	}
}
