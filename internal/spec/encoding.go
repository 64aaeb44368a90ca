package spec

// Machine-encoding clauses: the spec DSL extension that makes one
// specification yield the assembler, disassembler, and machine-code
// emulator alongside the compiler back-end (the LinxISA flow). Each
// instruction may declare
//
//	inst ADDI(rs1: reg64, imm: imm12) { rd = rs1 + sext(imm, 64); }
//	  enc(32) {
//	    [6:0]   = 0x13;   // fixed opcode bits
//	    [11:7]  = rd;     // destination register number
//	    [14:12] = 0;      // funct3
//	    [19:15] = rs1;    // source register number
//	    [31:20] = imm;    // immediate value
//	  }
//
// Field destinations are bit ranges of the instruction word (bit 0 is
// the least-significant bit of the first byte; words are little-endian
// on the wire). A field value is either a constant (fixed bits), a
// register operand or `rd`/`rd2` (the register *number*, so the field
// may be narrower than the register), or an immediate operand. Split
// immediate fields — RISC-V's scrambled store and branch offsets — use
// source slices: `[31:25] = imm[11:5]; [11:7] = imm[4:0];`. Immediate
// coverage must be exact: every bit of the operand appears in exactly
// one field, which makes encode/decode a bijection on operand values.
//
// Top-level `reserved(32) { [6:0] = 0x73; }` declarations mark opcode
// space that must stay undecodable; the decoder reports such words as
// reserved rather than unknown, and spec checking rejects instruction
// encodings that stray into them.

import (
	"fmt"
	"sort"

	"iselgen/internal/term"
)

// EncField is one field of an encoding clause.
type EncField struct {
	Hi, Lo int // destination bit range in the instruction word, inclusive
	// Fixed fields carry constant bits.
	Fixed bool
	Val   uint64
	// Operand fields name an operand, "rd", or "rd2"; for immediates an
	// optional source slice [SrcHi:SrcLo] of the operand value (both -1
	// when the whole operand is meant).
	Name         string
	SrcHi, SrcLo int
	Line         int
}

// SrcWidth returns the number of operand bits this field carries.
func (f *EncField) SrcWidth() int { return f.Hi - f.Lo + 1 }

// Encoding is one instruction's (or one reserved pattern's) encoding.
type Encoding struct {
	Width  int // instruction word width in bits (multiple of 8)
	Fields []EncField
	Line   int
}

// SizeBytes returns the encoded size in bytes.
func (e *Encoding) SizeBytes() int { return e.Width / 8 }

// FixedMaskVal renders the fixed bits as mask/value words (two uint64s
// cover the 128-bit maximum width; word 0 holds bits 0..63).
func (e *Encoding) FixedMaskVal() (mask, val [2]uint64) {
	for _, f := range e.Fields {
		if !f.Fixed {
			continue
		}
		for b := f.Lo; b <= f.Hi; b++ {
			w, s := b/64, uint(b%64)
			mask[w] |= 1 << s
			if f.Val>>(uint(b-f.Lo))&1 == 1 {
				val[w] |= 1 << s
			}
		}
	}
	return mask, val
}

// validateEncoding performs the structural checks that need no
// symbolic semantics: range bounds, overlap, fixed-value fit, operand
// existence, slice discipline, and (for instruction encodings) exact
// immediate coverage plus full word coverage. Reserved patterns pass
// inst == nil and may leave bits unassigned (they are match patterns).
func validateEncoding(inst *InstDef, e *Encoding) error {
	ctx := "reserved"
	if inst != nil {
		ctx = inst.Name
	}
	errf := func(line int, format string, args ...any) error {
		return fmt.Errorf("spec:%d: %s: %s", line, ctx, fmt.Sprintf(format, args...))
	}
	if e.Width < 8 || e.Width > 128 || e.Width%8 != 0 {
		return errf(e.Line, "encoding width %d out of range (8..128, multiple of 8)", e.Width)
	}
	if len(e.Fields) == 0 {
		return errf(e.Line, "empty encoding")
	}
	used := make([]int, e.Width) // 1-based field index occupying each bit
	// Per-operand source-bit coverage.
	type cov struct {
		op   *Operand
		bits []int
	}
	covs := map[string]*cov{}
	findOp := func(name string) *Operand {
		if inst == nil {
			return nil
		}
		for i := range inst.Operands {
			if inst.Operands[i].Name == name {
				return &inst.Operands[i]
			}
		}
		return nil
	}
	for fi := range e.Fields {
		f := &e.Fields[fi]
		if f.Lo < 0 || f.Hi < f.Lo || f.Hi >= e.Width {
			return errf(f.Line, "field range [%d:%d] outside %d-bit word", f.Hi, f.Lo, e.Width)
		}
		if f.SrcWidth() > 64 {
			return errf(f.Line, "field [%d:%d] wider than 64 bits; split it", f.Hi, f.Lo)
		}
		for b := f.Lo; b <= f.Hi; b++ {
			if used[b] != 0 {
				return errf(f.Line, "bit %d assigned twice (fields %d and %d)", b, used[b], fi+1)
			}
			used[b] = fi + 1
		}
		if f.Fixed {
			if w := f.SrcWidth(); w < 64 && f.Val >= 1<<uint(w) {
				return errf(f.Line, "fixed value %#x does not fit %d bits", f.Val, w)
			}
			continue
		}
		if inst == nil {
			return errf(f.Line, "reserved patterns may only fix bits")
		}
		switch f.Name {
		case "rd", "rd2":
			if f.SrcHi >= 0 {
				return errf(f.Line, "%s takes no source slice", f.Name)
			}
			if f.SrcWidth() > 8 {
				return errf(f.Line, "register-number field [%d:%d] wider than 8 bits", f.Hi, f.Lo)
			}
			if c, ok := covs[f.Name]; ok && c != nil {
				return errf(f.Line, "duplicate %s field", f.Name)
			}
			covs[f.Name] = &cov{}
			continue
		}
		op := findOp(f.Name)
		if op == nil {
			return errf(f.Line, "unknown field %q (operands, rd, rd2, or a constant)", f.Name)
		}
		if op.Kind == OpImm {
			srcHi, srcLo := f.SrcHi, f.SrcLo
			if srcHi < 0 {
				srcHi, srcLo = op.Width-1, 0
			}
			if srcLo < 0 || srcHi < srcLo || srcHi >= op.Width {
				return errf(f.Line, "slice %s[%d:%d] outside %d-bit operand", f.Name, srcHi, srcLo, op.Width)
			}
			if srcHi-srcLo != f.Hi-f.Lo {
				return errf(f.Line, "slice %s[%d:%d] is %d bits, field [%d:%d] is %d",
					f.Name, srcHi, srcLo, srcHi-srcLo+1, f.Hi, f.Lo, f.SrcWidth())
			}
			c := covs[f.Name]
			if c == nil {
				c = &cov{op: op, bits: make([]int, op.Width)}
				covs[f.Name] = c
			}
			for b := srcLo; b <= srcHi; b++ {
				if c.bits[b] != 0 {
					return errf(f.Line, "operand bit %s[%d] encoded twice", f.Name, b)
				}
				c.bits[b] = fi + 1
			}
		} else {
			// Register operands encode their register number.
			if f.SrcHi >= 0 {
				return errf(f.Line, "register operand %s takes no source slice", f.Name)
			}
			if f.SrcWidth() > 8 {
				return errf(f.Line, "register-number field [%d:%d] wider than 8 bits", f.Hi, f.Lo)
			}
			if _, ok := covs[f.Name]; ok {
				return errf(f.Line, "duplicate field for operand %s", f.Name)
			}
			covs[f.Name] = &cov{op: op}
		}
	}
	if inst == nil {
		return nil
	}
	// Full word coverage: machine words have no unspecified bits.
	for b, fi := range used {
		if fi == 0 {
			return errf(e.Line, "bit %d of the %d-bit word is unassigned (fix it or encode an operand)", b, e.Width)
		}
	}
	// Every operand encoded; immediates exactly once per bit.
	for i := range inst.Operands {
		op := &inst.Operands[i]
		c, ok := covs[op.Name]
		if !ok {
			return errf(e.Line, "operand %s is not encoded", op.Name)
		}
		if op.Kind == OpImm {
			for b := 0; b < op.Width; b++ {
				if c.bits[b] == 0 {
					return errf(e.Line, "operand bit %s[%d] is not encoded (immediate coverage must be exact)", op.Name, b)
				}
			}
		}
	}
	return nil
}

// hasEffect reports whether the semantics write the given register
// destination ("rd"/"rd2").
func hasEffect(sem *Sem, dest string) bool {
	for _, e := range sem.Effects {
		if e.Kind == EffReg && e.Dest == dest {
			return true
		}
	}
	return false
}

// checkEncodingSemantics cross-checks one encoding against the
// instruction's symbolized effects: an `rd` field must exist exactly
// when the semantics write rd (and likewise rd2).
func checkEncodingSemantics(inst *InstDef, sem *Sem) error {
	e := inst.Enc
	fieldFor := func(name string) bool {
		for _, f := range e.Fields {
			if !f.Fixed && f.Name == name {
				return true
			}
		}
		return false
	}
	for _, dest := range []string{"rd", "rd2"} {
		writes := hasEffect(sem, dest)
		has := fieldFor(dest)
		if writes && !has {
			return fmt.Errorf("spec:%d: %s: semantics write %s but the encoding has no %s field",
				e.Line, inst.Name, dest, dest)
		}
		if has && !writes {
			return fmt.Errorf("spec:%d: %s: encoding has an %s field but the semantics never write %s",
				e.Line, inst.Name, dest, dest)
		}
	}
	return nil
}

// conflict reports whether two fixed-bit patterns disagree somewhere in
// the first `bits` bits — the condition for no word matching both.
func conflict(maskA, valA, maskB, valB [2]uint64, bits int) bool {
	var region [2]uint64
	switch {
	case bits >= 128:
		region = [2]uint64{^uint64(0), ^uint64(0)}
	case bits > 64:
		region = [2]uint64{^uint64(0), 1<<uint(bits-64) - 1}
	default:
		region = [2]uint64{1<<uint(bits) - 1, 0}
	}
	for w := 0; w < 2; w++ {
		if maskA[w]&maskB[w]&region[w]&(valA[w]^valB[w]) != 0 {
			return true
		}
	}
	return false
}

// CheckEncodings validates every encoding clause in the file: per
// instruction structurally and against its semantics, then the
// file-wide opcode space — every pair of encoded instructions must
// disagree in at least one commonly fixed bit of their common prefix
// (so no byte sequence decodes two ways, across lengths too), all
// register-number fields must agree on width (one register file), and
// no instruction may stray into reserved opcode space. sems parallels
// f.Insts.
func CheckEncodings(f *File, sems []*Sem) error {
	type encoded struct {
		inst      *InstDef
		mask, val [2]uint64
	}
	var encs []encoded
	regBits := 0
	for i, inst := range f.Insts {
		if inst.Enc == nil {
			continue
		}
		if err := validateEncoding(inst, inst.Enc); err != nil {
			return err
		}
		if sems != nil {
			if err := checkEncodingSemantics(inst, sems[i]); err != nil {
				return err
			}
		}
		for _, fld := range inst.Enc.Fields {
			if fld.Fixed {
				continue
			}
			isReg := fld.Name == "rd" || fld.Name == "rd2"
			for _, op := range inst.Operands {
				if op.Name == fld.Name && op.Kind != OpImm {
					isReg = true
				}
			}
			if !isReg {
				continue
			}
			if regBits == 0 {
				regBits = fld.SrcWidth()
			} else if fld.SrcWidth() != regBits {
				return fmt.Errorf("spec:%d: %s: register field [%d:%d] is %d bits but the file uses %d-bit register numbers",
					fld.Line, inst.Name, fld.Hi, fld.Lo, fld.SrcWidth(), regBits)
			}
		}
		mask, val := inst.Enc.FixedMaskVal()
		encs = append(encs, encoded{inst: inst, mask: mask, val: val})
	}
	for _, r := range f.Reserved {
		if err := validateEncoding(nil, r); err != nil {
			return err
		}
	}
	// Pairwise decode-ambiguity check over the common prefix.
	for i := 0; i < len(encs); i++ {
		for j := i + 1; j < len(encs); j++ {
			a, b := encs[i], encs[j]
			bits := a.inst.Enc.Width
			if b.inst.Enc.Width < bits {
				bits = b.inst.Enc.Width
			}
			if !conflict(a.mask, a.val, b.mask, b.val, bits) {
				return fmt.Errorf("spec:%d: ambiguous encodings: %s and %s share no conflicting fixed bit in their first %d bits",
					b.inst.Enc.Line, a.inst.Name, b.inst.Name, bits)
			}
		}
		for _, r := range f.Reserved {
			rm, rv := r.FixedMaskVal()
			bits := encs[i].inst.Enc.Width
			if r.Width < bits {
				bits = r.Width
			}
			if !conflict(encs[i].mask, encs[i].val, rm, rv, bits) {
				return fmt.Errorf("spec:%d: %s overlaps reserved encoding declared at line %d",
					encs[i].inst.Enc.Line, encs[i].inst.Name, r.Line)
			}
		}
	}
	return nil
}

// RegNumBits returns the register-number field width used by the file's
// encodings (0 when no encoding carries a register field). Call after
// CheckEncodings, which enforces uniformity.
func RegNumBits(f *File) int {
	for _, inst := range f.Insts {
		if inst.Enc == nil {
			continue
		}
		for _, fld := range inst.Enc.Fields {
			if fld.Fixed {
				continue
			}
			if fld.Name == "rd" || fld.Name == "rd2" {
				return fld.SrcWidth()
			}
			for _, op := range inst.Operands {
				if op.Name == fld.Name && op.Kind != OpImm {
					return fld.SrcWidth()
				}
			}
		}
	}
	return 0
}

// SignedImms infers display signedness for immediate operands from the
// semantics: an immediate consumed under sign-extension (directly or
// through the low-zero concat of scaled branch offsets) disassembles as
// a signed value. Purely presentational — round-tripping never depends
// on it.
func SignedImms(sem *Sem) map[string]bool {
	signed := map[string]bool{}
	immVar := map[string]string{} // term var name -> operand name
	for _, op := range sem.Operands {
		if op.Kind == OpImm {
			immVar[sem.Prefix+op.Name] = op.Name
		}
	}
	var walk func(t *term.Term, underSext bool)
	seen := map[*term.Term]bool{}
	walk = func(t *term.Term, underSext bool) {
		if t == nil {
			return
		}
		// Memoize only the non-signed traversal; the signed one is rare
		// and must be able to re-visit shared subterms.
		if !underSext {
			if seen[t] {
				return
			}
			seen[t] = true
		}
		if t.Op == term.Var && underSext {
			if op, ok := immVar[t.Name]; ok {
				signed[op] = true
			}
		}
		for _, a := range t.Args {
			walk(a, underSext || t.Op == term.SExt)
		}
	}
	for _, e := range sem.Effects {
		walk(e.T, false)
	}
	// Deterministic iteration for callers that render.
	keys := make([]string, 0, len(signed))
	for k := range signed {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make(map[string]bool, len(keys))
	for _, k := range keys {
		out[k] = true
	}
	return out
}
