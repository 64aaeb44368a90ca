// Package aarch64 defines the AArch64 integer (plus 64-bit Neon vector)
// instruction subset used by the reproduction, written in the spec DSL.
//
// Following the paper (§IV-A), instruction attributes are expanded into
// separate instruction variants: every condition code of CSEL/CSINC/
// CSINV/CSNEG/B.cond/CSET becomes its own instruction, and W (32-bit)
// and X (64-bit) register forms are distinct instructions. Logical
// immediates and MOVN use the paper's §V-D1 workaround: the complex
// bitmask encoding is replaced by an explicit auxiliary immediate whose
// encodability the emitter checks.
package aarch64

import (
	"fmt"
	"strings"

	"iselgen/internal/isa"
	"iselgen/internal/spec"
	"iselgen/internal/term"
)

// conds maps AArch64 condition names to flag expressions in the DSL.
var conds = []struct{ name, expr string }{
	{"eq", "flags.Z"},
	{"ne", "!flags.Z"},
	{"hs", "flags.C"},
	{"lo", "!flags.C"},
	{"hi", "flags.C & !flags.Z"},
	{"ls", "!flags.C | flags.Z"},
	{"ge", "flags.N == flags.V"},
	{"lt", "flags.N != flags.V"},
	{"gt", "!flags.Z & (flags.N == flags.V)"},
	{"le", "flags.Z | (flags.N != flags.V)"},
}

// widths expands W/X forms.
var widths = []struct {
	suffix string
	bits   int
}{
	{"W", 32},
	{"X", 64},
}

// bodyWrites reports whether a statement list (transitively) assigns
// rd / rd2.
func bodyWrites(stmts []spec.Stmt) (rd, rd2 bool) {
	for _, s := range stmts {
		switch st := s.(type) {
		case *spec.AssignStmt:
			if st.Target == "rd" {
				rd = true
			}
			if st.Target == "rd2" {
				rd2 = true
			}
		case *spec.IfStmt:
			for _, blk := range [][]spec.Stmt{st.Then, st.Else} {
				r, r2 := bodyWrites(blk)
				rd = rd || r
				rd2 = rd2 || r2
			}
		}
	}
	return rd, rd2
}

// autoEnc computes a mechanical encoding clause for one instruction
// definition: a 9-bit opcode in bits [8:0] (the decoder's common
// discriminator across all word sizes), then the destination register
// number, then each operand packed in declaration order (5-bit register
// numbers, full-width immediates), zero-filled up to the next byte
// boundary. The result is not the architectural AArch64 encoding — the
// paper's pipeline only needs encodings that are *derived from the
// spec* and unambiguous, and a mechanical allocation keeps the several
// hundred expanded variants manageable. Word sizes consequently vary
// (2..11 bytes) with the operand payload, which also exercises the
// variable-length paths of the assembler and decoder.
func autoEnc(instSrc string, opcode int) string {
	f, err := spec.Parse(instSrc)
	if err != nil || len(f.Insts) != 1 {
		panic(fmt.Sprintf("aarch64 generator produced unparsable instruction: %v\n%s", err, instSrc))
	}
	def := f.Insts[0]
	var fields []string
	p := 9
	field := func(bits int, name string) {
		fields = append(fields, fmt.Sprintf("[%d:%d]=%s", p+bits-1, p, name))
		p += bits
	}
	writesRd, writesRd2 := bodyWrites(def.Body)
	if writesRd {
		field(5, "rd")
	}
	if writesRd2 {
		field(5, "rd2")
	}
	for _, op := range def.Operands {
		if op.Kind == spec.OpImm {
			field(op.Width, op.Name)
		} else {
			field(5, op.Name)
		}
	}
	width := (p + 7) / 8 * 8
	if p < width {
		fields = append(fields, fmt.Sprintf("[%d:%d]=0", width-1, p))
	}
	return fmt.Sprintf("enc(%d) { [8:0]=0x%03x; %s; }", width, opcode, strings.Join(fields, "; "))
}

// Spec returns the full specification source.
func Spec() string {
	var sb strings.Builder
	opcode := 0
	w := func(format string, args ...any) {
		inst := fmt.Sprintf(format, args...)
		fmt.Fprintf(&sb, "%s %s\n", inst, autoEnc(inst, opcode))
		opcode++
	}

	for _, v := range widths {
		s, n := v.suffix, v.bits
		// Plain and shifted-register arithmetic. The shift distance is a
		// 5/6-bit immediate per the encoding.
		shBits := 5
		if n == 64 {
			shBits = 6
		}
		w("inst ADD%srr(rn: reg%d, rm: reg%d) { rd = rn + rm; }", s, n, n)
		w("inst SUB%srr(rn: reg%d, rm: reg%d) { rd = rn - rm; }", s, n, n)
		w("inst NEG%sr(rm: reg%d) { rd = -rm; }", s, n)
		for _, sh := range []struct{ name, fn string }{{"lsl", "%s << zext(sh, %d)"}, {"lsr", "%s >> zext(sh, %d)"}, {"asr", "ashr(%s, zext(sh, %d))"}} {
			op2 := fmt.Sprintf(sh.fn, "rm", n)
			w("inst ADD%srs_%s(rn: reg%d, rm: reg%d, sh: imm%d) { rd = rn + (%s); }", s, sh.name, n, n, shBits, op2)
			w("inst SUB%srs_%s(rn: reg%d, rm: reg%d, sh: imm%d) { rd = rn - (%s); }", s, sh.name, n, n, shBits, op2)
		}
		// Immediate forms (imm12, optionally shifted by 12).
		w("inst ADD%sri(rn: reg%d, imm: imm12) { rd = rn + zext(imm, %d); }", s, n, n)
		w("inst SUB%sri(rn: reg%d, imm: imm12) { rd = rn - zext(imm, %d); }", s, n, n)
		w("inst ADD%sri_s12(rn: reg%d, imm: imm12) { rd = rn + (zext(imm, %d) << 12:%d); }", s, n, n, n)
		w("inst SUB%sri_s12(rn: reg%d, imm: imm12) { rd = rn - (zext(imm, %d) << 12:%d); }", s, n, n, n)

		// Flag-setting arithmetic (the NZCV definitions follow the ARM
		// pseudocode AddWithCarry).
		flagsFor := func(res, carry, ovf string) string {
			return fmt.Sprintf(`
  rd = %[1]s;
  flags.N = extract(%[1]s, %[2]d, %[2]d);
  flags.Z = %[1]s == 0;
  flags.C = %[3]s;
  flags.V = %[4]s;`, res, n-1, carry, ovf)
		}
		w(`inst ADDS%srr(rn: reg%d, rm: reg%d) {
  let res = rn + rm;%s
}`, s, n, n, flagsFor("res", "ult(res, rn)", fmt.Sprintf("extract((res ^ rn) & (res ^ rm), %d, %d)", n-1, n-1)))
		w(`inst SUBS%srr(rn: reg%d, rm: reg%d) {
  let res = rn - rm;%s
}`, s, n, n, flagsFor("res", "uge(rn, rm)", fmt.Sprintf("extract((rn ^ rm) & (rn ^ res), %d, %d)", n-1, n-1)))
		w(`inst SUBS%sri(rn: reg%d, imm: imm12) {
  let rm = zext(imm, %d);
  let res = rn - rm;%s
}`, s, n, n, flagsFor("res", "uge(rn, rm)", fmt.Sprintf("extract((rn ^ rm) & (rn ^ res), %d, %d)", n-1, n-1)))
		w(`inst ANDS%srr(rn: reg%d, rm: reg%d) {
  let res = rn & rm;
  rd = res;
  flags.N = extract(res, %d, %d);
  flags.Z = res == 0;
  flags.C = 0:1;
  flags.V = 0:1;
}`, s, n, n, n-1, n-1)

		// Logical operations: register, shifted register, and the
		// auxiliary-immediate forms (§V-D1 workaround for bitmask
		// immediates).
		for _, lop := range []struct{ name, expr string }{
			{"AND", "rn & rm"}, {"ORR", "rn | rm"}, {"EOR", "rn ^ rm"},
			{"BIC", "rn & ~rm"}, {"ORN", "rn | ~rm"}, {"EON", "rn ^ ~rm"},
		} {
			w("inst %s%srr(rn: reg%d, rm: reg%d) { rd = %s; }", lop.name, s, n, n, lop.expr)
			shifted := strings.Replace(lop.expr, "rm", fmt.Sprintf("(rm << zext(sh, %d))", n), 1)
			w("inst %s%srs_lsl(rn: reg%d, rm: reg%d, sh: imm%d) { rd = %s; }", lop.name, s, n, n, shBits, shifted)
		}
		for _, lop := range []struct{ name, expr string }{
			{"AND", "rn & imm"}, {"ORR", "rn | imm"}, {"EOR", "rn ^ imm"},
		} {
			w("inst %s%sri(rn: reg%d, imm: imm%d) { rd = %s; }", lop.name, s, n, n, lop.expr)
		}
		w("inst MVN%sr(rm: reg%d) { rd = ~rm; }", s, n)
		w("inst MOV%sr(rm: reg%d) { rd = rm; }", s, n)

		// Multiplication family.
		w("inst MUL%s(rn: reg%d, rm: reg%d) { rd = rn * rm; }", s, n, n)
		w("inst MADD%s(rn: reg%d, rm: reg%d, ra: reg%d) { rd = ra + rn * rm; }", s, n, n, n)
		w("inst MSUB%s(rn: reg%d, rm: reg%d, ra: reg%d) { rd = ra - rn * rm; }", s, n, n, n)
		// Division.
		w("inst UDIV%s(rn: reg%d, rm: reg%d) { rd = udiv(rn, rm); }", s, n, n)
		w("inst SDIV%s(rn: reg%d, rm: reg%d) { rd = sdiv(rn, rm); }", s, n, n)

		// Variable shifts (distance taken modulo the register width, per
		// the ARM pseudocode).
		w("inst LSLV%s(rn: reg%d, rm: reg%d) { rd = rn << (rm %% %d:%d); }", s, n, n, n, n)
		w("inst LSRV%s(rn: reg%d, rm: reg%d) { rd = rn >> (rm %% %d:%d); }", s, n, n, n, n)
		w("inst ASRV%s(rn: reg%d, rm: reg%d) { rd = ashr(rn, rm %% %d:%d); }", s, n, n, n, n)
		w("inst RORV%s(rn: reg%d, rm: reg%d) { rd = rotr(rn, rm %% %d:%d); }", s, n, n, n, n)
		// Immediate shifts (UBFM/SBFM aliases).
		w("inst LSL%sri(rn: reg%d, sh: imm%d) { rd = rn << zext(sh, %d); }", s, n, shBits, n)
		w("inst LSR%sri(rn: reg%d, sh: imm%d) { rd = rn >> zext(sh, %d); }", s, n, shBits, n)
		w("inst ASR%sri(rn: reg%d, sh: imm%d) { rd = ashr(rn, zext(sh, %d)); }", s, n, shBits, n)
		w("inst ROR%sri(rn: reg%d, sh: imm%d) { rd = rotr(rn, zext(sh, %d)); }", s, n, shBits, n)
		w("inst EXTR%s(rn: reg%d, rm: reg%d, lsb: imm%d) { rd = trunc(concat(rn, rm) >> zext(lsb, %d), %d); }", s, n, n, shBits, 2*n, n)

		// Bit counting / byte reversal.
		w("inst CLZ%s(rn: reg%d) { rd = clz(rn); }", s, n)
		w("inst REV%s(rn: reg%d) { rd = rev(rn); }", s, n)

		// Conditional operations, one variant per condition code.
		for _, c := range conds {
			w("inst CSEL%s%s(rn: reg%d, rm: reg%d) { rd = select(%s, rn, rm); }", s, c.name, n, n, c.expr)
			w("inst CSINC%s%s(rn: reg%d, rm: reg%d) { rd = select(%s, rn, rm + 1); }", s, c.name, n, n, c.expr)
			w("inst CSINV%s%s(rn: reg%d, rm: reg%d) { rd = select(%s, rn, ~rm); }", s, c.name, n, n, c.expr)
			w("inst CSNEG%s%s(rn: reg%d, rm: reg%d) { rd = select(%s, rn, -rm); }", s, c.name, n, n, c.expr)
			w("inst CSET%s%s() { rd = zext(bool(%s), %d); }", s, c.name, c.expr, n)
			w("inst CSETM%s%s() { rd = sext(bool(%s), %d); }", s, c.name, c.expr, n)
		}

		// MOVZ/MOVN/MOVK at each halfword position.
		for hw := 0; hw < n/16; hw++ {
			w("inst MOVZ%s_%d(imm: imm16) { rd = zext(imm, %d) << %d:%d; }", s, hw*16, n, hw*16, n)
			w("inst MOVN%s_%d(imm: imm16) { rd = ~(zext(imm, %d) << %d:%d); }", s, hw*16, n, hw*16, n)
			mask := fmt.Sprintf("0x%x:%d", uint64(0xffff)<<(hw*16), n)
			w("inst MOVK%s_%d(rn: reg%d, imm: imm16) { rd = (rn & ~%s) | (zext(imm, %d) << %d:%d); }",
				s, hw*16, n, mask, n, hw*16, n)
		}
	}

	// Sign/zero extensions between register widths, extended-register
	// additions, widening multiplies, and the PC-relative address.
	for _, def := range []string{
		"inst UXTBW(rn: reg32) { rd = zext(trunc(rn, 8), 32); }",
		"inst UXTHW(rn: reg32) { rd = zext(trunc(rn, 16), 32); }",
		"inst SXTBW(rn: reg32) { rd = sext(trunc(rn, 8), 32); }",
		"inst SXTHW(rn: reg32) { rd = sext(trunc(rn, 16), 32); }",
		"inst SXTBX(rn: reg64) { rd = sext(trunc(rn, 8), 64); }",
		"inst SXTHX(rn: reg64) { rd = sext(trunc(rn, 16), 64); }",
		"inst SXTWX(rn: reg32) { rd = sext(rn, 64); }",
		"inst UXTWX(rn: reg32) { rd = zext(rn, 64); }",
		"inst TRUNCWX(rn: reg64) { rd = trunc(rn, 32); }",
		"inst ADDXrx_sxtw(rn: reg64, rm: reg32) { rd = rn + sext(rm, 64); }",
		"inst ADDXrx_uxtw(rn: reg64, rm: reg32) { rd = rn + zext(rm, 64); }",
		"inst SUBXrx_sxtw(rn: reg64, rm: reg32) { rd = rn - sext(rm, 64); }",
		"inst SUBXrx_uxtw(rn: reg64, rm: reg32) { rd = rn - zext(rm, 64); }",
		"inst SMULL(rn: reg32, rm: reg32) { rd = sext(rn, 64) * sext(rm, 64); }",
		"inst UMULL(rn: reg32, rm: reg32) { rd = zext(rn, 64) * zext(rm, 64); }",
		"inst SMULH(rn: reg64, rm: reg64) { rd = trunc(ashr(sext(rn, 128) * sext(rm, 128), 64:128), 64); }",
		"inst UMULH(rn: reg64, rm: reg64) { rd = trunc((zext(rn, 128) * zext(rm, 128)) >> 64:128, 64); }",
		"inst ADR(imm: imm21) { rd = pc + sext(imm, 64); }",
	} {
		w("%s", def)
	}

	// Loads: unsigned-scaled (LDR*ui), unscaled signed offset (LDUR*),
	// register offset, shifted register offset, post-index.
	type ld struct {
		name  string
		bits  int // memory access size
		reg   int // destination register width
		ext   string
		scale int
	}
	loads := []ld{
		{"LDRBBui", 8, 32, "zext", 1},
		{"LDRHHui", 16, 32, "zext", 2},
		{"LDRWui", 32, 32, "", 4},
		{"LDRXui", 64, 64, "", 8},
		// X-destination zero-extending aliases: the same encodings write
		// a W register, which architecturally zeroes the upper 64 bits.
		{"LDRBBXui", 8, 64, "zext", 1},
		{"LDRHHXui", 16, 64, "zext", 2},
		{"LDRWXui", 32, 64, "zext", 4},
		{"LDRSBWui", 8, 32, "sext", 1},
		{"LDRSHWui", 16, 32, "sext", 2},
		{"LDRSBXui", 8, 64, "sext", 1},
		{"LDRSHXui", 16, 64, "sext", 2},
		{"LDRSWui", 32, 64, "sext", 4},
	}
	for _, l := range loads {
		val := fmt.Sprintf("load(rn + zext(imm, 64) * %d:64, %d)", l.scale, l.bits)
		if l.ext != "" {
			val = fmt.Sprintf("%s(%s, %d)", l.ext, val, l.reg)
		}
		w("inst %s(rn: reg64, imm: imm12) { rd = %s; }", l.name, val)
		// Unscaled signed-offset form (LDUR).
		uname := "LDUR" + strings.TrimSuffix(strings.TrimPrefix(l.name, "LDR"), "ui") + "i"
		uval := fmt.Sprintf("load(rn + sext(simm, 64), %d)", l.bits)
		if l.ext != "" {
			uval = fmt.Sprintf("%s(%s, %d)", l.ext, uval, l.reg)
		}
		w("inst %s(rn: reg64, simm: imm9) { rd = %s; }", uname, uval)
	}
	for _, def := range []string{
		"inst LDRXroX(rn: reg64, rm: reg64) { rd = load(rn + rm, 64); }",
		"inst LDRXroX_s3(rn: reg64, rm: reg64) { rd = load(rn + (rm << 3:64), 64); }",
		"inst LDRWroX(rn: reg64, rm: reg64) { rd = load(rn + rm, 32); }",
		"inst LDRWroX_s2(rn: reg64, rm: reg64) { rd = load(rn + (rm << 2:64), 32); }",
		"inst LDRBBroX(rn: reg64, rm: reg64) { rd = zext(load(rn + rm, 8), 32); }",
		"inst LDRXpost(rn: reg64, simm: imm9) { rd = load(rn, 64); rn = rn + sext(simm, 64); }",
		"inst LDRXpre(rn: reg64, simm: imm9) { let addr = rn + sext(simm, 64); rd = load(addr, 64); rn = addr; }",
	} {
		w("%s", def)
	}

	// Stores.
	type st struct {
		name  string
		bits  int
		reg   int
		scale int
	}
	stores := []st{
		{"STRBBui", 8, 32, 1},
		{"STRHHui", 16, 32, 2},
		{"STRWui", 32, 32, 4},
		{"STRXui", 64, 64, 8},
		// X-source truncating aliases (stores read the low bits).
		{"STRBBXui", 8, 64, 1},
		{"STRHHXui", 16, 64, 2},
		{"STRWXui", 32, 64, 4},
	}
	for _, s := range stores {
		val := "rt"
		if s.bits < s.reg {
			val = fmt.Sprintf("trunc(rt, %d)", s.bits)
		}
		w("inst %s(rt: reg%d, rn: reg64, imm: imm12) { mem[rn + zext(imm, 64) * %d:64, %d] = %s; }",
			s.name, s.reg, s.scale, s.bits, val)
		uname := "STUR" + strings.TrimSuffix(strings.TrimPrefix(s.name, "STR"), "ui") + "i"
		w("inst %s(rt: reg%d, rn: reg64, simm: imm9) { mem[rn + sext(simm, 64), %d] = %s; }",
			uname, s.reg, s.bits, val)
	}
	for _, def := range []string{
		"inst STRXroX(rt: reg64, rn: reg64, rm: reg64) { mem[rn + rm, 64] = rt; }",
		"inst STRXroX_s3(rt: reg64, rn: reg64, rm: reg64) { mem[rn + (rm << 3:64), 64] = rt; }",
		"inst STRXpost(rt: reg64, rn: reg64, simm: imm9) { mem[rn, 64] = rt; rn = rn + sext(simm, 64); }",
	} {
		w("%s", def)
	}

	// Branches: unconditional, conditional (per condition code), and
	// compare-and-branch. Displacements are byte-granular (architectural
	// AArch64 scales by 4), because the mechanical encodings above are
	// variable-length and cannot keep targets 4-byte aligned.
	w("inst B(imm: imm26) { pc = pc + sext(imm, 64); }")
	for _, c := range conds {
		w("inst Bcond_%s(imm: imm19) { if (%s) { pc = pc + sext(imm, 64); } }", c.name, c.expr)
	}
	for _, v := range widths {
		w("inst CBZ%s(rt: reg%d, imm: imm19) { if (rt == 0) { pc = pc + sext(imm, 64); } }", v.suffix, v.bits)
		w("inst CBNZ%s(rt: reg%d, imm: imm19) { if (rt != 0) { pc = pc + sext(imm, 64); } }", v.suffix, v.bits)
	}

	// A 64-bit Neon subset: lane-wise integer arithmetic on vec64
	// (8x8, 4x16, 2x32) plus popcount on bytes.
	vectorSpec(w)
	return sb.String()
}

// vectorSpec emits lane-wise 64-bit vector instructions, expanding each
// lane into extract/concat arithmetic.
func vectorSpec(w func(format string, args ...any)) {
	type shape struct {
		name  string
		lanes int
		bits  int
	}
	shapes := []shape{{"8b", 8, 8}, {"4h", 4, 16}, {"2s", 2, 32}}
	lane := func(reg string, i, bits int) string {
		return fmt.Sprintf("extract(%s, %d, %d)", reg, (i+1)*bits-1, i*bits)
	}
	emit := func(name string, sh shape, f func(a, b string) string, unary bool) {
		ops := "rn: vec64, rm: vec64"
		if unary {
			ops = "rn: vec64"
		}
		// Build concat from the highest lane down.
		expr := ""
		for i := sh.lanes - 1; i >= 0; i-- {
			laneExpr := f(lane("rn", i, sh.bits), lane("rm", i, sh.bits))
			if expr == "" {
				expr = laneExpr
			} else {
				expr = fmt.Sprintf("concat(%s, %s)", expr, laneExpr)
			}
		}
		w("inst %s_%s(%s) { rd = %s; }", name, sh.name, ops, expr)
	}
	for _, sh := range shapes {
		emit("VADD", sh, func(a, b string) string { return fmt.Sprintf("(%s) + (%s)", a, b) }, false)
		emit("VSUB", sh, func(a, b string) string { return fmt.Sprintf("(%s) - (%s)", a, b) }, false)
		emit("VMUL", sh, func(a, b string) string { return fmt.Sprintf("(%s) * (%s)", a, b) }, false)
		emit("VNEG", sh, func(a, b string) string { return fmt.Sprintf("-(%s)", a) }, true)
		emit("VCMEQ", sh, func(a, b string) string {
			return fmt.Sprintf("sext((%s) == (%s), %d)", a, b, sh.bits)
		}, false)
	}
	// Bitwise ops act on the whole 64 bits.
	w("inst VAND_8b(rn: vec64, rm: vec64) { rd = rn & rm; }")
	w("inst VORR_8b(rn: vec64, rm: vec64) { rd = rn | rm; }")
	w("inst VEOR_8b(rn: vec64, rm: vec64) { rd = rn ^ rm; }")
	// CNT: per-byte popcount.
	emit2 := func() {
		expr := ""
		for i := 7; i >= 0; i-- {
			laneExpr := fmt.Sprintf("popcount(%s)", lane("rn", i, 8))
			if expr == "" {
				expr = laneExpr
			} else {
				expr = fmt.Sprintf("concat(%s, %s)", expr, laneExpr)
			}
		}
		w("inst VCNT_8b(rn: vec64) { rd = %s; }", expr)
	}
	emit2()
}

// Latencies for the simulator cost model (cycles); unlisted = 1.
func latencies() map[string]int {
	lat := map[string]int{}
	for _, v := range widths {
		s := v.suffix
		lat["MUL"+s] = 3
		lat["MADD"+s] = 3
		lat["MSUB"+s] = 3
		lat["UDIV"+s] = 12
		lat["SDIV"+s] = 12
	}
	lat["SMULL"], lat["UMULL"], lat["SMULH"], lat["UMULH"] = 3, 3, 6, 6
	// Loads.
	for _, n := range []string{
		"LDRBBui", "LDRHHui", "LDRWui", "LDRXui", "LDRSBWui", "LDRSHWui",
		"LDRSBXui", "LDRSHXui", "LDRSWui", "LDRXroX", "LDRXroX_s3",
		"LDRWroX", "LDRWroX_s2", "LDRBBroX", "LDRXpost", "LDRXpre",
		"LDURBBi", "LDURHHi", "LDURWi", "LDURXi", "LDURSBWi", "LDURSHWi",
		"LDURSBXi", "LDURSHXi", "LDURSWi",
		"LDRBBXui", "LDRHHXui", "LDRWXui", "LDURBBXi", "LDURHHXi", "LDURWXi",
	} {
		lat[n] = 3
	}
	return lat
}

// Load builds the AArch64 target in the given term builder. Sizes are
// derived per instruction from the mechanical encodings (the old
// uniform declared size of 4 contradicts the variable-width words and
// is now rejected by LoadTarget).
func Load(b *term.Builder) (*isa.Target, error) {
	return isa.LoadTarget(b, "aarch64", Spec(), latencies(), 0)
}
