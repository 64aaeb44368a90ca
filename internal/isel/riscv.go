package isel

import (
	"iselgen/internal/bv"
	"iselgen/internal/gmir"
	"iselgen/internal/isa"
	"iselgen/internal/mir"
	"iselgen/internal/pattern"
	"iselgen/internal/rules"
	"iselgen/internal/term"
)

// RISC-V backends. The base ISA has no conditional select, so G_SELECT
// uses the branch-free mask idiom in a hook (LLVM lowers it with a
// Select pseudo expanded in C++, which is exactly what the paper's
// Table III counts as non-declarative selection). There is no FastISel
// for RISC-V (paper Fig. 11), so only handwritten/DAG/naive-free
// backends exist; the "naive" role is filled by the handwritten library
// stripped of folds, used for completeness checks.

// RVBackends bundles the RISC-V baselines.
type RVBackends struct {
	Handwritten *Backend
	DAG         *Backend
}

// rvMatConstSmart materializes constants with the standard RISC-V
// recipes: ADDI for 12-bit, LUI+ADDIW for 32-bit sign-extendable, and a
// shift-add chain for the rest.
func rvMatConstSmart(c *Ctx, v bv.BV) (mir.Reg, bool) {
	if v.W() > 64 {
		return 0, false
	}
	v64 := v.ZExt(64)
	dst := c.NewReg()
	// Zero.
	if v64.IsZero() {
		c.Emit(&mir.Inst{Meta: c.Inst("MVZERO"), Dsts: []mir.Reg{dst}})
		return dst, true
	}
	// 12-bit signed.
	if e, ok := (rules.Embed{Width: 12, Signed: true}).Decode(v64); ok {
		zero := c.NewReg()
		c.Emit(&mir.Inst{Meta: c.Inst("MVZERO"), Dsts: []mir.Reg{zero}})
		c.Emit(&mir.Inst{Meta: c.Inst("ADDI"), Dsts: []mir.Reg{dst},
			Args: []mir.Operand{mir.R(zero), mir.I(e)}})
		return dst, true
	}
	// 32-bit sign-extendable: LUI (+ ADDIW).
	if v64.Trunc(32).SExt(64) == v64 {
		lo12 := v64.Trunc(12)
		hi20 := v64.Trunc(32).Sub(lo12.SExt(32)).LShrN(12).Trunc(20)
		c.Emit(&mir.Inst{Meta: c.Inst("LUI"), Dsts: []mir.Reg{dst},
			Args: []mir.Operand{mir.I(hi20)}})
		if !lo12.IsZero() {
			c.Emit(&mir.Inst{Meta: c.Inst("ADDIW"), Dsts: []mir.Reg{dst},
				Args: []mir.Operand{mir.R(dst), mir.I(lo12)}})
		}
		return dst, true
	}
	// General 64-bit constant: the canonical shift-or chain, built in
	// 11-bit chunks so every ORI immediate stays non-negative (ORI
	// sign-extends its 12-bit immediate).
	return rvMatConst64(c, v64)
}

// rvMatConst64 emits a shift-or chain for a full 64-bit constant:
// seed with the top 9 bits, then five rounds of SLLI 11 + ORI chunk.
func rvMatConst64(c *Ctx, v bv.BV) (mir.Reg, bool) {
	val := v.Lo
	dst := c.NewReg()
	zero := c.NewReg()
	c.Emit(&mir.Inst{Meta: c.Inst("MVZERO"), Dsts: []mir.Reg{zero}})
	c.Emit(&mir.Inst{Meta: c.Inst("ADDI"), Dsts: []mir.Reg{dst},
		Args: []mir.Operand{mir.R(zero), mir.I(bv.New(12, val>>55))}})
	rem := 55
	for rem > 0 {
		step := 11
		if rem < step {
			step = rem
		}
		rem -= step
		chunk := val >> uint(rem) & (1<<uint(step) - 1)
		c.Emit(&mir.Inst{Meta: c.Inst("SLLI"), Dsts: []mir.Reg{dst},
			Args: []mir.Operand{mir.R(dst), mir.I(bv.New(6, uint64(step)))}})
		if chunk != 0 {
			c.Emit(&mir.Inst{Meta: c.Inst("ORI"), Dsts: []mir.Reg{dst},
				Args: []mir.Operand{mir.R(dst), mir.I(bv.New(12, chunk))}})
		}
	}
	return dst, true
}

// rvLowerBrCond folds icmp into the fused compare-and-branch
// instructions; otherwise branches on the boolean against zero.
func rvLowerBrCond(fold bool) func(c *Ctx, cond gmir.Value, taken int, invert bool) bool {
	branchOf := map[gmir.Pred]struct {
		name string
		swap bool
	}{
		gmir.PredEQ: {"BEQ", false}, gmir.PredNE: {"BNE", false},
		gmir.PredSLT: {"BLT", false}, gmir.PredSGE: {"BGE", false},
		gmir.PredULT: {"BLTU", false}, gmir.PredUGE: {"BGEU", false},
		gmir.PredSGT: {"BLT", true}, gmir.PredSLE: {"BGE", true},
		gmir.PredUGT: {"BLTU", true}, gmir.PredUGE + 100: {"", false},
	}
	return func(c *Ctx, cond gmir.Value, taken int, invert bool) bool {
		dummy := mir.I(bv.Zero(12))
		if fold {
			if d := c.DefOf(cond); d != nil && d.Op == gmir.GICmp && c.SingleUse(cond) &&
				!c.Covered(d) && c.TypeOf(d.Args[0]).Bits == 64 {
				pred := d.Pred
				if invert {
					pred = gmir.InvertPred(pred)
				}
				br, ok := branchOf[pred]
				if pred == gmir.PredULE {
					br, ok = struct {
						name string
						swap bool
					}{"BGEU", true}, true
				}
				if ok && br.name != "" {
					a, bb := d.Args[0], d.Args[1]
					if br.swap {
						a, bb = bb, a
					}
					c.MarkCovered(d)
					c.Emit(&mir.Inst{Meta: c.Inst(br.name),
						Args:  []mir.Operand{mir.R(c.ValueReg(a)), mir.R(c.ValueReg(bb)), dummy},
						Succs: []int{taken}})
					return true
				}
			}
		}
		zero := c.NewReg()
		name := "BNE"
		if invert {
			name = "BEQ"
		}
		c.Emit(&mir.Inst{Meta: c.Inst("MVZERO"), Dsts: []mir.Reg{zero}})
		c.Emit(&mir.Inst{Meta: c.Inst(name),
			Args:  []mir.Operand{mir.R(c.ValueReg(cond)), mir.R(zero), dummy},
			Succs: []int{taken}})
		return true
	}
}

// rvLowerInst covers operations the base ISA has no instruction for —
// the C++-style expansions LLVM performs for RISC-V: branch-free select
// (res = y ^ ((x^y) & -cond)), min/max via a comparison feeding the same
// idiom, and the extensions/truncations the legalizer emits around
// widened narrow arithmetic (ANDI masks and shift pairs, since RV64I has
// no dedicated extension instructions). Narrow values keep the usual
// convention that bits above the type width are undefined.
func rvLowerInst(c *Ctx, in *gmir.Inst) bool {
	switch in.Op {
	case gmir.GZExt:
		from := c.TypeOf(in.Args[0]).Bits
		src := c.ValueReg(in.Args[0])
		dst := c.ensureReg(in.Dst)
		switch from {
		case 1:
			// Booleans come from SLT/SLTU-style idioms and hold 0/1.
			c.Emit(&mir.Inst{Pseudo: mir.PCopy, Dsts: []mir.Reg{dst},
				Args: []mir.Operand{mir.R(src)}})
		case 8:
			c.Emit(&mir.Inst{Meta: c.Inst("ANDI"), Dsts: []mir.Reg{dst},
				Args: []mir.Operand{mir.R(src), mir.I(bv.New(12, 0xff))}})
		case 16, 32:
			rvShiftPair(c, dst, src, 64-from, "SRLI")
		default:
			return false
		}
		return true
	case gmir.GSExt:
		from := c.TypeOf(in.Args[0]).Bits
		if from != 8 && from != 16 && from != 32 {
			return false
		}
		rvShiftPair(c, c.ensureReg(in.Dst), c.ValueReg(in.Args[0]), 64-from, "SRAI")
		return true
	case gmir.GTrunc:
		c.Emit(&mir.Inst{Pseudo: mir.PCopy, Dsts: []mir.Reg{c.ensureReg(in.Dst)},
			Args: []mir.Operand{mir.R(c.ValueReg(in.Args[0]))}})
		return true
	case gmir.GSelect:
		if in.Ty.Bits > 64 {
			return false
		}
		cond := c.ValueReg(in.Args[0])
		x := c.ValueReg(in.Args[1])
		y := c.ValueReg(in.Args[2])
		rvMaskSelect(c, c.ensureReg(in.Dst), cond, x, y)
		return true
	case gmir.GUMin, gmir.GUMax, gmir.GSMin, gmir.GSMax:
		if in.Ty.Bits != 64 {
			return false
		}
		a := c.ValueReg(in.Args[0])
		b := c.ValueReg(in.Args[1])
		cond := c.NewReg()
		cmp := "SLTU"
		if in.Op == gmir.GSMin || in.Op == gmir.GSMax {
			cmp = "SLT"
		}
		// cond = a < b; min selects a, max selects b.
		c.Emit(&mir.Inst{Meta: c.Inst(cmp), Dsts: []mir.Reg{cond},
			Args: []mir.Operand{mir.R(a), mir.R(b)}})
		x, y := a, b
		if in.Op == gmir.GUMax || in.Op == gmir.GSMax {
			x, y = b, a
		}
		rvMaskSelect(c, c.ensureReg(in.Dst), cond, x, y)
		return true
	case gmir.GStore:
		// The store instruction truncates rs2 to the access size, which
		// also discards any junk above a narrow value's type width.
		var name string
		switch in.MemBits {
		case 8:
			name = "SB"
		case 16:
			name = "SH"
		case 32:
			name = "SW"
		case 64:
			name = "SD"
		default:
			return false
		}
		c.Emit(&mir.Inst{Meta: c.Inst(name),
			Args: []mir.Operand{mir.R(c.ValueReg(in.Args[0])),
				mir.R(c.ValueReg(in.Args[1])), mir.I(bv.Zero(12))}})
		return true
	case gmir.GCtpop:
		// The legalizer widens G_CTPOP, so only the full width survives.
		if in.Ty.Bits != 64 {
			return false
		}
		rvCtpop64(c, c.ensureReg(in.Dst), c.ValueReg(in.Args[0]))
		return true
	case gmir.GCttz:
		w := in.Ty.Bits
		if w != 32 && w != 64 {
			return false
		}
		// cttz(x) = popcount(~x & (x-1)). Masking the AND back to w bits
		// makes the x == 0 case (an all-ones AND) come out as w.
		src := rvMaskTo(c, c.ValueReg(in.Args[0]), w)
		nx, t1, lo := c.NewReg(), c.NewReg(), c.NewReg()
		c.Emit(&mir.Inst{Meta: c.Inst("NOT"), Dsts: []mir.Reg{nx},
			Args: []mir.Operand{mir.R(src)}})
		c.Emit(&mir.Inst{Meta: c.Inst("ADDI"), Dsts: []mir.Reg{t1},
			Args: []mir.Operand{mir.R(src), mir.I(bv.New(12, 0xfff))}})
		c.Emit(&mir.Inst{Meta: c.Inst("AND"), Dsts: []mir.Reg{lo},
			Args: []mir.Operand{mir.R(nx), mir.R(t1)}})
		rvCtpop64(c, c.ensureReg(in.Dst), rvMaskTo(c, lo, w))
		return true
	case gmir.GCtlz:
		w := in.Ty.Bits
		if w != 32 && w != 64 {
			return false
		}
		// Smear the highest set bit rightward, then clz = w - popcount.
		x := rvMaskTo(c, c.ValueReg(in.Args[0]), w)
		for sh := 1; sh < w; sh <<= 1 {
			t, o := c.NewReg(), c.NewReg()
			c.Emit(&mir.Inst{Meta: c.Inst("SRLI"), Dsts: []mir.Reg{t},
				Args: []mir.Operand{mir.R(x), mir.I(bv.New(6, uint64(sh)))}})
			c.Emit(&mir.Inst{Meta: c.Inst("OR"), Dsts: []mir.Reg{o},
				Args: []mir.Operand{mir.R(x), mir.R(t)}})
			x = o
		}
		pc := c.NewReg()
		rvCtpop64(c, pc, x)
		wreg, _ := rvMatConstSmart(c, bv.New(64, uint64(w)))
		c.Emit(&mir.Inst{Meta: c.Inst("SUB"), Dsts: []mir.Reg{c.ensureReg(in.Dst)},
			Args: []mir.Operand{mir.R(wreg), mir.R(pc)}})
		return true
	case gmir.GBSwap:
		w := in.Ty.Bits
		if w != 32 && w != 64 {
			return false
		}
		src := c.ValueReg(in.Args[0])
		if w == 32 {
			// bswap64(x << 32) leaves bswap32(x) in the low 32 bits (and
			// zeros above), shifting out any junk in the source's high half.
			t := c.NewReg()
			c.Emit(&mir.Inst{Meta: c.Inst("SLLI"), Dsts: []mir.Reg{t},
				Args: []mir.Operand{mir.R(src), mir.I(bv.New(6, 32))}})
			src = t
		}
		rvBSwap64(c, c.ensureReg(in.Dst), src)
		return true
	}
	return false
}

// rvMaskTo zero-extends the low w bits of src into a fresh register (or
// returns src unchanged for w == 64).
func rvMaskTo(c *Ctx, src mir.Reg, w int) mir.Reg {
	if w >= 64 {
		return src
	}
	d := c.NewReg()
	rvShiftPair(c, d, src, 64-w, "SRLI")
	return d
}

// rvCtpop64 emits the classic SWAR population count (pairs, nibbles,
// byte sum via multiply) — RV64IM has no popcount instruction.
func rvCtpop64(c *Ctx, dst, src mir.Reg) {
	bin := func(name string, a, b mir.Reg) mir.Reg {
		d := c.NewReg()
		c.Emit(&mir.Inst{Meta: c.Inst(name), Dsts: []mir.Reg{d},
			Args: []mir.Operand{mir.R(a), mir.R(b)}})
		return d
	}
	shr := func(a mir.Reg, sh int) mir.Reg {
		d := c.NewReg()
		c.Emit(&mir.Inst{Meta: c.Inst("SRLI"), Dsts: []mir.Reg{d},
			Args: []mir.Operand{mir.R(a), mir.I(bv.New(6, uint64(sh)))}})
		return d
	}
	konst := func(v uint64) mir.Reg {
		r, _ := rvMatConstSmart(c, bv.New(64, v))
		return r
	}
	m55, m33, m0f := konst(0x5555555555555555), konst(0x3333333333333333), konst(0x0f0f0f0f0f0f0f0f)
	x1 := bin("SUB", src, bin("AND", shr(src, 1), m55))
	x2 := bin("ADD", bin("AND", x1, m33), bin("AND", shr(x1, 2), m33))
	x3 := bin("AND", bin("ADD", x2, shr(x2, 4)), m0f)
	mul := bin("MUL", x3, konst(0x0101010101010101))
	c.Emit(&mir.Inst{Meta: c.Inst("SRLI"), Dsts: []mir.Reg{dst},
		Args: []mir.Operand{mir.R(mul), mir.I(bv.New(6, 56))}})
}

// rvBSwap64 emits the three-stage byte reversal (bytes, halfwords, words).
func rvBSwap64(c *Ctx, dst, src mir.Reg) {
	stage := func(x mir.Reg, m uint64, sh int, out mir.Reg) mir.Reg {
		mr, _ := rvMatConstSmart(c, bv.New(64, m))
		lo, lsh, hi, hm := c.NewReg(), c.NewReg(), c.NewReg(), c.NewReg()
		amt := mir.I(bv.New(6, uint64(sh)))
		c.Emit(&mir.Inst{Meta: c.Inst("AND"), Dsts: []mir.Reg{lo},
			Args: []mir.Operand{mir.R(x), mir.R(mr)}})
		c.Emit(&mir.Inst{Meta: c.Inst("SLLI"), Dsts: []mir.Reg{lsh},
			Args: []mir.Operand{mir.R(lo), amt}})
		c.Emit(&mir.Inst{Meta: c.Inst("SRLI"), Dsts: []mir.Reg{hi},
			Args: []mir.Operand{mir.R(x), amt}})
		c.Emit(&mir.Inst{Meta: c.Inst("AND"), Dsts: []mir.Reg{hm},
			Args: []mir.Operand{mir.R(hi), mir.R(mr)}})
		c.Emit(&mir.Inst{Meta: c.Inst("OR"), Dsts: []mir.Reg{out},
			Args: []mir.Operand{mir.R(lsh), mir.R(hm)}})
		return out
	}
	x1 := stage(src, 0x00ff00ff00ff00ff, 8, c.NewReg())
	x2 := stage(x1, 0x0000ffff0000ffff, 16, c.NewReg())
	lsh, hi := c.NewReg(), c.NewReg()
	amt := mir.I(bv.New(6, 32))
	c.Emit(&mir.Inst{Meta: c.Inst("SLLI"), Dsts: []mir.Reg{lsh},
		Args: []mir.Operand{mir.R(x2), amt}})
	c.Emit(&mir.Inst{Meta: c.Inst("SRLI"), Dsts: []mir.Reg{hi},
		Args: []mir.Operand{mir.R(x2), amt}})
	c.Emit(&mir.Inst{Meta: c.Inst("OR"), Dsts: []mir.Reg{dst},
		Args: []mir.Operand{mir.R(lsh), mir.R(hi)}})
}

// rvShiftPair emits dst = (src << sh) >>(logical|arith) sh — the RV64I
// extension idiom.
func rvShiftPair(c *Ctx, dst, src mir.Reg, sh int, shiftRight string) {
	tmp := c.NewReg()
	amt := mir.I(bv.New(6, uint64(sh)))
	c.Emit(&mir.Inst{Meta: c.Inst("SLLI"), Dsts: []mir.Reg{tmp},
		Args: []mir.Operand{mir.R(src), amt}})
	c.Emit(&mir.Inst{Meta: c.Inst(shiftRight), Dsts: []mir.Reg{dst},
		Args: []mir.Operand{mir.R(tmp), amt}})
}

// rvMaskSelect emits dst = cond ? x : y via the mask idiom.
func rvMaskSelect(c *Ctx, dst mir.Reg, cond, x, y mir.Reg) {
	mask := c.NewReg()
	xorv := c.NewReg()
	andv := c.NewReg()
	c.Emit(&mir.Inst{Meta: c.Inst("NEG"), Dsts: []mir.Reg{mask}, Args: []mir.Operand{mir.R(cond)}})
	c.Emit(&mir.Inst{Meta: c.Inst("XOR"), Dsts: []mir.Reg{xorv}, Args: []mir.Operand{mir.R(x), mir.R(y)}})
	c.Emit(&mir.Inst{Meta: c.Inst("AND"), Dsts: []mir.Reg{andv}, Args: []mir.Operand{mir.R(xorv), mir.R(mask)}})
	c.Emit(&mir.Inst{Meta: c.Inst("XOR"), Dsts: []mir.Reg{dst}, Args: []mir.Operand{mir.R(y), mir.R(andv)}})
}

// buildRVHandwritten constructs the RISC-V handwritten library; extra
// adds the more aggressive folds of the mature SelectionDAG backend.
func buildRVHandwritten(b *term.Builder, tgt *isa.Target, extra bool) *rules.Library {
	lib := rules.NewLibrary("riscv")
	add := func(p *pattern.Pattern, seqSpec, opSpec string, leafConsts ...string) {
		lib.Add(MustRule(b, tgt, p, seqSpec, opSpec, leafConsts...))
	}
	r := func(bits int) *pattern.Node { return pattern.Leaf(gmir.Type{Bits: bits}) }
	i := func(bits int) *pattern.Node { return pattern.ImmLeaf(gmir.Type{Bits: bits}) }
	op := func(o gmir.Opcode, bits int, args ...*pattern.Node) *pattern.Node {
		return pattern.Op(o, gmir.Type{Bits: bits}, args...)
	}

	// 64-bit ALU.
	add(pattern.New(op(gmir.GAdd, 64, r(64), r(64))), "ADD", "p0 p1")
	add(pattern.New(op(gmir.GAdd, 64, r(64), i(64))), "ADDI", "p0 p1:sext12")
	add(pattern.New(op(gmir.GPtrAdd, 64, r(64), r(64))), "ADD", "p0 p1")
	add(pattern.New(op(gmir.GPtrAdd, 64, r(64), i(64))), "ADDI", "p0 p1:sext12")
	add(pattern.New(op(gmir.GSub, 64, r(64), r(64))), "SUB", "p0 p1")
	add(pattern.New(op(gmir.GAnd, 64, r(64), r(64))), "AND", "p0 p1")
	add(pattern.New(op(gmir.GAnd, 64, r(64), i(64))), "ANDI", "p0 p1:sext12")
	add(pattern.New(op(gmir.GOr, 64, r(64), r(64))), "OR", "p0 p1")
	add(pattern.New(op(gmir.GOr, 64, r(64), i(64))), "ORI", "p0 p1:sext12")
	add(pattern.New(op(gmir.GXor, 64, r(64), r(64))), "XOR", "p0 p1")
	add(pattern.New(op(gmir.GXor, 64, r(64), i(64))), "XORI", "p0 p1:sext12")
	add(pattern.New(op(gmir.GXor, 64, r(64), i(64))), "NOT", "p0", "1=-1")
	add(pattern.New(op(gmir.GShl, 64, r(64), r(64))), "SLL", "p0 p1")
	add(pattern.New(op(gmir.GLShr, 64, r(64), r(64))), "SRL", "p0 p1")
	add(pattern.New(op(gmir.GAShr, 64, r(64), r(64))), "SRA", "p0 p1")
	add(pattern.New(op(gmir.GShl, 64, r(64), i(64))), "SLLI", "p0 p1:zext6")
	add(pattern.New(op(gmir.GLShr, 64, r(64), i(64))), "SRLI", "p0 p1:zext6")
	add(pattern.New(op(gmir.GAShr, 64, r(64), i(64))), "SRAI", "p0 p1:zext6")
	add(pattern.New(op(gmir.GMul, 64, r(64), r(64))), "MUL", "p0 p1")
	add(pattern.New(op(gmir.GUDiv, 64, r(64), r(64))), "DIVU", "p0 p1")
	add(pattern.New(op(gmir.GSDiv, 64, r(64), r(64))), "DIV", "p0 p1")
	add(pattern.New(op(gmir.GURem, 64, r(64), r(64))), "REMU", "p0 p1")
	add(pattern.New(op(gmir.GSRem, 64, r(64), r(64))), "REM", "p0 p1")

	// Comparisons: zext(icmp) idioms.
	cmpPat := func(pred gmir.Pred, lhs, rhs *pattern.Node) *pattern.Node {
		return &pattern.Node{Op: gmir.GICmp, Ty: gmir.S1, Pred: pred,
			Args: []*pattern.Node{lhs, rhs}}
	}
	for _, zw := range []int{64} {
		add(pattern.New(op(gmir.GZExt, zw, cmpPat(gmir.PredSLT, r(64), r(64)))), "SLT", "p0 p1")
		add(pattern.New(op(gmir.GZExt, zw, cmpPat(gmir.PredULT, r(64), r(64)))), "SLTU", "p0 p1")
		add(pattern.New(op(gmir.GZExt, zw, cmpPat(gmir.PredSGT, r(64), r(64)))), "SLT", "p1 p0")
		add(pattern.New(op(gmir.GZExt, zw, cmpPat(gmir.PredUGT, r(64), r(64)))), "SLTU", "p1 p0")
		add(pattern.New(op(gmir.GZExt, zw, cmpPat(gmir.PredSLT, r(64), i(64)))), "SLTI", "p0 p1:sext12")
		add(pattern.New(op(gmir.GZExt, zw, cmpPat(gmir.PredULT, r(64), i(64)))), "SLTIU", "p0 p1:sext12")
		add(pattern.New(op(gmir.GZExt, zw, cmpPat(gmir.PredEQ, r(64), r(64)))), "SUB ; SEQZ[rs1]", "p0 p1")
		add(pattern.New(op(gmir.GZExt, zw, cmpPat(gmir.PredNE, r(64), r(64)))), "SUB ; SNEZ[rs2]", "p0 p1")
		add(pattern.New(op(gmir.GZExt, zw, cmpPat(gmir.PredEQ, r(64), i(64)))), "SEQZ", "p0", "1=0")
		add(pattern.New(op(gmir.GZExt, zw, cmpPat(gmir.PredNE, r(64), i(64)))), "SNEZ", "p0", "1=0")
		add(pattern.New(op(gmir.GZExt, zw, cmpPat(gmir.PredSGE, r(64), r(64)))), "SLT ; XORI[rs1]", "p0 p1 =1")
		add(pattern.New(op(gmir.GZExt, zw, cmpPat(gmir.PredUGE, r(64), r(64)))), "SLTU ; XORI[rs1]", "p0 p1 =1")
		add(pattern.New(op(gmir.GZExt, zw, cmpPat(gmir.PredSLE, r(64), r(64)))), "SLT ; XORI[rs1]", "p1 p0 =1")
		add(pattern.New(op(gmir.GZExt, zw, cmpPat(gmir.PredULE, r(64), r(64)))), "SLTU ; XORI[rs1]", "p1 p0 =1")
	}

	// Loads/stores with folded offsets plus plain forms.
	type ldDef struct {
		op      gmir.Opcode
		ty, mem int
		name    string
	}
	lds := []ldDef{
		{gmir.GLoad, 64, 64, "LD"},
		{gmir.GSLoad, 64, 32, "LW"}, {gmir.GLoad, 64, 32, "LWU"},
		{gmir.GSLoad, 64, 16, "LH"}, {gmir.GLoad, 64, 16, "LHU"},
		{gmir.GSLoad, 64, 8, "LB"}, {gmir.GLoad, 64, 8, "LBU"},
	}
	for _, l := range lds {
		add(pattern.New(pattern.LoadOp(l.op, gmir.Type{Bits: l.ty}, l.mem, r(64))),
			l.name, "p0 =0")
		add(pattern.New(pattern.LoadOp(l.op, gmir.Type{Bits: l.ty}, l.mem,
			op(gmir.GPtrAdd, 64, r(64), i(64)))), l.name, "p0 p1:sext12")
	}
	type stDef struct {
		ty, mem int
		name    string
	}
	sts := []stDef{
		{64, 64, "SD"}, {64, 32, "SW"}, {64, 16, "SH"}, {64, 8, "SB"},
	}
	for _, st := range sts {
		// SD/SW/SH/SB declare (rs2=value, rs1=base, imm).
		add(pattern.New(pattern.StoreOp(st.mem, r(st.ty), r(64))), st.name, "p0 p1 =0")
		add(pattern.New(pattern.StoreOp(st.mem, r(st.ty),
			op(gmir.GPtrAdd, 64, r(64), i(64)))), st.name, "p0 p1 p2:sext12")
	}

	if extra {
		// Mature-backend fold: x < 0 is the sign bit.
		add(pattern.New(op(gmir.GZExt, 64,
			cmpPat(gmir.PredSLT, r(64), i(64)))), "SRLI", "p0 =63", "1=0")
	}
	return lib
}

// NewRVBackends builds the RISC-V baseline backends. The RISC-V target
// spec needs a few alias instructions (SEXTW32 etc.) injected; callers
// use riscvx.LoadWithAliases.
func NewRVBackends(b *term.Builder, tgt *isa.Target) *RVBackends {
	hand := buildRVHandwritten(b, tgt, false)
	dag := buildRVHandwritten(b, tgt, true)
	return &RVBackends{
		Handwritten: &Backend{Name: "globalisel", ISA: tgt, Lib: hand, Hooks: Hooks{
			MatConst:    rvMatConstSmart,
			LowerBrCond: rvLowerBrCond(true),
			LowerInst:   rvLowerInst,
		}},
		DAG: &Backend{Name: "selectiondag", ISA: tgt, Lib: dag, Hooks: Hooks{
			MatConst:    rvMatConstSmart,
			LowerBrCond: rvLowerBrCond(true),
			LowerInst:   rvLowerInst,
		}},
	}
}

// NewRVSynth wraps a synthesized RISC-V library with the manual imports.
func NewRVSynth(tgt *isa.Target, lib *rules.Library) *Backend {
	return &Backend{Name: "synth", ISA: tgt, Lib: lib, Hooks: Hooks{
		MatConst:    rvMatConstSmart,
		LowerBrCond: rvLowerBrCond(true),
		LowerInst:   rvLowerInst,
	}}
}
