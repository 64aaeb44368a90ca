package enc_test

import (
	"bytes"
	"errors"
	"math/bits"
	"os"
	"testing"

	"iselgen/internal/bv"
	"iselgen/internal/enc"
	"iselgen/internal/isa"
	"iselgen/internal/isa/aarch64"
	"iselgen/internal/isa/riscv"
	"iselgen/internal/isa/x86"
	"iselgen/internal/spec"
	"iselgen/internal/term"
)

// mini16 is a complete 16-bit ISA small enough to sweep its entire
// 65536-word opcode space exhaustively.
const mini16 = `
inst MADD(a: reg64, b: reg64) { rd = a + b; } enc(16) { [3:0]=0x1; [7:4]=rd; [11:8]=a; [15:12]=b; }
inst MSUB(a: reg64, b: reg64) { rd = a - b; } enc(16) { [3:0]=0x2; [7:4]=rd; [11:8]=a; [15:12]=b; }
inst MLI(k: imm8)             { rd = zext(k, 64); } enc(16) { [3:0]=0x3; [7:4]=rd; [15:8]=k; }
inst MNOT(a: reg64)           { rd = ~a; } enc(16) { [3:0]=0x4; [7:4]=rd; [11:8]=a; [15:12]=0; }
inst MMV(a: reg64)            { rd = a; } enc(16) { [3:0]=0x5; [7:4]=rd; [11:8]=a; [15:12]=0; }
inst MJ(off: imm8)            { pc = pc + sext(concat(off, 0:1), 64); } enc(16) { [3:0]=0x6; [7:4]=0; [15:8]=off; }
inst MBNZ(c: reg64, off: imm8) { if (c != 0) { pc = pc + sext(concat(off, 0:1), 64); } } enc(16) { [3:0]=0x7; [7:4]=c; [15:8]=off; }
reserved(16) { [3:0]=0x0; }
`

func loadMini(t *testing.T) *enc.Codec {
	t.Helper()
	tgt, err := isa.LoadTarget(term.NewBuilder(), "mini16", mini16, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	c, err := enc.NewCodec(tgt)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestMini16ExhaustiveSweep decodes every possible 16-bit word and
// checks the global decode invariants: at most one instruction matches
// any word (uniqueness), the trie agrees with the linear reference
// decoder everywhere, every decoded word re-encodes byte-identically,
// and undecodable words split into reserved vs unknown exactly as the
// spec declares.
func TestMini16ExhaustiveSweep(t *testing.T) {
	c := loadMini(t)
	decoded := map[string]int{}
	reserved, unknown := 0, 0
	for w := 0; w < 1<<16; w++ {
		word := []byte{byte(w), byte(w >> 8)}
		all := c.AllMatches(word)
		if len(all) > 1 {
			t.Fatalf("word %04x decodes ambiguously: %s and %s", w, all[0].Inst.Name, all[1].Inst.Name)
		}
		ic, ops, size, err := c.DecodeAt(word, 0)
		lic, lsize := c.DecodeLinear(word, 0)
		if ic != lic || (ic != nil && size != lsize) {
			t.Fatalf("word %04x: trie and linear decoders disagree", w)
		}
		if err != nil {
			if len(all) != 0 {
				t.Fatalf("word %04x: decode error %v but %s matches", w, err, all[0].Inst.Name)
			}
			if errors.Is(errUnwrap(err), enc.ErrReserved) != c.MatchesReserved(word) {
				t.Fatalf("word %04x: reserved classification wrong: %v", w, err)
			}
			if c.MatchesReserved(word) {
				reserved++
			} else {
				unknown++
			}
			continue
		}
		decoded[ic.Inst.Name]++
		re, rerr := ic.Encode(ops)
		if rerr != nil {
			t.Fatalf("word %04x: re-encode %s: %v", w, ic.Inst.Name, rerr)
		}
		if !bytes.Equal(re, word) {
			t.Fatalf("word %04x: %s re-encodes to %x", w, ic.Inst.Name, re)
		}
	}
	// Each instruction must claim exactly 2^(free bits) words.
	for _, ic := range c.Insts {
		free := ic.Size*8 - bits.OnesCount64(ic.Mask[0]) - bits.OnesCount64(ic.Mask[1])
		if want := 1 << uint(free); decoded[ic.Inst.Name] != want {
			t.Errorf("%s: decoded %d words, want %d", ic.Inst.Name, decoded[ic.Inst.Name], want)
		}
	}
	if reserved != 1<<12 {
		t.Errorf("reserved words = %d, want %d", reserved, 1<<12)
	}
	if unknown == 0 {
		t.Error("no unknown words in a sparse opcode space")
	}
}

func errUnwrap(err error) error { return err }

func loadTargets(t *testing.T) map[string]*isa.Target {
	t.Helper()
	out := map[string]*isa.Target{}
	if tgt, err := riscv.Load(term.NewBuilder()); err != nil {
		t.Fatal(err)
	} else {
		out["riscv"] = tgt
	}
	if tgt, err := aarch64.Load(term.NewBuilder()); err != nil {
		t.Fatal(err)
	} else {
		out["aarch64"] = tgt
	}
	if tgt, err := x86.Load(term.NewBuilder()); err != nil {
		t.Fatal(err)
	} else {
		out["x86"] = tgt
	}
	src, err := os.ReadFile("../../examples/newisa/zetacore.spec")
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := isa.LoadTarget(term.NewBuilder(), "zetacore", string(src), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	out["zetacore"] = tgt
	return out
}

func randomOps(rng *bv.RNG, ic *enc.InstCodec, regBits int) enc.Operands {
	ops := enc.Operands{Rd: -1, Rd2: -1, Regs: map[string]int{}, Imms: map[string]bv.BV{}}
	if ic.HasRd() {
		ops.Rd = rng.Intn(1 << uint(regBits))
	}
	if ic.HasRd2() {
		ops.Rd2 = rng.Intn(1 << uint(regBits))
	}
	for _, op := range ic.Inst.Operands {
		if op.Kind == spec.OpImm {
			ops.Imms[op.Name] = rng.BV(op.Width)
		} else {
			ops.Regs[op.Name] = rng.Intn(1 << uint(regBits))
		}
	}
	return ops
}

func opsEqual(a, b enc.Operands) bool {
	if a.Rd != b.Rd || a.Rd2 != b.Rd2 || len(a.Regs) != len(b.Regs) || len(a.Imms) != len(b.Imms) {
		return false
	}
	for k, v := range a.Regs {
		if b.Regs[k] != v {
			return false
		}
	}
	for k, v := range a.Imms {
		if b.Imms[k] != v {
			return false
		}
	}
	return true
}

// TestTargetsRoundTrip checks, for every instruction of every encoded
// target, that encode → decode → re-encode is the identity on random
// operand assignments, and that the decode is unique across the whole
// instruction set (no other instruction matches the same bytes).
func TestTargetsRoundTrip(t *testing.T) {
	for name, tgt := range loadTargets(t) {
		t.Run(name, func(t *testing.T) {
			c, err := enc.NewCodec(tgt)
			if err != nil {
				t.Fatal(err)
			}
			rng := bv.NewRNG(0xD15A53)
			for _, ic := range c.Insts {
				for trial := 0; trial < 16; trial++ {
					ops := randomOps(rng, ic, tgt.RegNumBits)
					word, err := ic.Encode(ops)
					if err != nil {
						t.Fatalf("%s: encode: %v", ic.Inst.Name, err)
					}
					if all := c.AllMatches(word); len(all) != 1 || all[0] != ic {
						t.Fatalf("%s: bytes %s match %d instructions", ic.Inst.Name, enc.HexBytes(word), len(all))
					}
					dic, dops, size, err := c.DecodeAt(word, 0)
					if err != nil {
						t.Fatalf("%s: decode %s: %v", ic.Inst.Name, enc.HexBytes(word), err)
					}
					if dic != ic || size != ic.Size {
						t.Fatalf("%s: decoded as %s", ic.Inst.Name, dic.Inst.Name)
					}
					if !opsEqual(normalize(ops), normalize(dops)) {
						t.Fatalf("%s: operand mismatch: %+v vs %+v", ic.Inst.Name, ops, dops)
					}
					re, err := dic.Encode(dops)
					if err != nil || !bytes.Equal(re, word) {
						t.Fatalf("%s: re-encode %s -> %s (%v)", ic.Inst.Name, enc.HexBytes(word), enc.HexBytes(re), err)
					}
				}
			}
		})
	}
}

// normalize drops empty maps so decoded and source operands compare.
func normalize(o enc.Operands) enc.Operands {
	if o.Regs == nil {
		o.Regs = map[string]int{}
	}
	if o.Imms == nil {
		o.Imms = map[string]bv.BV{}
	}
	return o
}

// TestTrieMatchesLinear fuzzes random byte windows (including mutated
// valid encodings) and checks the trie decoder against the linear
// reference on every offset.
func TestTrieMatchesLinear(t *testing.T) {
	for name, tgt := range loadTargets(t) {
		t.Run(name, func(t *testing.T) {
			c, err := enc.NewCodec(tgt)
			if err != nil {
				t.Fatal(err)
			}
			rng := bv.NewRNG(0xBEEF)
			buf := make([]byte, 64)
			for trial := 0; trial < 2000; trial++ {
				if trial%2 == 0 {
					for i := range buf {
						buf[i] = byte(rng.Uint64())
					}
				} else {
					// Seed with a valid encoding, then flip a few bits.
					ic := c.Insts[rng.Intn(len(c.Insts))]
					w, err := ic.Encode(randomOps(rng, ic, tgt.RegNumBits))
					if err != nil {
						t.Fatal(err)
					}
					copy(buf, w)
					for k := 0; k < 3; k++ {
						b := rng.Intn(len(buf) * 8)
						buf[b/8] ^= 1 << uint(b%8)
					}
				}
				for off := 0; off < len(buf); off++ {
					ic, _, size, err := c.DecodeAt(buf, off)
					lic, lsize := c.DecodeLinear(buf, off)
					if ic != lic {
						t.Fatalf("offset %d: trie=%v linear=%v", off, ic, lic)
					}
					if err == nil && size != lsize {
						t.Fatalf("offset %d: trie size %d, linear %d", off, size, lsize)
					}
				}
			}
		})
	}
}

// TestRiscvGoldenBytes pins known RV64 words: the bundled spec uses the
// real RISC-V formats, so the assembler must reproduce binutils-
// compatible bytes for the base ISA (the custom-0 idioms excepted).
func TestRiscvGoldenBytes(t *testing.T) {
	tgt, err := riscv.Load(term.NewBuilder())
	if err != nil {
		t.Fatal(err)
	}
	c, err := enc.NewCodec(tgt)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		ops  enc.Operands
		want []byte // little-endian, as in memory
	}{
		// addi x1, x2, 3 = 0x00310093
		{"ADDI", enc.Operands{Rd: 1, Regs: map[string]int{"rs1": 2},
			Imms: map[string]bv.BV{"imm": bv.New(12, 3)}}, []byte{0x93, 0x00, 0x31, 0x00}},
		// add x3, x1, x2 = 0x002081b3
		{"ADD", enc.Operands{Rd: 3, Regs: map[string]int{"rs1": 1, "rs2": 2}},
			[]byte{0xb3, 0x81, 0x20, 0x00}},
		// lui x5, 0x12345 = 0x123452b7
		{"LUI", enc.Operands{Rd: 5,
			Imms: map[string]bv.BV{"imm": bv.New(20, 0x12345)}}, []byte{0xb7, 0x52, 0x34, 0x12}},
		// sw x3, 8(x2) = 0x00312423
		{"SW", enc.Operands{Regs: map[string]int{"rs1": 2, "rs2": 3},
			Imms: map[string]bv.BV{"imm": bv.New(12, 8)}}, []byte{0x23, 0x24, 0x31, 0x00}},
		// beq x1, x2, -8 = 0xfe208ce3 (operand imm is the halfword offset -4)
		{"BEQ", enc.Operands{Regs: map[string]int{"rs1": 1, "rs2": 2},
			Imms: map[string]bv.BV{"imm": bv.NewInt(12, -4)}}, []byte{0xe3, 0x8c, 0x20, 0xfe}},
		// ld x7, 16(x6) = 0x01033383
		{"LD", enc.Operands{Rd: 7, Regs: map[string]int{"rs1": 6},
			Imms: map[string]bv.BV{"imm": bv.New(12, 16)}}, []byte{0x83, 0x33, 0x03, 0x01}},
	}
	for _, tc := range cases {
		ic := c.ByName[tc.name]
		if ic == nil {
			t.Fatalf("no codec for %s", tc.name)
		}
		got, err := ic.Encode(normalize(tc.ops))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !bytes.Equal(got, tc.want) {
			t.Errorf("%s: got %s, want %s", tc.name, enc.HexBytes(got), enc.HexBytes(tc.want))
		}
	}
}
