// Package enc turns the spec DSL's encoding clauses into working
// machine-code tooling: an assembler from selected machine IR to bytes,
// a table-driven disassembler built as a decode trie over the fixed
// bits, and a decoding emulator that executes the bytes by evaluating
// the same formal effect terms the synthesis consumed. One spec file
// therefore yields the compiler back-end *and* the binary tools — the
// "single source of truth" flow — and the round-trip between them is a
// fourth differential oracle for the fuzzer: select → encode → decode
// must reproduce the instruction stream byte-identically, and machine
// code execution must agree with the MIR simulator.
package enc

import (
	"errors"
	"fmt"
	"sort"

	"iselgen/internal/bv"
	"iselgen/internal/isa"
	"iselgen/internal/spec"
)

// Decode failure sentinels. ErrReserved means the word matched a
// declared reserved pattern (architecturally undefined, permanently);
// ErrUnknown means no instruction and no reserved pattern matched.
var (
	ErrReserved = errors.New("enc: reserved encoding")
	ErrUnknown  = errors.New("enc: undecodable bytes")
)

// Operands carries one decoded (or to-be-encoded) instruction's field
// values: destination register number(s), source register numbers by
// operand name, and immediate values by operand name at declared width.
type Operands struct {
	Rd, Rd2 int
	Regs    map[string]int
	Imms    map[string]bv.BV
}

// InstCodec encodes and decodes one instruction.
type InstCodec struct {
	Inst *isa.Instruction
	// Size is the encoded size in bytes; Mask/Val the fixed-bit match
	// pattern (bit i of the word is bit i%64 of word i/64).
	Size      int
	Mask, Val [2]uint64
	hasRd     bool
	hasRd2    bool
	fields    []spec.EncField // the non-fixed fields
}

// Codec holds the encode/decode tables derived from one target's spec.
type Codec struct {
	Target  *isa.Target
	Insts   []*InstCodec
	ByName  map[string]*InstCodec
	Sizes   []int // distinct instruction sizes, ascending
	MaxSize int
	tries   map[int]*trieNode // per-size decode tries
	resPats []resPat
}

type resPat struct {
	size      int
	mask, val [2]uint64
}

// NewCodec builds the codec for a target. Every instruction must carry
// an encoding clause (Target.HasEncodings).
func NewCodec(t *isa.Target) (*Codec, error) {
	if !t.HasEncodings() {
		return nil, fmt.Errorf("enc: target %s has no machine encodings", t.Name)
	}
	c := &Codec{Target: t, ByName: make(map[string]*InstCodec, len(t.Insts)), tries: map[int]*trieNode{}}
	sizes := map[int]bool{}
	for _, in := range t.Insts {
		ic := &InstCodec{Inst: in, Size: in.Enc.SizeBytes()}
		ic.Mask, ic.Val = in.Enc.FixedMaskVal()
		for _, f := range in.Enc.Fields {
			if f.Fixed {
				continue
			}
			switch f.Name {
			case "rd":
				ic.hasRd = true
			case "rd2":
				ic.hasRd2 = true
			}
			ic.fields = append(ic.fields, f)
		}
		for _, op := range in.Operands {
			if op.Kind == spec.OpImm && op.Width > 64 {
				return nil, fmt.Errorf("enc: %s: immediate %s wider than 64 bits", in.Name, op.Name)
			}
		}
		c.Insts = append(c.Insts, ic)
		c.ByName[in.Name] = ic
		sizes[ic.Size] = true
		if ic.Size > c.MaxSize {
			c.MaxSize = ic.Size
		}
	}
	for s := range sizes {
		c.Sizes = append(c.Sizes, s)
	}
	sort.Ints(c.Sizes)
	for _, s := range c.Sizes {
		var group []*InstCodec
		for _, ic := range c.Insts {
			if ic.Size == s {
				group = append(group, ic)
			}
		}
		c.tries[s] = buildTrie(group, 0)
	}
	for _, r := range t.Reserved {
		m, v := r.FixedMaskVal()
		c.resPats = append(c.resPats, resPat{size: r.SizeBytes(), mask: m, val: v})
	}
	return c, nil
}

// --- bit-level word helpers (bit i lives in byte i/8, position i%8) ---

func getBits(word []byte, hi, lo int) uint64 {
	var v uint64
	for b := hi; b >= lo; b-- {
		v = v<<1 | uint64(word[b/8]>>(uint(b)%8)&1)
	}
	return v
}

func setBits(word []byte, hi, lo int, v uint64) {
	for b := lo; b <= hi; b++ {
		if v>>(uint(b-lo))&1 == 1 {
			word[b/8] |= 1 << (uint(b) % 8)
		} else {
			word[b/8] &^= 1 << (uint(b) % 8)
		}
	}
}

// wordPair packs up to 16 bytes as two little-endian uint64 words.
func wordPair(word []byte) (p [2]uint64) {
	for i, by := range word {
		p[i/8] |= uint64(by) << (uint(i%8) * 8)
	}
	return p
}

func matches(p [2]uint64, mask, val [2]uint64) bool {
	return p[0]&mask[0] == val[0] && p[1]&mask[1] == val[1]
}

// Encode renders one instruction to its machine bytes.
func (ic *InstCodec) Encode(ops Operands) ([]byte, error) {
	word := make([]byte, ic.Size)
	for b := 0; b < ic.Inst.Enc.Width; b++ {
		w, s := b/64, uint(b%64)
		if ic.Mask[w]>>s&1 == 1 && ic.Val[w]>>s&1 == 1 {
			word[b/8] |= 1 << (uint(b) % 8)
		}
	}
	for _, f := range ic.fields {
		var v uint64
		switch {
		case f.Name == "rd" || f.Name == "rd2":
			n := ops.Rd
			if f.Name == "rd2" {
				n = ops.Rd2
			}
			if n < 0 || n >= 1<<uint(f.SrcWidth()) {
				return nil, fmt.Errorf("enc: %s: register number %d does not fit the %d-bit %s field",
					ic.Inst.Name, n, f.SrcWidth(), f.Name)
			}
			v = uint64(n)
		case ic.operand(f.Name).Kind != spec.OpImm:
			n, ok := ops.Regs[f.Name]
			if !ok {
				return nil, fmt.Errorf("enc: %s: missing register operand %s", ic.Inst.Name, f.Name)
			}
			if n < 0 || n >= 1<<uint(f.SrcWidth()) {
				return nil, fmt.Errorf("enc: %s: register number %d does not fit the %d-bit %s field",
					ic.Inst.Name, n, f.SrcWidth(), f.Name)
			}
			v = uint64(n)
		default:
			op := ic.operand(f.Name)
			iv, ok := ops.Imms[f.Name]
			if !ok {
				return nil, fmt.Errorf("enc: %s: missing immediate operand %s", ic.Inst.Name, f.Name)
			}
			if iv.W() != op.Width {
				return nil, fmt.Errorf("enc: %s: immediate %s is %d bits, operand is %d",
					ic.Inst.Name, f.Name, iv.W(), op.Width)
			}
			hi, lo := f.SrcHi, f.SrcLo
			if hi < 0 {
				hi, lo = op.Width-1, 0
			}
			v = iv.Extract(hi, lo).Uint64()
		}
		setBits(word, f.Hi, f.Lo, v)
	}
	return word, nil
}

// Decode extracts the operand fields from a word already known to match
// this instruction's fixed bits (the caller checks Mask/Val).
func (ic *InstCodec) Decode(word []byte) Operands {
	ops := Operands{Rd: -1, Rd2: -1, Regs: map[string]int{}, Imms: map[string]bv.BV{}}
	immBits := map[string]uint64{}
	for _, f := range ic.fields {
		v := getBits(word, f.Hi, f.Lo)
		switch {
		case f.Name == "rd":
			ops.Rd = int(v)
		case f.Name == "rd2":
			ops.Rd2 = int(v)
		case ic.operand(f.Name).Kind != spec.OpImm:
			ops.Regs[f.Name] = int(v)
		default:
			op := ic.operand(f.Name)
			lo := f.SrcLo
			if f.SrcHi < 0 {
				lo = 0
			}
			immBits[f.Name] |= v << uint(lo)
			if _, ok := ops.Imms[f.Name]; !ok {
				ops.Imms[f.Name] = bv.Zero(op.Width)
			}
		}
	}
	for name, bits := range immBits {
		ops.Imms[name] = bv.New(ic.operand(name).Width, bits)
	}
	return ops
}

func (ic *InstCodec) operand(name string) *spec.Operand {
	for i := range ic.Inst.Operands {
		if ic.Inst.Operands[i].Name == name {
			return &ic.Inst.Operands[i]
		}
	}
	return &spec.Operand{}
}

// DecodeAt decodes the instruction starting at code[off:]. Sizes are
// tried ascending; the pairwise fixed-bit conflict guarantee from spec
// checking makes the first match the only match. Returns the matched
// instruction codec, its operands, and the encoded size.
func (c *Codec) DecodeAt(code []byte, off int) (*InstCodec, Operands, int, error) {
	avail := len(code) - off
	for _, s := range c.Sizes {
		if s > avail {
			break
		}
		word := code[off : off+s]
		p := wordPair(word)
		if ic := c.tries[s].lookup(p); ic != nil {
			return ic, ic.Decode(word), s, nil
		}
	}
	for _, r := range c.resPats {
		if r.size <= avail && matches(wordPair(code[off:off+r.size]), r.mask, r.val) {
			return nil, Operands{}, 0, fmt.Errorf("%w (%d-byte pattern at offset %d)", ErrReserved, r.size, off)
		}
	}
	return nil, Operands{}, 0, fmt.Errorf("%w at offset %d", ErrUnknown, off)
}
