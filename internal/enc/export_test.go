package enc

// Test-only windows into unexported machinery: the trie-free reference
// decoder, the destination-field flags and the full match set (for
// uniqueness sweeps).

// AllMatches returns every instruction whose fixed bits match a prefix
// of code — more than one element means an ambiguous opcode space.
func (c *Codec) AllMatches(code []byte) []*InstCodec {
	var out []*InstCodec
	for _, ic := range c.Insts {
		if ic.Size <= len(code) && matches(wordPair(code[:ic.Size]), ic.Mask, ic.Val) {
			out = append(out, ic)
		}
	}
	return out
}

// MatchesReserved reports whether a reserved pattern matches a prefix.
func (c *Codec) MatchesReserved(code []byte) bool {
	for _, r := range c.resPats {
		if r.size <= len(code) && matches(wordPair(code[:r.size]), r.mask, r.val) {
			return true
		}
	}
	return false
}

// HasRd reports whether the encoding carries a destination-register field.
func (ic *InstCodec) HasRd() bool { return ic.hasRd }

// HasRd2 reports whether the encoding carries a second destination field.
func (ic *InstCodec) HasRd2() bool { return ic.hasRd2 }

// DecodeLinear is the trie-free reference decoder the tests cross-check
// the trie against.
func (c *Codec) DecodeLinear(code []byte, off int) (*InstCodec, int) {
	avail := len(code) - off
	for _, s := range c.Sizes {
		if s > avail {
			break
		}
		p := wordPair(code[off : off+s])
		for _, ic := range c.Insts {
			if ic.Size == s && matches(p, ic.Mask, ic.Val) {
				return ic, s
			}
		}
	}
	return nil, 0
}
