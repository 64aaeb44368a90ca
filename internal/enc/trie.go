package enc

// The disassembler's dispatch structure: a binary trie over the fixed
// bits of one size class. Each interior node tests a single bit of the
// instruction word; candidates for which that bit is not fixed descend
// into both subtrees (they can match either value). Leaves hold the
// survivors and verify their full fixed-bit mask linearly — the spec
// checker's pairwise-conflict guarantee makes at most one survivor
// match, so lookup needs no priorities and no backtracking.

type trieNode struct {
	// Interior node: test bit, branch on its value.
	bit       int
	zero, one *trieNode
	// Leaf: verify candidates against their full mask/val.
	leaves []*InstCodec
}

// maxLeafLinear is the candidate count below which a linear scan beats
// further bit tests.
const maxLeafLinear = 2

// buildTrie constructs the dispatch trie for one size class. depth
// bounds recursion against pathological field layouts (the fallback is
// a correct linear leaf).
func buildTrie(cands []*InstCodec, depth int) *trieNode {
	if len(cands) <= maxLeafLinear || depth > 64 {
		return &trieNode{bit: -1, leaves: cands}
	}
	width := cands[0].Size * 8
	for _, ic := range cands {
		if w := ic.Size * 8; w < width {
			width = w
		}
	}
	// Pick the bit minimizing the larger subtree. A candidate without
	// that bit fixed lands in both subtrees, so splitting on bits fixed
	// in many candidates wins.
	bestBit, bestCost := -1, len(cands)+1
	for b := 0; b < width; b++ {
		nz, no := 0, 0
		for _, ic := range cands {
			w, s := b/64, uint(b%64)
			switch {
			case ic.Mask[w]>>s&1 == 0:
				nz++
				no++
			case ic.Val[w]>>s&1 == 0:
				nz++
			default:
				no++
			}
		}
		cost := nz
		if no > cost {
			cost = no
		}
		if cost < bestCost {
			bestCost, bestBit = cost, b
		}
	}
	if bestBit < 0 || bestCost >= len(cands) {
		// No bit separates anything: fall back to a linear leaf.
		return &trieNode{bit: -1, leaves: cands}
	}
	var zs, os []*InstCodec
	w, s := bestBit/64, uint(bestBit%64)
	for _, ic := range cands {
		switch {
		case ic.Mask[w]>>s&1 == 0:
			zs = append(zs, ic)
			os = append(os, ic)
		case ic.Val[w]>>s&1 == 0:
			zs = append(zs, ic)
		default:
			os = append(os, ic)
		}
	}
	return &trieNode{
		bit:  bestBit,
		zero: buildTrie(zs, depth+1),
		one:  buildTrie(os, depth+1),
	}
}

// lookup walks the trie with the word's bits and returns the unique
// matching instruction, or nil.
func (n *trieNode) lookup(p [2]uint64) *InstCodec {
	for n.bit >= 0 {
		if p[n.bit/64]>>(uint(n.bit)%64)&1 == 0 {
			n = n.zero
		} else {
			n = n.one
		}
	}
	for _, ic := range n.leaves {
		if matches(p, ic.Mask, ic.Val) {
			return ic
		}
	}
	return nil
}
