package trie

import (
	"fmt"
	"sort"
	"strings"

	"iselgen/internal/bv"
	"iselgen/internal/canon"
	"iselgen/internal/term"
)

// refLookup is the reference search the head buckets must reproduce: it
// visits every edge of every node in elist order and deduplicates
// matches on a printed binding signature. Lookup must return exactly its
// matches, in its order, with its bindings.
func refLookup(ix *Index, query *canon.CTerm) []Match {
	root := ix.roots[query.Width]
	if root == nil {
		return nil
	}
	s := &refSearcher{ix: ix, seen: map[string]bool{}}
	qK, qAddends := linView(query)
	used := make([]bool, len(qAddends))
	s.walk(root, qK, qAddends, used, &Binding{}, false)
	return s.matches
}

type refSearcher struct {
	ix      *Index
	steps   int
	matches []Match
	seen    map[string]bool
}

func (s *refSearcher) walk(n *node, qK bv.BV, qAddends []canon.Addend, used []bool, bind *Binding, pcDebt bool) {
	if s.steps++; s.steps > maxSearchSteps || len(s.matches) >= maxMatches {
		return
	}
	if n.terms != nil && allUsed(used) && !pcDebt {
		if ct, ok := n.terms[bvKey{qK.Lo, qK.Hi}]; ok {
			s.emit(ct, bind)
		}
	}
	for ei := range n.elist {
		e := &n.elist[ei]
		coefI := e.coef
		sub, next := e.sub, e.next
		imm, hi, lo, isImm := e.imm, e.immHi, e.immLo, e.isImm
		for qi := range qAddends {
			if used[qi] {
				continue
			}
			if pcDebt && isImm {
				if qimm, qhi, qlo, qok := immWrapper(qAddends[qi].T); qok {
					m := bind.mark()
					if bind.bindImm(ImmBind{ISA: imm, ISAHi: hi, ISALo: lo,
						Query: qimm, QHi: qhi, QLo: qlo,
						CoefQ: qAddends[qi].Coef, CoefI: coefI, PCRel: true}) {
						used[qi] = true
						s.walk(next, qK, qAddends, used, bind, false)
						used[qi] = false
					}
					bind.rollback(m)
				}
			}
			m := bind.mark()
			var uok bool
			switch {
			case e.isImm:
				uok = unifyImm(bind, qAddends[qi].Coef, qAddends[qi].T, imm, hi, lo, coefI)
			case e.isPCImm:
				uok = unifyPCImm(bind, qAddends[qi].Coef, qAddends[qi].T, e.pcImm, e.pcHi, e.pcLo, e.pcCoef, coefI)
			default:
				uok = unifyShape(bind, qAddends[qi].Coef, qAddends[qi].T, coefI, sub)
			}
			if uok {
				used[qi] = true
				s.walk(next, qK, qAddends, used, bind, pcDebt)
				used[qi] = false
			}
			bind.rollback(m)
		}
		if isImm {
			if !qK.IsZero() {
				if v, ok := solveScaled(qK, coefI); ok {
					m := bind.mark()
					if bind.bindImm(ImmBind{ISA: imm, ISAHi: hi, ISALo: lo,
						Const: v, CoefQ: bv.New(qK.W(), 1), CoefI: coefI, PCRel: pcDebt}) {
						s.walk(next, bv.Zero(qK.W()), qAddends, used, bind, false)
					}
					bind.rollback(m)
				}
			}
			m := bind.mark()
			if bind.bindImm(ImmBind{ISA: imm, ISAHi: hi, ISALo: lo,
				Const: bv.Zero(imm.Width), CoefQ: bv.New(qK.W(), 1), CoefI: coefI}) {
				s.walk(next, qK, qAddends, used, bind, pcDebt)
			}
			bind.rollback(m)
		}
		if !pcDebt && sub.IsAtom() && sub.AtomKind() == term.KindPC &&
			coefI.Lo == 1 && coefI.Hi == 0 {
			s.walk(next, qK, qAddends, used, bind, true)
		}
	}
}

func (s *refSearcher) emit(ct *canon.CTerm, bind *Binding) {
	sig := fmt.Sprintf("%d|%s", ct.ID, refSignature(bind))
	if s.seen[sig] {
		return
	}
	s.seen[sig] = true
	s.matches = append(s.matches, Match{Term: ct, Payloads: s.ix.payloads[ct], Binding: bind.clone()})
}

// refSignature serializes a binding for match deduplication.
func refSignature(b *Binding) string {
	rs := append([]RegBind(nil), b.Regs...)
	sort.Slice(rs, func(i, j int) bool { return rs[i].ISA.ID < rs[j].ISA.ID })
	var sb strings.Builder
	for _, rb := range rs {
		fmt.Fprintf(&sb, "r%d=%d;", rb.ISA.ID, rb.Query.ID)
	}
	im := append([]ImmBind(nil), b.Imms...)
	sort.Slice(im, func(i, j int) bool { return im[i].ISA.ID < im[j].ISA.ID })
	for _, ib := range im {
		q := -1
		if ib.Query != nil {
			q = ib.Query.ID
		}
		fmt.Fprintf(&sb, "i%d[%d:%d]=%d[%d:%d]c%v/%v/%v%v;",
			ib.ISA.ID, ib.ISAHi, ib.ISALo, q, ib.QHi, ib.QLo, ib.Const, ib.CoefQ, ib.CoefI, ib.PCRel)
	}
	return sb.String()
}
