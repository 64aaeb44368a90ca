package canon

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// key is the interning key canonical terms had before the content-hash
// tables: the term's own fields and its children's IDs, as a string.
func (c *CTerm) key() string {
	var sb strings.Builder
	var buf [8]byte
	wInt := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		sb.Write(buf[:])
	}
	sb.WriteByte(byte(c.Kind))
	sb.WriteByte(byte(c.Width))
	switch c.Kind {
	case Atom:
		sb.WriteString(c.Var.Name)
	case OpNode:
		sb.WriteByte(byte(c.Op))
		wInt(uint64(c.Aux0))
		wInt(uint64(c.Aux1))
		for _, a := range c.Args {
			wInt(uint64(a.ID))
		}
	case Lin:
		wInt(c.K.Lo)
		wInt(c.K.Hi)
		for _, a := range c.Addends {
			wInt(a.Coef.Lo)
			wInt(a.Coef.Hi)
			wInt(uint64(a.T.ID))
		}
	}
	return sb.String()
}

// NewKeyStringCtx returns a context that interns by key string, the
// reference the content-hash tables must reproduce.
func NewKeyStringCtx() *Ctx {
	cx := NewCtx()
	byKey := map[string]*CTerm{}
	cx.ref = func(cx *Ctx, c *CTerm) *CTerm {
		key := c.key()
		if old, ok := byKey[key]; ok {
			return old
		}
		c.ID = len(cx.terms)
		c.Hash = contentHash(c)
		cx.terms = append(cx.terms, c)
		byKey[key] = c
		return c
	}
	return cx
}

// NewOneBucketCtx returns a context whose tables file every term under
// one hash, so every lookup past the first term takes the collision path.
func NewOneBucketCtx() *Ctx {
	cx := NewCtx()
	cx.ref = func(cx *Ctx, c *CTerm) *CTerm {
		c.Hash = contentHash(c)
		if old := cx.lookup(c, 0); old != nil {
			return old
		}
		return cx.insert(c, 0)
	}
	return cx
}

// SameTerms reports the first difference between the interned terms of
// two contexts: their IDs, kinds, widths, hashes, operands, and addends
// in order.
func SameTerms(a, b *Ctx) error {
	if len(a.terms) != len(b.terms) {
		return fmt.Errorf("%d terms vs %d", len(a.terms), len(b.terms))
	}
	for id, x := range a.terms {
		y := b.terms[id]
		if x.ID != id || y.ID != id {
			return fmt.Errorf("term %d carries IDs %d and %d", id, x.ID, y.ID)
		}
		if x.Kind != y.Kind || x.Width != y.Width || x.Hash != y.Hash ||
			x.Op != y.Op || x.Aux0 != y.Aux0 || x.Aux1 != y.Aux1 || x.K != y.K ||
			len(x.Args) != len(y.Args) || len(x.Addends) != len(y.Addends) ||
			(x.Kind == Atom && (x.Var.Name != y.Var.Name || x.Var.Kind != y.Var.Kind)) {
			return fmt.Errorf("term %d differs: %s vs %s", id, x, y)
		}
		for i := range x.Args {
			if x.Args[i].ID != y.Args[i].ID {
				return fmt.Errorf("term %d: operand %d is term %d vs %d", id, i, x.Args[i].ID, y.Args[i].ID)
			}
		}
		for i := range x.Addends {
			if x.Addends[i].Coef != y.Addends[i].Coef || x.Addends[i].T.ID != y.Addends[i].T.ID {
				return fmt.Errorf("term %d: addend %d differs", id, i)
			}
		}
	}
	return nil
}
