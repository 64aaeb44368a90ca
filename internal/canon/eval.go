package canon

import (
	"fmt"
	"strings"

	"iselgen/internal/term"
)

// String renders the canonical term in the paper's notation: linear
// combinations as "k +w c1·t1 +w c2·t2", atoms by name, op nodes as
// s-expressions.
func (c *CTerm) String() string {
	var sb strings.Builder
	c.write(&sb)
	return sb.String()
}

func (c *CTerm) write(sb *strings.Builder) {
	switch c.Kind {
	case Atom:
		sb.WriteString(c.Var.Name)
	case Lin:
		sb.WriteByte('(')
		fmt.Fprintf(sb, "%s", c.K)
		for _, a := range c.Addends {
			fmt.Fprintf(sb, " +%d %s·", c.Width, a.Coef)
			a.T.write(sb)
		}
		sb.WriteByte(')')
	case OpNode:
		sb.WriteByte('(')
		if c.Op == term.Extract {
			fmt.Fprintf(sb, "extract[%d:%d] ", c.Aux0, c.Aux1)
		} else {
			sb.WriteString(c.Op.String())
			sb.WriteByte(' ')
		}
		for i, a := range c.Args {
			if i > 0 {
				sb.WriteByte(' ')
			}
			a.write(sb)
		}
		sb.WriteByte(')')
	}
}

// Size returns the number of distinct canonical nodes reachable from c.
func (c *CTerm) Size() int {
	seen := map[*CTerm]bool{}
	var walk func(*CTerm)
	walk = func(u *CTerm) {
		if seen[u] {
			return
		}
		seen[u] = true
		switch u.Kind {
		case OpNode:
			for _, a := range u.Args {
				walk(a)
			}
		case Lin:
			for _, a := range u.Addends {
				walk(a.T)
			}
		}
	}
	walk(c)
	return len(seen)
}
