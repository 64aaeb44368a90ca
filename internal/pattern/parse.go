package pattern

import (
	"fmt"
	"strconv"

	"iselgen/internal/gmir"
)

// ParseKey reconstructs a pattern from its Key() serialization, enabling
// rule-library persistence (§VI-A: the synthesis stages are independent
// and their outputs can be persisted and reloaded).
//
// Key grammar:
//
//	node  := leaf | "(" op ":" bits [":" pred] ["m" mem] {" " node} ")"
//	leaf  := ("r"|"i") bits
func ParseKey(key string) (*Pattern, error) {
	p := &keyParser{s: key}
	n, err := p.node()
	if err != nil {
		return nil, fmt.Errorf("pattern: bad key %q: %w", key, err)
	}
	if p.pos != len(p.s) {
		return nil, fmt.Errorf("pattern: trailing junk in key %q", key)
	}
	return New(n), nil
}

type keyParser struct {
	s   string
	pos int
}

func (p *keyParser) node() (*Node, error) {
	if p.pos >= len(p.s) {
		return nil, fmt.Errorf("unexpected end")
	}
	switch c := p.s[p.pos]; c {
	case 'r', 'i':
		p.pos++
		bits, err := p.int()
		if err != nil {
			return nil, err
		}
		return &Node{Ty: gmir.Type{Bits: bits}, LeafReg: c == 'r'}, nil
	case '(':
		p.pos++
		opNum, err := p.int()
		if err != nil {
			return nil, err
		}
		if err := p.expect(':'); err != nil {
			return nil, err
		}
		bits, err := p.int()
		if err != nil {
			return nil, err
		}
		n := &Node{Op: gmir.Opcode(opNum), Ty: gmir.Type{Bits: bits}}
		if p.peek() == ':' {
			p.pos++
			pred, err := p.int()
			if err != nil {
				return nil, err
			}
			n.Pred = gmir.Pred(pred)
		}
		if p.peek() == 'm' {
			p.pos++
			mem, err := p.int()
			if err != nil {
				return nil, err
			}
			n.MemBits = mem
		}
		for p.peek() == ' ' {
			p.pos++
			arg, err := p.node()
			if err != nil {
				return nil, err
			}
			n.Args = append(n.Args, arg)
		}
		if err := p.expect(')'); err != nil {
			return nil, err
		}
		return n, nil
	default:
		return nil, fmt.Errorf("unexpected %q at %d", c, p.pos)
	}
}

func (p *keyParser) peek() byte {
	if p.pos >= len(p.s) {
		return 0
	}
	return p.s[p.pos]
}

func (p *keyParser) expect(c byte) error {
	if p.peek() != c {
		return fmt.Errorf("expected %q at %d", c, p.pos)
	}
	p.pos++
	return nil
}

func (p *keyParser) int() (int, error) {
	start := p.pos
	if p.peek() == '-' {
		p.pos++
	}
	for p.pos < len(p.s) && p.s[p.pos] >= '0' && p.s[p.pos] <= '9' {
		p.pos++
	}
	if p.pos == start {
		return 0, fmt.Errorf("expected number at %d", start)
	}
	return strconv.Atoi(p.s[start:p.pos])
}
