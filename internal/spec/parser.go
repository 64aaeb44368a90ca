package spec

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse parses a specification source file.
func Parse(src string) (*File, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	f := &File{}
	for !p.at(tEOF) {
		if p.atIdent("reserved") {
			enc, err := p.parseEncoding("reserved")
			if err != nil {
				return nil, err
			}
			f.Reserved = append(f.Reserved, enc)
			continue
		}
		inst, err := p.parseInst()
		if err != nil {
			return nil, err
		}
		f.Insts = append(f.Insts, inst)
	}
	return f, nil
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) at(k tokKind) bool { return p.cur().kind == k }

func (p *parser) atPunct(s string) bool {
	return p.cur().kind == tPunct && p.cur().text == s
}

func (p *parser) atIdent(s string) bool {
	return p.cur().kind == tIdent && p.cur().text == s
}

func (p *parser) eatPunct(s string) error {
	if !p.atPunct(s) {
		return p.errf("expected %q, found %q", s, p.cur().text)
	}
	p.pos++
	return nil
}

func (p *parser) eatIdent() (string, error) {
	if !p.at(tIdent) {
		return "", p.errf("expected identifier, found %q", p.cur().text)
	}
	return p.next().text, nil
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("spec:%d: %s", p.cur().line, fmt.Sprintf(format, args...))
}

func (p *parser) parseInst() (*InstDef, error) {
	line := p.cur().line
	if !p.atIdent("inst") {
		return nil, p.errf("expected 'inst', found %q", p.cur().text)
	}
	p.pos++
	name, err := p.eatIdent()
	if err != nil {
		return nil, err
	}
	if err := p.eatPunct("("); err != nil {
		return nil, err
	}
	inst := &InstDef{Name: name, Line: line}
	for !p.atPunct(")") {
		if len(inst.Operands) > 0 {
			if err := p.eatPunct(","); err != nil {
				return nil, err
			}
		}
		opName, err := p.eatIdent()
		if err != nil {
			return nil, err
		}
		if err := p.eatPunct(":"); err != nil {
			return nil, err
		}
		tyName, err := p.eatIdent()
		if err != nil {
			return nil, err
		}
		op, err := parseOperandType(opName, tyName)
		if err != nil {
			return nil, p.errf("%v", err)
		}
		for _, prev := range inst.Operands {
			if prev.Name == op.Name {
				return nil, p.errf("duplicate operand %q in %s", op.Name, name)
			}
		}
		inst.Operands = append(inst.Operands, op)
	}
	p.pos++ // ')'
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	inst.Body = body
	if p.atIdent("enc") {
		enc, err := p.parseEncoding("enc")
		if err != nil {
			return nil, err
		}
		inst.Enc = enc
	}
	return inst, nil
}

// parseEncoding parses `enc(width) { fields }` after an instruction
// body, or a top-level `reserved(width) { fields }` pattern. A field is
//
//	[hi:lo] = value ;
//
// where value is a number (fixed bits), an operand/rd/rd2 name, or an
// immediate-operand slice `name[hi:lo]`. `[n]` abbreviates `[n:n]`.
func (p *parser) parseEncoding(kw string) (*Encoding, error) {
	line := p.cur().line
	p.pos++ // 'enc' / 'reserved'
	if err := p.eatPunct("("); err != nil {
		return nil, err
	}
	if !p.at(tNumber) {
		return nil, p.errf("expected %s width", kw)
	}
	enc := &Encoding{Width: int(p.next().num), Line: line}
	if err := p.eatPunct(")"); err != nil {
		return nil, err
	}
	if err := p.eatPunct("{"); err != nil {
		return nil, err
	}
	for !p.atPunct("}") {
		f, err := p.parseEncField()
		if err != nil {
			return nil, err
		}
		enc.Fields = append(enc.Fields, f)
	}
	p.pos++ // '}'
	return enc, nil
}

// parseRange parses `[hi:lo]` or `[n]`, positioned at '['. The lexer
// folds `hi:lo` into one width-suffixed number token, so both shapes
// are a single tNumber here.
func (p *parser) parseRange() (hi, lo int, err error) {
	if err := p.eatPunct("["); err != nil {
		return 0, 0, err
	}
	if !p.at(tNumber) {
		return 0, 0, p.errf("expected bit range")
	}
	t := p.next()
	hi = int(t.num)
	lo = hi
	if t.hasWidth {
		lo = t.numWidth
	}
	if err := p.eatPunct("]"); err != nil {
		return 0, 0, err
	}
	return hi, lo, nil
}

func (p *parser) parseEncField() (EncField, error) {
	f := EncField{SrcHi: -1, SrcLo: -1, Line: p.cur().line}
	var err error
	if f.Hi, f.Lo, err = p.parseRange(); err != nil {
		return f, err
	}
	if err := p.eatPunct("="); err != nil {
		return f, err
	}
	switch {
	case p.at(tNumber):
		f.Fixed = true
		f.Val = p.next().num
	case p.at(tIdent):
		f.Name = p.next().text
		if p.atPunct("[") {
			if f.SrcHi, f.SrcLo, err = p.parseRange(); err != nil {
				return f, err
			}
		}
	default:
		return f, p.errf("expected field value, found %q", p.cur().text)
	}
	return f, p.eatPunct(";")
}

func parseOperandType(name, ty string) (Operand, error) {
	for prefix, kind := range map[string]OperandKind{"reg": OpReg, "vec": OpVec, "imm": OpImm} {
		if strings.HasPrefix(ty, prefix) {
			w, err := strconv.Atoi(ty[len(prefix):])
			if err != nil || w < 1 || w > 128 {
				return Operand{}, fmt.Errorf("bad operand type %q for %s", ty, name)
			}
			return Operand{Name: name, Kind: kind, Width: w}, nil
		}
	}
	return Operand{}, fmt.Errorf("unknown operand type %q for %s", ty, name)
}

func (p *parser) parseBlock() ([]Stmt, error) {
	if err := p.eatPunct("{"); err != nil {
		return nil, err
	}
	var stmts []Stmt
	for !p.atPunct("}") {
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
	}
	p.pos++ // '}'
	return stmts, nil
}

func (p *parser) parseStmt() (Stmt, error) {
	line := p.cur().line
	switch {
	case p.atIdent("let"):
		p.pos++
		name, err := p.eatIdent()
		if err != nil {
			return nil, err
		}
		if err := p.eatPunct("="); err != nil {
			return nil, err
		}
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.eatPunct(";"); err != nil {
			return nil, err
		}
		return &LetStmt{Name: name, X: x, Line: line}, nil

	case p.atIdent("if"):
		p.pos++
		if err := p.eatPunct("("); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.eatPunct(")"); err != nil {
			return nil, err
		}
		then, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		var els []Stmt
		if p.atIdent("else") {
			p.pos++
			if p.atIdent("if") {
				s, err := p.parseStmt()
				if err != nil {
					return nil, err
				}
				els = []Stmt{s}
			} else {
				els, err = p.parseBlock()
				if err != nil {
					return nil, err
				}
			}
		}
		return &IfStmt{Cond: cond, Then: then, Else: els, Line: line}, nil

	case p.atIdent("mem"):
		p.pos++
		if err := p.eatPunct("["); err != nil {
			return nil, err
		}
		addr, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.eatPunct(","); err != nil {
			return nil, err
		}
		if !p.at(tNumber) {
			return nil, p.errf("expected store width")
		}
		w := int(p.next().num)
		if w < 1 || w > 128 {
			return nil, p.errf("store width %d out of range (1..128)", w)
		}
		if err := p.eatPunct("]"); err != nil {
			return nil, err
		}
		if err := p.eatPunct("="); err != nil {
			return nil, err
		}
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.eatPunct(";"); err != nil {
			return nil, err
		}
		return &MemStmt{Addr: addr, Width: w, X: x, Line: line}, nil

	case p.atIdent("flags"):
		p.pos++
		if err := p.eatPunct("."); err != nil {
			return nil, err
		}
		flag, err := p.eatIdent()
		if err != nil {
			return nil, err
		}
		if !isFlagName(flag) {
			return nil, p.errf("unknown flag %q", flag)
		}
		if err := p.eatPunct("="); err != nil {
			return nil, err
		}
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.eatPunct(";"); err != nil {
			return nil, err
		}
		return &FlagStmt{Flag: flag, X: x, Line: line}, nil

	case p.at(tIdent):
		target := p.next().text
		if err := p.eatPunct("="); err != nil {
			return nil, err
		}
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.eatPunct(";"); err != nil {
			return nil, err
		}
		return &AssignStmt{Target: target, X: x, Line: line}, nil
	}
	return nil, p.errf("expected statement, found %q", p.cur().text)
}

func isFlagName(s string) bool {
	return s == "N" || s == "Z" || s == "C" || s == "V"
}

// Operator precedence, loosest first.
var precedence = map[string]int{
	"||": 1, "|": 1, "^": 2, "&&": 3, "&": 3,
	"==": 4, "!=": 4,
	"<<": 5, ">>": 5,
	"+": 6, "-": 6,
	"*": 7, "/": 7, "%": 7,
}

func (p *parser) parseExpr() (Expr, error) { return p.parseBin(1) }

func (p *parser) parseBin(minPrec int) (Expr, error) {
	lhs, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		if p.cur().kind != tPunct {
			return lhs, nil
		}
		op := p.cur().text
		prec, ok := precedence[op]
		if !ok || prec < minPrec {
			return lhs, nil
		}
		line := p.cur().line
		p.pos++
		rhs, err := p.parseBin(prec + 1)
		if err != nil {
			return nil, err
		}
		lhs = &Binary{Op: op, X: lhs, Y: rhs, Line: line}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	line := p.cur().line
	for _, op := range []string{"-", "~", "!"} {
		if p.atPunct(op) {
			p.pos++
			x, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			return &Unary{Op: op, X: x, Line: line}, nil
		}
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch {
	case p.atPunct("("):
		p.pos++
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.eatPunct(")"); err != nil {
			return nil, err
		}
		return x, nil

	case t.kind == tNumber:
		p.pos++
		if t.hasWidth && t.numWidth == 0 {
			return nil, p.errf("width 0 out of range (1..128)")
		}
		return &Num{Val: t.num, Width: t.numWidth, Line: t.line}, nil

	case t.kind == tIdent && t.text == "flags":
		p.pos++
		if err := p.eatPunct("."); err != nil {
			return nil, err
		}
		flag, err := p.eatIdent()
		if err != nil {
			return nil, err
		}
		if !isFlagName(flag) {
			return nil, p.errf("unknown flag %q", flag)
		}
		return &FlagRef{Flag: flag, Line: t.line}, nil

	case t.kind == tIdent:
		p.pos++
		if p.atPunct("(") {
			p.pos++
			call := &Call{Fn: t.text, Line: t.line}
			for !p.atPunct(")") {
				if len(call.Args) > 0 {
					if err := p.eatPunct(","); err != nil {
						return nil, err
					}
				}
				a, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				call.Args = append(call.Args, a)
			}
			p.pos++
			return call, nil
		}
		return &Ident{Name: t.text, Line: t.line}, nil
	}
	return nil, p.errf("expected expression, found %q", t.text)
}
