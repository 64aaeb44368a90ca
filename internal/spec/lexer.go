// Package spec implements the reproduction's stand-in for SAIL + ISLA
// (paper §IV-A): a small imperative instruction-specification language
// and a symbolic executor that turns each instruction into a set of
// per-effect bitvector terms (register writes, flag writes, memory
// stores, PC updates).
//
// A specification looks like:
//
//	// add (shifted register), 64-bit
//	inst ADDXrs(rn: reg64, rm: reg64, shift: imm6) {
//	    rd = rn + (rm << zext(shift, 64));
//	}
//
//	inst LDRXpost(rn: reg64, simm: imm9) {
//	    rd = load(rn, 64);
//	    rn = rn + sext(simm, 64);   // write-back: second register effect
//	}
//
// Assignments to `rd` (and `rd2`) produce destination-register effects;
// assignments to a declared register operand produce write-back effects;
// `mem[addr, width] = v` produces a store effect; `pc = v` a PC effect;
// and `flags.N = v` (Z, C, V) flag effects. `if` statements are executed
// symbolically: both branches run on copies of the state and differing
// writes join into ite terms, exactly how ISLA's symbolic execution
// handles branching control flow in SAIL definitions.
package spec

import (
	"fmt"
	"strings"
)

type tokKind int

const (
	tEOF tokKind = iota
	tIdent
	tNumber
	tPunct // operators and punctuation, in text
)

type token struct {
	kind tokKind
	text string
	num  uint64
	// width of a number literal written as N:w (0 if unspecified).
	// hasWidth distinguishes an explicit N:0 — which only encoding bit
	// ranges like [6:0] may produce — from no suffix at all.
	numWidth int
	hasWidth bool
	line     int
}

type lexer struct {
	src  string
	pos  int
	line int
	toks []token
}

// lex splits src into tokens. It returns an error with a line number on
// any malformed input.
func lex(src string) ([]token, error) {
	// The builtin specs average over two bytes per token; sizing the
	// slice for that up front spares the copies of growing it.
	l := &lexer{src: src, line: 1, toks: make([]token, 0, len(src)/2+1)}
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\n':
			l.line++
			l.pos++
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case isAlpha(c):
			start := l.pos
			for l.pos < len(l.src) && (isAlpha(l.src[l.pos]) || isDigit(l.src[l.pos])) {
				l.pos++
			}
			l.toks = append(l.toks, token{kind: tIdent, text: l.src[start:l.pos], line: l.line})
		case isDigit(c):
			if err := l.lexNumber(); err != nil {
				return nil, err
			}
		default:
			if err := l.lexPunct(); err != nil {
				return nil, err
			}
		}
	}
	l.toks = append(l.toks, token{kind: tEOF, line: l.line})
	return l.toks, nil
}

func (l *lexer) lexNumber() error {
	start := l.pos
	base := uint64(10)
	if strings.HasPrefix(l.src[l.pos:], "0x") || strings.HasPrefix(l.src[l.pos:], "0X") {
		base = 16
		l.pos += 2
	} else if strings.HasPrefix(l.src[l.pos:], "0b") {
		base = 2
		l.pos += 2
	}
	var v uint64
	digits := 0
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		var d uint64
		switch {
		case isDigit(c):
			d = uint64(c - '0')
		case base == 16 && c >= 'a' && c <= 'f':
			d = uint64(c-'a') + 10
		case base == 16 && c >= 'A' && c <= 'F':
			d = uint64(c-'A') + 10
		case c == '_':
			l.pos++
			continue
		default:
			goto done
		}
		if d >= base {
			return fmt.Errorf("spec:%d: digit %q out of range for base %d", l.line, c, base)
		}
		v = v*base + d
		digits++
		l.pos++
	}
done:
	if digits == 0 {
		return fmt.Errorf("spec:%d: malformed number %q", l.line, l.src[start:l.pos])
	}
	tok := token{kind: tNumber, num: v, line: l.line, text: l.src[start:l.pos]}
	// Optional :width suffix. A ':' not followed by a digit is left for
	// the punctuation lexer. An explicit 0 suffix is tolerated here
	// (hasWidth distinguishes it) because encoding bit ranges like
	// [6:0] lex the hi:lo pair as one suffixed number; the expression
	// parser still rejects width-0 literals.
	if l.pos+1 < len(l.src) && l.src[l.pos] == ':' && isDigit(l.src[l.pos+1]) {
		l.pos++
		w, digits := 0, 0
		for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
			if w <= 128 { // saturate instead of overflowing on absurd suffixes
				w = w*10 + int(l.src[l.pos]-'0')
			}
			digits++
			l.pos++
		}
		if digits == 0 {
			return fmt.Errorf("spec:%d: missing width after ':'", l.line)
		}
		if w > 128 {
			return fmt.Errorf("spec:%d: width %d out of range (1..128)", l.line, w)
		}
		tok.numWidth = w
		tok.hasWidth = true
	}
	l.toks = append(l.toks, tok)
	return nil
}

// punctuation, longest first.
var puncts = []string{
	"<<", ">>", "==", "!=", "&&", "||",
	"(", ")", "{", "}", "[", "]", ",", ";", ":", "=", "+", "-", "*",
	"&", "|", "^", "~", "!", ".", "<", ">", "%", "/",
}

func (l *lexer) lexPunct() error {
	for _, p := range puncts {
		if strings.HasPrefix(l.src[l.pos:], p) {
			l.toks = append(l.toks, token{kind: tPunct, text: p, line: l.line})
			l.pos += len(p)
			return nil
		}
	}
	return fmt.Errorf("spec:%d: unexpected character %q", l.line, l.src[l.pos])
}

func isAlpha(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }
