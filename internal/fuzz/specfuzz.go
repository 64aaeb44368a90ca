package fuzz

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"

	"iselgen/internal/bv"
	"iselgen/internal/core"
	"iselgen/internal/gmir"
	"iselgen/internal/isa"
	"iselgen/internal/isel"
	"iselgen/internal/pattern"
	"iselgen/internal/rules"
	"iselgen/internal/solver"
	"iselgen/internal/spec"
	"iselgen/internal/term"
)

// The spec oracle perturbs an ISA specification and asserts the
// pipeline's contract: spec.Check either accepts the mutant, in which
// case synthesis must produce a library whose selections still agree
// with the gMIR interpreter (the mutated semantics are used on BOTH
// sides — by the verifier during synthesis and by the simulator during
// execution, so any disagreement is a synthesis soundness bug), or it
// rejects the mutant with a positioned diagnostic — never a panic.

// baseSpec is a compact accumulator-style ISA: enough reg-reg coverage
// to select the restricted program set, plus immediate-bearing and
// memory instructions purely as mutation fodder.
const baseSpec = `inst zadd(a: reg64, b: reg64) { rd = a + b; }
inst zsub(a: reg64, b: reg64) { rd = a - b; }
inst zmul(a: reg64, b: reg64) { rd = a * b; }
inst zand(a: reg64, b: reg64) { rd = a & b; }
inst zor(a: reg64, b: reg64) { rd = a | b; }
inst zxor(a: reg64, b: reg64) { rd = a ^ b; }
inst zaddk(a: reg64, k: imm16) { rd = a + zext(k, 64); }
inst zshl(a: reg64, s: imm6) { rd = a << zext(s, 64); }
inst zsetlt(a: reg64, b: reg64) { rd = zext(slt(a, b), 64); }
inst zld(a: reg64, k: imm12) { rd = load(a + zext(k, 64), 64); }
inst zst(v: reg64, a: reg64, k: imm12) { mem[a + zext(k, 64), 64] = v; }
`

// specDiag matches the positioned diagnostics the spec package is
// contractually required to produce for any rejected input.
var specDiag = regexp.MustCompile(`^spec(:\d+)?: `)

// SpecOptions configures the spec oracle.
type SpecOptions struct {
	// Synth differential-checks accepted mutants (synthesize a library,
	// select and simulate random programs). Off, the oracle only checks
	// the accept-or-diagnose contract, which is cheap enough for CI.
	Synth bool
	// Progs is the number of programs per accepted mutant (default 4).
	Progs int
}

// CheckSpec runs one deterministic spec-mutation iteration. It returns
// the mutated source (already shrunk when failing) and a nil error, a
// genuine failure, or ErrSkip when the mutant was rejected with a proper
// diagnostic (the common, healthy case).
func CheckSpec(seed uint64, iter int, opts SpecOptions) (string, error) {
	rng := bv.NewRNG(SubSeed(seed, uint64(iter)))
	mutated := MutateSpec(rng, baseSpec)
	err := checkSpecSrc(mutated, seed, opts)
	if IsFailure(err) {
		mutated = ShrinkSpec(mutated, func(s string) bool {
			return IsFailure(checkSpecSrc(s, seed, opts))
		})
		err = checkSpecSrc(mutated, seed, opts)
	}
	return mutated, err
}

// checkSpecSrc checks one spec source against the oracle contract.
func checkSpecSrc(src string, seed uint64, opts SpecOptions) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	if _, cerr := spec.Check(src); cerr != nil {
		if !specDiag.MatchString(cerr.Error()) {
			return fmt.Errorf("spec: diagnostic without position: %q", cerr.Error())
		}
		return fmt.Errorf("%w (rejected: %s)", ErrSkip, cerr)
	}
	if !opts.Synth {
		return nil
	}

	b := term.NewBuilder()
	target, lerr := isa.LoadTarget(b, "zeta-fuzz", src, nil, 4)
	if lerr != nil {
		// Check accepted but LoadTarget refused: the two front doors must
		// agree on what is a valid specification.
		return fmt.Errorf("spec: Check accepted but LoadTarget rejected: %v", lerr)
	}

	synth := core.New(b, target, core.Config{
		TestInputs: 64, MaxSeqLen: 1, SMTMaxConflicts: 8000, Workers: 2,
		Verdicts: solver.New(0),
	})
	synth.BuildPool()
	lib := rules.NewLibrary("zeta-fuzz")
	synth.Synthesize(specPatterns(), lib)

	backend := &isel.Backend{Name: "zeta-fuzz", ISA: target, Lib: lib, Hooks: isel.Hooks{}}
	pl := &Pipeline{Name: "zeta-fuzz", Primary: backend}
	cfg := GenConfig{
		MinOps: 1, MaxOps: 6,
		Widths: []int{64},
		Ops:    []string{"add", "sub", "mul", "and", "or", "xor"},
		// No constants and no memory: the backend has empty hooks, so the
		// only legal lowering paths are the synthesized reg-reg rules.
	}
	progs := opts.Progs
	if progs == 0 {
		progs = 4
	}
	for i := 0; i < progs; i++ {
		p := Gen(rng2(seed, i), cfg)
		vecs := Vectors(rng2(seed, 1000+i), p, 4)
		if perr := CheckProg(pl, p, vecs); IsFailure(perr) {
			return fmt.Errorf("spec: accepted mutant produced unsound library: %w\nprogram:\n%s", perr, p.Format())
		}
	}
	return nil
}

// rng2 derives a fixed per-purpose RNG so spec-oracle programs do not
// depend on how much entropy mutation consumed.
func rng2(seed uint64, salt int) *bv.RNG {
	return bv.NewRNG(SubSeed(seed, 0x5bec0000+uint64(salt)))
}

// specPatterns is the reg-reg pattern set matching the restricted
// generator vocabulary.
func specPatterns() []*pattern.Pattern {
	ops := []gmir.Opcode{gmir.GAdd, gmir.GSub, gmir.GMul, gmir.GAnd, gmir.GOr, gmir.GXor}
	var out []*pattern.Pattern
	for _, op := range ops {
		out = append(out, pattern.New(
			pattern.Op(op, gmir.S64, pattern.Leaf(gmir.S64), pattern.Leaf(gmir.S64))))
	}
	return out
}

// MutateSpec applies 1–3 random textual mutations: swapping operand
// identifiers inside a body, tweaking a numeric literal (widths
// included), or dropping an instruction line.
func MutateSpec(rng *bv.RNG, src string) string {
	lines := strings.Split(strings.TrimRight(src, "\n"), "\n")
	n := 1 + rng.Intn(3)
	for i := 0; i < n && len(lines) > 1; i++ {
		li := rng.Intn(len(lines))
		switch rng.Intn(3) {
		case 0:
			lines[li] = swapOperands(rng, lines[li])
		case 1:
			lines[li] = tweakNumber(rng, lines[li])
		default:
			lines = append(lines[:li], lines[li+1:]...)
		}
	}
	return strings.Join(lines, "\n") + "\n"
}

// swapOperands exchanges two operand names throughout a line's body.
func swapOperands(rng *bv.RNG, line string) string {
	open := strings.IndexByte(line, '(')
	close := strings.IndexByte(line, ')')
	brace := strings.IndexByte(line, '{')
	if open < 0 || close < open || brace < close {
		return line
	}
	var names []string
	for _, f := range strings.Split(line[open+1:close], ",") {
		name, _, ok := strings.Cut(f, ":")
		if ok {
			names = append(names, strings.TrimSpace(name))
		}
	}
	if len(names) < 2 {
		return line
	}
	a := names[rng.Intn(len(names))]
	b := names[rng.Intn(len(names))]
	if a == b {
		b = names[(indexOf(names, a)+1)%len(names)]
	}
	head, body := line[:brace], line[brace:]
	toks := splitTokens(body)
	for i, t := range toks {
		switch t {
		case a:
			toks[i] = b
		case b:
			toks[i] = a
		}
	}
	return head + strings.Join(toks, "")
}

// tweakNumber perturbs one numeric token anywhere in the line — body
// constants, extension widths, and operand type widths alike.
func tweakNumber(rng *bv.RNG, line string) string {
	toks := splitTokens(line)
	var nums []int
	for i, t := range toks {
		if _, err := strconv.Atoi(t); err == nil {
			nums = append(nums, i)
		}
	}
	if len(nums) == 0 {
		return line
	}
	i := nums[rng.Intn(len(nums))]
	orig, _ := strconv.Atoi(toks[i])
	repl := []int{0, 1, 2, 7, 8, 63, 64, 65, 127, 128, 129, 255, 4096, 99999, orig + 1, orig - 1}
	toks[i] = strconv.Itoa(repl[rng.Intn(len(repl))])
	return strings.Join(toks, "")
}

// splitTokens splits a string into identifier/number runs and single
// separator characters, preserving everything (join with "" round-trips).
func splitTokens(s string) []string {
	var toks []string
	i := 0
	isWord := func(c byte) bool {
		return c == '_' || c >= '0' && c <= '9' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
	}
	for i < len(s) {
		if isWord(s[i]) {
			j := i
			for j < len(s) && isWord(s[j]) {
				j++
			}
			toks = append(toks, s[i:j])
			i = j
		} else {
			toks = append(toks, s[i:i+1])
			i++
		}
	}
	return toks
}

func indexOf(xs []string, x string) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return -1
}

// ShrinkSpec drops instruction lines while the failure persists.
func ShrinkSpec(src string, failing func(string) bool) string {
	if !failing(src) {
		return src
	}
	for {
		lines := strings.Split(strings.TrimRight(src, "\n"), "\n")
		progress := false
		for i := 0; i < len(lines) && len(lines) > 1; i++ {
			cand := strings.Join(append(append([]string{}, lines[:i]...), lines[i+1:]...), "\n") + "\n"
			if failing(cand) {
				src = cand
				lines = strings.Split(strings.TrimRight(src, "\n"), "\n")
				progress = true
				i--
			}
		}
		if !progress {
			return src
		}
	}
}
