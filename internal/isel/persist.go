package isel

import (
	"bufio"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"iselgen/internal/bv"
	"iselgen/internal/cost"
	"iselgen/internal/isa"
	"iselgen/internal/pattern"
	"iselgen/internal/rules"
	"iselgen/internal/term"
)

// Rule-library persistence (§VI-A: the synthesis stages are independent;
// a synthesized library can be persisted and shipped, then reloaded into
// a selector without re-running synthesis). The format is line-based:
//
//	# comment
//	#%inst <name> <fingerprint>
//	<pattern-key> \t <sequence-spec> \t <operand-spec> [\t <leaf-consts>] \t <source>
//
// using the same compact sequence/operand grammar as the manual-rule DSL
// (MustSeq / MustRule), so saved rules are human-auditable. The "#%inst"
// header records, for every instruction any rule depends on, the content
// fingerprint its semantics had at synthesis time (isa.Instruction.FP)
// — the provenance an incremental resynthesis diffs against a new spec.
// The trailing source field preserves each rule's proof origin (index vs
// smt) across save/load cycles. Older artifacts may carry a
// "cost:<lat>,<sz>" field before the source, from libraries ranked by a
// cost table; it is checked for shape and ignored, because every library
// now ranks rules by operand count. All extensions are backward
// compatible: "#"-prefixed lines were always comments, and loaders
// discriminate the trailing fields by shape — the "cost:" prefix is
// checked before the '='-means-leaf-consts test, since the cost field
// itself contains no '='. Every rule is re-verified on load.

// SaveLibrary serializes a library. The provenance header covers the
// instructions the rules depend on; use SaveLibraryFor when the loaded
// target is at hand, so the header covers the *whole* spec and an
// incremental resynthesis can also tell unchanged-but-unused
// instructions from new ones.
func SaveLibrary(lib *rules.Library) string {
	fps := map[string]string{}
	for _, r := range lib.Rules {
		for _, p := range r.Prov {
			fps[p.Name] = p.FP
		}
	}
	return saveLibrary(lib, fps)
}

// SaveLibraryFor serializes a library with a provenance header recording
// the content fingerprint of every instruction of the target it was
// synthesized against — the artifact format the incremental planner
// diffs against an edited spec.
func SaveLibraryFor(lib *rules.Library, tgt *isa.Target) string {
	fps := make(map[string]string, len(tgt.Insts))
	for _, inst := range tgt.Insts {
		fps[inst.Name] = inst.FP
	}
	return saveLibrary(lib, fps)
}

func saveLibrary(lib *rules.Library, fps map[string]string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# %s rule library: %d rules\n", lib.Target, lib.Len())
	names := make([]string, 0, len(fps))
	for n := range fps {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&sb, "#%%inst %s %s\n", n, fps[n])
	}
	for _, r := range lib.Rules {
		sb.WriteString(RuleLine(r))
		sb.WriteByte('\n')
	}
	return sb.String()
}

// RuleLine renders one rule as its persisted artifact line (no trailing
// newline). The rendering depends only on rule content — not on builder
// or target identity — so it doubles as a builder-independent rule
// fingerprint for comparing libraries across synthesis runs.
func RuleLine(r *rules.Rule) string {
	line := r.Pattern.Key() + "\t" + seqSpecOf(r.Seq) + "\t" + opSpecOf(r)
	if len(r.LeafConsts) > 0 {
		// Emit in leaf-index order: map iteration order would make
		// the serialization nondeterministic, and the disk cache
		// wants Save → Load → Save to be byte-identical.
		leaves := make([]int, 0, len(r.LeafConsts))
		for leaf := range r.LeafConsts {
			leaves = append(leaves, leaf)
		}
		sort.Ints(leaves)
		lcs := make([]string, len(leaves))
		for i, leaf := range leaves {
			lcs[i] = fmt.Sprintf("%d=%d", leaf, r.LeafConsts[leaf].Int64())
		}
		line += "\t" + strings.Join(lcs, ",")
	}
	src := r.Source
	if src == "" {
		src = "loaded"
	}
	return line + "\t" + src
}

// seqSpecOf renders a sequence in MustSeq grammar. Sequences with fixed
// immediates append [op=value] binders.
func seqSpecOf(s *isa.Sequence) string {
	var parts []string
	for i, inst := range s.Insts {
		p := inst.Name
		var mods []string
		for _, w := range s.Wirings[i] {
			mods = append(mods, w)
		}
		if i > 0 && len(s.Wirings[i]) == 0 {
			mods = append(mods, "flags")
		}
		for _, fi := range s.FixedImms {
			if fi.Inst == i {
				mods = append(mods, fmt.Sprintf("%s=%d", fi.Op, fi.Val.Uint64()))
			}
		}
		if len(mods) > 0 {
			p += "[" + strings.Join(mods, ",") + "]"
		}
		parts = append(parts, p)
	}
	return strings.Join(parts, " ; ")
}

func opSpecOf(r *rules.Rule) string {
	if len(r.Operands) == 0 {
		return "-"
	}
	var toks []string
	for _, src := range r.Operands {
		switch src.Kind {
		case rules.SrcConst:
			toks = append(toks, fmt.Sprintf("=%d", src.Const.Int64()))
		case rules.SrcLeaf:
			t := fmt.Sprintf("p%d", src.Leaf)
			if src.Embed != nil {
				t += ":" + src.Embed.String()
				t = strings.Replace(t, "_shl", "<<", 1)
			}
			toks = append(toks, t)
		}
	}
	return strings.Join(toks, " ")
}

// LoadLibrary parses a saved library against a loaded target, verifying
// every rule.
func LoadLibrary(b *term.Builder, tgt *isa.Target, text string) (*rules.Library, error) {
	lib := rules.NewLibrary(tgt.Name)
	sc := bufio.NewScanner(strings.NewReader(text))
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		r, err := LoadRule(b, tgt, line)
		if err != nil {
			return nil, fmt.Errorf("isel: line %d: %w", lineNo, err)
		}
		lib.Add(r)
	}
	return lib, sc.Err()
}

// LoadRule parses and verifies one persisted rule line against a loaded
// target. Verification is VerifyRule — randomized evaluation only, no
// solver — which is what lets the incremental planner re-validate reused
// rules with zero SMT queries. The rule's proof origin is taken from the
// line's trailing source field when present ("loaded" otherwise), so
// provenance survives save/load cycles.
func LoadRule(b *term.Builder, tgt *isa.Target, line string) (*rules.Rule, error) {
	fields := strings.Split(line, "\t")
	if len(fields) < 3 {
		return nil, fmt.Errorf("need at least 3 fields")
	}
	pat, err := pattern.ParseKey(fields[0])
	if err != nil {
		return nil, err
	}
	opSpec := fields[2]
	if opSpec == "-" {
		opSpec = ""
	}
	// Trailing fields, discriminated by shape: the legacy "cost:" prefix
	// first (the vector contains a ',' but never an '='), then
	// '='-containing leaf-consts, then the bare source field.
	var leafConsts []string
	source := "loaded"
	for _, f := range fields[3:] {
		if strings.HasPrefix(f, "cost:") {
			if _, err := cost.ParseVector(strings.TrimPrefix(f, "cost:")); err != nil {
				return nil, err
			}
		} else if strings.Contains(f, "=") {
			leafConsts = strings.Split(f, ",")
		} else if f != "" {
			source = f
		}
	}
	r, err := loadRule(b, tgt, pat, fields[1], opSpec, leafConsts)
	if err != nil {
		return nil, err
	}
	r.Source = source
	return r, nil
}

// loadRule is MustRule with error returns and fixed-immediate support in
// the sequence spec.
func loadRule(b *term.Builder, tgt *isa.Target, pat *pattern.Pattern,
	seqSpec, opSpec string, leafConsts []string) (r *rules.Rule, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("%v", rec)
		}
	}()
	seq, err := parseSeqSpec(b, tgt, seqSpec)
	if err != nil {
		return nil, err
	}
	r = assembleRule(b, tgt, pat, seq, opSpec, leafConsts)
	return r, nil
}

// parseSeqSpec extends MustSeq's grammar with op=value fixed-immediate
// binders.
func parseSeqSpec(b *term.Builder, tgt *isa.Target, spec string) (*isa.Sequence, error) {
	parts := strings.Split(spec, ";")
	var seq *isa.Sequence
	for i, part := range parts {
		part = strings.TrimSpace(part)
		name := part
		var wires []string
		var fixed [][2]string
		flags := false
		if k := strings.IndexByte(part, '['); k >= 0 {
			name = part[:k]
			for _, tok := range strings.Split(strings.TrimSuffix(part[k+1:], "]"), ",") {
				tok = strings.TrimSpace(tok)
				switch {
				case tok == "flags":
					flags = true
				case strings.Contains(tok, "="):
					op, val, _ := strings.Cut(tok, "=")
					fixed = append(fixed, [2]string{op, val})
				case tok != "":
					wires = append(wires, tok)
				}
			}
		}
		inst := tgt.ByName(name)
		if inst == nil {
			return nil, fmt.Errorf("unknown instruction %q", name)
		}
		if i == 0 {
			seq = isa.Single(b, inst)
		} else {
			next, err := isa.Append(b, seq, inst, wires, flags)
			if err != nil {
				return nil, err
			}
			seq = next
		}
		for _, fx := range fixed {
			v, err := strconv.ParseUint(fx[1], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("bad fixed immediate %q", fx[1])
			}
			w := 0
			for _, op := range inst.Operands {
				if op.Name == fx[0] {
					w = op.Width
				}
			}
			if w == 0 {
				return nil, fmt.Errorf("no operand %q on %s", fx[0], name)
			}
			next, err := isa.BindImm(b, seq, i, fx[0], bv.New(w, v))
			if err != nil {
				return nil, err
			}
			seq = next
		}
	}
	return seq, nil
}

// assembleRule mirrors MustRule's operand/const handling over an
// already-built sequence (panics recovered by loadRule).
func assembleRule(b *term.Builder, tgt *isa.Target, pat *pattern.Pattern,
	seq *isa.Sequence, opSpec string, leafConsts []string) *rules.Rule {
	toks := strings.Fields(opSpec)
	if len(toks) != len(seq.Inputs) {
		panic(fmt.Sprintf("%d operand tokens for %d inputs", len(toks), len(seq.Inputs)))
	}
	r := &rules.Rule{Pattern: pat, Seq: seq}
	leaves := pat.Leaves()
	for k, tok := range toks {
		in := seq.Inputs[k]
		switch {
		case strings.HasPrefix(tok, "="):
			v, err := strconv.ParseInt(strings.TrimPrefix(tok, "="), 0, 64)
			if err != nil {
				panic("bad const token " + tok)
			}
			r.Operands = append(r.Operands, rules.OperandSource{
				Kind: rules.SrcConst, Const: bv.NewInt(in.Op.Width, v)})
		case strings.HasPrefix(tok, "p"):
			body := strings.TrimPrefix(tok, "p")
			leafStr, embedStr, hasEmbed := strings.Cut(body, ":")
			leaf, err := strconv.Atoi(leafStr)
			if err != nil || leaf >= len(leaves) {
				panic("bad leaf token " + tok)
			}
			src := rules.OperandSource{Kind: rules.SrcLeaf, Leaf: leaf}
			if hasEmbed {
				src.Embed = parseEmbed(embedStr)
			}
			r.Operands = append(r.Operands, src)
		default:
			panic("bad operand token " + tok)
		}
	}
	for _, lc := range leafConsts {
		idxStr, valStr, ok := strings.Cut(lc, "=")
		if !ok {
			panic("bad leaf const " + lc)
		}
		idx, err1 := strconv.Atoi(idxStr)
		val, err2 := strconv.ParseInt(valStr, 0, 64)
		if err1 != nil || err2 != nil || idx >= len(leaves) {
			panic("bad leaf const " + lc)
		}
		if r.LeafConsts == nil {
			r.LeafConsts = map[int]bv.BV{}
		}
		r.LeafConsts[idx] = bv.NewInt(leaves[idx].Ty.Bits, val)
	}
	if err := VerifyRule(b, r); err != nil {
		panic(fmt.Sprintf("loaded rule is wrong: %v", err))
	}
	return r
}
