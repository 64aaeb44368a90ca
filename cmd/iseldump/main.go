// Command iseldump inspects the synthesis machinery: instruction
// semantics as derived from the spec DSL, canonical forms of terms, the
// pattern corpus, and selected machine code for a workload.
//
// Usage:
//
//	iseldump -target aarch64 -inst ADDXrs_lsl      # effect terms
//	iseldump -target aarch64 -canon ADDXrs_lsl     # canonical form
//	iseldump -target riscv -corpus 30              # top corpus patterns
//	iseldump -target aarch64 -mir x264_sad         # selected machine code
//	iseldump -target riscv -mir x264_sad -disasm   # ... plus encoded bytes
//	iseldump -target riscv -provenance             # per-rule provenance
//	iseldump -target aarch64 -rules                # per-rule cost
//
// -disasm assembles the selected function with the spec-derived encoder
// and prints, per emitted instruction, its address, machine bytes, and
// the decoded mnemonic as the disassembler reads it back — so what the
// selector emitted and what the bytes say can be eyeballed side by
// side.
//
// -provenance synthesizes the target's library and prints one line per
// rule — pattern key, proof origin, and each supporting instruction with
// its content fingerprint — sorted, so two dumps diff cleanly.
//
// -rules synthesizes the library and prints one line per rule — pattern
// key, the cost (the paper's operand count, which ranks rules), and the
// replacement sequence — sorted, so two dumps diff cleanly.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"iselgen/internal/bench"
	"iselgen/internal/canon"
	"iselgen/internal/core"
	"iselgen/internal/enc"
	"iselgen/internal/harness"
	"iselgen/internal/isa"
	"iselgen/internal/isel"
	"iselgen/internal/solver"
)

func main() {
	target := flag.String("target", "aarch64", "target: aarch64 or riscv")
	instName := flag.String("inst", "", "print the effect terms of an instruction")
	canonName := flag.String("canon", "", "print the canonical form of an instruction's effects")
	corpus := flag.Int("corpus", 0, "print the top N corpus patterns")
	mirOf := flag.String("mir", "", "print the handwritten backend's machine code for a workload")
	provenance := flag.Bool("provenance", false, "synthesize and print each rule's provenance (stable order)")
	rulesDump := flag.Bool("rules", false, "synthesize and print each rule's cost (stable order)")
	disasm := flag.Bool("disasm", false, "with -mir: assemble the selection and print bytes + decoded mnemonics")
	patterns := flag.Int("patterns", 0, "limit corpus patterns for -provenance and -rules (0 = all)")
	flag.Parse()

	s, err := harness.New(*target)
	if err != nil {
		fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Verdicts = solver.New(0)

	switch {
	case *instName != "":
		inst := mustInst(s, *instName)
		fmt.Printf("%s (%d operands, latency %d):\n", inst.Name, len(inst.Operands), inst.Latency)
		for _, op := range inst.Operands {
			fmt.Printf("  operand %s: %s%d\n", op.Name, op.Kind, op.Width)
		}
		for _, e := range inst.Effects {
			fmt.Printf("  %s effect: %s\n", e.Kind, e.T)
		}

	case *canonName != "":
		inst := mustInst(s, *canonName)
		cx := canon.NewCtx()
		for _, e := range inst.Effects {
			fmt.Printf("%s %s effect:\n  raw:   %s\n  canon: %s\n",
				inst.Name, e.Kind, e.T, cx.Canon(e.T))
		}

	case *corpus > 0:
		for i, p := range harness.CorpusPatterns(s.Name, *corpus) {
			if i >= *corpus {
				break
			}
			fmt.Printf("%3d  %s\n", i+1, p)
		}

	case *provenance || *rulesDump:
		lib := s.Synthesize(cfg, *patterns)
		var lines []string
		for _, r := range lib.Rules {
			parts := []string{r.Pattern.Key(), r.Source}
			if *provenance {
				for _, p := range r.Prov {
					parts = append(parts, fmt.Sprintf("%s=%s", p.Name, p.FP[:16]))
				}
			} else {
				names := make([]string, len(r.Seq.Insts))
				for i, inst := range r.Seq.Insts {
					names[i] = inst.Name
				}
				parts[1] = fmt.Sprintf("cost=%d", r.Cost())
				parts = append(parts, strings.Join(names, ";"))
			}
			lines = append(lines, strings.Join(parts, "\t"))
		}
		// Sorted output: library order varies with worker scheduling, but
		// two dumps of the same spec + config must diff cleanly.
		sort.Strings(lines)
		if !*provenance {
			fmt.Printf("# %s — %d rules\n", s.Name, len(lines))
		}
		for _, l := range lines {
			fmt.Println(l)
		}

	case *mirOf != "":
		for _, w := range bench.Suite(1) {
			if w.Name != *mirOf {
				continue
			}
			f := w.Build()
			isel.Prepare(f, s.Name)
			mf, rep := s.Handwritten.Select(f)
			if rep.Fallback {
				fatal(fmt.Errorf("fallback: %s", rep.FallbackReason))
			}
			fmt.Print(mf)
			if *disasm {
				c, cerr := enc.NewCodec(s.ISA)
				if cerr != nil {
					fatal(cerr)
				}
				img, aerr := enc.NewAssembler(c).Assemble(mf)
				if aerr != nil {
					fatal(aerr)
				}
				fmt.Printf("\n; %d bytes at %#x\n", len(img.Code), img.Base)
				for _, ln := range c.Disassemble(img.Code, img.Base) {
					fmt.Printf("%#8x:  %-12s %s\n", ln.Addr, enc.HexBytes(ln.Bytes), ln.Text)
				}
			}
			return
		}
		fatal(fmt.Errorf("unknown workload %q", *mirOf))

	default:
		flag.Usage()
	}
}

func mustInst(s *harness.Setup, name string) *isa.Instruction {
	inst := s.ISA.ByName(name)
	if inst == nil {
		fatal(fmt.Errorf("unknown instruction %q", name))
	}
	return inst
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "iseldump:", err)
	os.Exit(1)
}
