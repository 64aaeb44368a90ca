// Command iselasm assembles, disassembles, and runs machine code for
// any specified target — builtin (riscv, aarch64, x86) or a DSL spec
// file with encoding clauses. The assembler, decoder, and emulator are
// all derived from the spec's encoding and effect clauses; no
// per-target code is involved.
//
// Usage:
//
//	iselasm -target riscv prog.s                 # assemble: listing + hex
//	iselasm -target riscv -d "9300 3100"         # disassemble hex bytes
//	iselasm -target riscv -d @image.hex          # ... from a file
//	iselasm -target riscv -run -args 40,2 prog.s # assemble and execute
//	iselasm -target examples/newisa/zetacore.spec prog.s
//
// With -run, arguments land in r0, r1, ... (override with -params) and
// the result is read from the register named by -ret (default r0) when
// execution falls off the end of the image.
package main

import (
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"strconv"
	"strings"

	"iselgen/internal/bv"
	"iselgen/internal/enc"
	"iselgen/internal/isa"
	"iselgen/internal/targets"
	"iselgen/internal/term"
)

func main() {
	target := flag.String("target", "riscv", "target: riscv, aarch64, x86, or a path to a .spec file")
	disasm := flag.String("d", "", "disassemble hex bytes (literal, or @file)")
	run := flag.Bool("run", false, "assemble and execute on the decoding emulator")
	argList := flag.String("args", "", "comma-separated integer arguments for -run")
	params := flag.String("params", "", "registers receiving -args (default r0,r1,...)")
	retReg := flag.String("ret", "r0", "register read as the result after -run")
	base := flag.Uint64("base", enc.Base, "load address")
	flag.Parse()

	tgt, err := loadTarget(*target)
	if err != nil {
		fatal(err)
	}
	c, err := enc.NewCodec(tgt)
	if err != nil {
		fatal(err)
	}

	if *disasm != "" {
		code, err := parseHex(*disasm)
		if err != nil {
			fatal(err)
		}
		for _, ln := range c.Disassemble(code, *base) {
			fmt.Printf("%#8x:  %-12s %s\n", ln.Addr, enc.HexBytes(ln.Bytes), ln.Text)
		}
		return
	}

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: iselasm [-target T] [-d hex | [-run] prog.s]")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	img, err := enc.ParseAsm(c, string(src), *base)
	if err != nil {
		fatal(err)
	}

	if !*run {
		for _, u := range img.Units {
			fmt.Printf("%#8x:  %-12s %s\n", u.Addr, enc.HexBytes(u.Bytes), c.Format(u.IC, u.Ops))
		}
		fmt.Printf("image: %d bytes\n%s\n", len(img.Code), enc.HexBytes(img.Code))
		return
	}

	args, err := parseArgs(*argList)
	if err != nil {
		fatal(err)
	}
	if *params == "" {
		for i := range args {
			img.ParamRegs = append(img.ParamRegs, i)
		}
	} else {
		for _, f := range strings.Split(*params, ",") {
			r, err := parseReg(strings.TrimSpace(f))
			if err != nil {
				fatal(err)
			}
			img.ParamRegs = append(img.ParamRegs, r)
		}
	}
	if img.RetReg, err = parseReg(*retReg); err != nil {
		fatal(err)
	}
	e := &enc.Emulator{Codec: c}
	res, err := e.Run(img, args)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("ret = %s (%d instructions)\n", res.Ret, res.Insts)
}

// loadTarget resolves a builtin target name or reads a spec file.
func loadTarget(name string) (*isa.Target, error) {
	b := term.NewBuilder()
	if bt, err := targets.Lookup(name); err == nil {
		return bt.Load(b)
	}
	tgt, err := targets.LoadFile(b, name)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("%q is not a builtin target and not a readable spec file: %w", name, err)
	}
	return tgt, err
}

func parseHex(s string) ([]byte, error) {
	if strings.HasPrefix(s, "@") {
		data, err := os.ReadFile(s[1:])
		if err != nil {
			return nil, err
		}
		s = string(data)
	}
	clean := strings.Map(func(r rune) rune {
		if strings.ContainsRune(" \t\r\n", r) {
			return -1
		}
		return r
	}, s)
	clean = strings.TrimPrefix(clean, "0x")
	return hex.DecodeString(clean)
}

func parseArgs(s string) ([]bv.BV, error) {
	var out []bv.BV
	if s == "" {
		return out, nil
	}
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if v, err := strconv.ParseInt(f, 0, 64); err == nil {
			out = append(out, bv.NewInt(64, v))
			continue
		}
		u, err := strconv.ParseUint(f, 0, 64)
		if err != nil {
			return nil, fmt.Errorf("iselasm: bad argument %q", f)
		}
		out = append(out, bv.New(64, u))
	}
	return out, nil
}

func parseReg(s string) (int, error) {
	if !strings.HasPrefix(s, "r") {
		return 0, fmt.Errorf("iselasm: bad register %q", s)
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 {
		return 0, fmt.Errorf("iselasm: bad register %q", s)
	}
	return n, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "iselasm:", err)
	os.Exit(1)
}
