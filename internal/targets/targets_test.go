package targets

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"iselgen/internal/cost"
	"iselgen/internal/rules"
	"iselgen/internal/term"
)

// Every builtin entry is complete: it loads under its own name, and a
// selection target also builds its baselines and a synthesized backend.
func TestBuiltinsLoad(t *testing.T) {
	for _, bt := range All() {
		t.Run(bt.Name, func(t *testing.T) {
			b := term.NewBuilder()
			tgt, err := bt.Load(b)
			if err != nil {
				t.Fatal(err)
			}
			if tgt.Name != bt.Name || len(tgt.Insts) == 0 {
				t.Fatalf("loaded %q with %d instructions", tgt.Name, len(tgt.Insts))
			}
			if bt.MinWidth != 32 && bt.MinWidth != 64 {
				t.Errorf("legalization floor %d", bt.MinWidth)
			}
			if !bt.Selects() {
				if bt.Baselines != nil {
					t.Error("baselines without a selection backend")
				}
				return
			}
			all, hand := bt.Baselines(b, tgt)
			if !slices.Contains(all, hand) {
				t.Error("the handwritten fallback is not among the baselines")
			}
			if bk := bt.Synth(tgt, rules.NewLibrary(bt.Name)); bk == nil || bk.ISA != tgt {
				t.Error("synthesized backend not built over the target")
			}
		})
	}
}

func TestLookup(t *testing.T) {
	if got := Names(true); !slices.Equal(got, []string{"aarch64", "riscv"}) {
		t.Errorf("selection targets %v", got)
	}
	if got := Names(false); !slices.Equal(got, []string{"aarch64", "riscv", "x86"}) {
		t.Errorf("builtins %v", got)
	}
	for _, name := range Names(false) {
		if bt, err := Lookup(name); err != nil || bt.Name != name {
			t.Errorf("Lookup(%q) = %v, %v", name, bt, err)
		}
	}
	_, err := Lookup("mips")
	if err == nil || !strings.Contains(err.Error(), "aarch64, riscv, x86") {
		t.Errorf("unknown target error %v does not list the builtins", err)
	}
	_, err = LookupSelecting("x86")
	if err == nil || !strings.Contains(err.Error(), "selection targets: aarch64, riscv") {
		t.Errorf("x86 selection error %v", err)
	}
	if bt, err := LookupSelecting("riscv"); err != nil || bt.MinWidth != 64 || bt.Extra == nil {
		t.Errorf("riscv: %v, %v", bt, err)
	}
}

// CostModel is cost.FromTarget over a fresh load, so two derivations
// agree on the version that rides in cache keys.
func TestCostModel(t *testing.T) {
	bt, _ := Lookup("riscv")
	m1, err := bt.CostModel()
	if err != nil {
		t.Fatal(err)
	}
	tgt, _ := bt.Load(term.NewBuilder())
	if m2 := cost.FromTarget(tgt); m1.Version() != m2.Version() {
		t.Errorf("versions %s vs %s", m1.Version(), m2.Version())
	}
}

func TestLoadFile(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "mini.spec")
	os.WriteFile(good, []byte("inst ADDrr(rn: reg64, rm: reg64) { rd = rn + rm; }\n"), 0o644)
	tgt, err := LoadFile(term.NewBuilder(), good)
	if err != nil {
		t.Fatal(err)
	}
	if tgt.Name != "mini" || len(tgt.Insts) != 1 {
		t.Errorf("loaded %q with %d instructions", tgt.Name, len(tgt.Insts))
	}
	bad := filepath.Join(dir, "bad.spec")
	os.WriteFile(bad, []byte("inst ADDrr(rn: reg64) { rd = rn + ; }\n"), 0o644)
	if _, err := LoadFile(term.NewBuilder(), bad); err == nil || !strings.HasPrefix(err.Error(), "spec:") {
		t.Errorf("malformed spec error %v carries no position", err)
	}
	if _, err := LoadFile(term.NewBuilder(), filepath.Join(dir, "missing.spec")); !os.IsNotExist(err) {
		t.Errorf("missing file error %v", err)
	}
}

// Every builtin spec text loads from a file with the builtin loader's
// sizes wherever an encoding exists: an encoding sets its instruction's
// size (aarch64 and x86 have non-4-byte ones), and an instruction
// without one is 4 bytes.
func TestLoadFileBuiltinSpecs(t *testing.T) {
	dir := t.TempDir()
	for _, bt := range All() {
		t.Run(bt.Name, func(t *testing.T) {
			path := filepath.Join(dir, bt.Name+".spec")
			if err := os.WriteFile(path, []byte(bt.Spec()), 0o644); err != nil {
				t.Fatal(err)
			}
			got, err := LoadFile(term.NewBuilder(), path)
			if err != nil {
				t.Fatal(err)
			}
			want, err := bt.Load(term.NewBuilder())
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Insts) != len(want.Insts) {
				t.Fatalf("%d instructions, builtin has %d", len(got.Insts), len(want.Insts))
			}
			for i, in := range got.Insts {
				if in.Enc != nil && in.Size != want.Insts[i].Size {
					t.Errorf("%s: size %d, builtin %d", in.Name, in.Size, want.Insts[i].Size)
				}
				if in.Enc == nil && in.Size != 4 {
					t.Errorf("%s has no encoding but size %d", in.Name, in.Size)
				}
			}
		})
	}
}
