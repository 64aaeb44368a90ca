package core

import (
	"runtime"
	"testing"
	"time"

	"iselgen/internal/isa"
	"iselgen/internal/isa/riscv"
	"iselgen/internal/isel"
	"iselgen/internal/rules"
	"iselgen/internal/term"
)

// TestLoadedTargetIsCollectable pins that fingerprinting a target — the
// spec fingerprint every synthesizer stamps, rule provenance, and the
// artifact header — leaves nothing process-wide holding on to it: once
// the caller drops the target, its instructions are garbage.
func TestLoadedTargetIsCollectable(t *testing.T) {
	collected := make(chan struct{})
	func() {
		b := term.NewBuilder()
		tgt, err := riscv.Load(b)
		if err != nil {
			t.Fatal(err)
		}
		SpecFingerprint(tgt)
		lib := rules.NewLibrary("riscv")
		rules.SupportOf(isa.Single(b, tgt.Insts[0]))
		isel.SaveLibraryFor(lib, tgt)
		runtime.SetFinalizer(tgt.Insts[0], func(*isa.Instruction) { close(collected) })
	}()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(20 * time.Millisecond):
		}
	}
	t.Fatal("a fingerprinted instruction stayed reachable after its target was dropped")
}
