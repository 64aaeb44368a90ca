package core

import (
	"context"
	"testing"

	"iselgen/internal/gmir"
	"iselgen/internal/pattern"
	"iselgen/internal/rules"
)

// cancelPats is a batch containing both index-provable shapes and
// shapes that need the SMT fallback (or-not has no direct mini
// instruction; it requires the ORNrr candidate search).
func cancelPats() []*pattern.Pattern {
	return []*pattern.Pattern{
		pattern.New(pattern.Op(gmir.GAdd, gmir.S64, r64(), r64())),
		pattern.New(pattern.Op(gmir.GSub, gmir.S64, r64(), r64())),
		pattern.New(pattern.Op(gmir.GMul, gmir.S64, r64(), r64())),
		pattern.New(pattern.Op(gmir.GShl, gmir.S64, r64(), i64())),
		pattern.New(pattern.Op(gmir.GAdd, gmir.S64, r64(),
			pattern.Op(gmir.GShl, gmir.S64, r64(), i64()))),
		pattern.New(pattern.Op(gmir.GOr, gmir.S64, r64(),
			pattern.Op(gmir.GXor, gmir.S64, r64(), i64()))),
	}
}

// TestSynthesizeCtxExpiredDeadline checks the graceful-degradation
// contract: an already-expired context yields a partial library whose
// rules are all index-proven — the solver is never consulted.
func TestSynthesizeCtxExpiredDeadline(t *testing.T) {
	s, _ := miniSynth(t, Config{TestInputs: 32, Workers: 2})
	lib := rules.NewLibrary("mini")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	curtailed := s.SynthesizeCtx(ctx, cancelPats(), lib)
	if !curtailed {
		t.Fatal("expired context did not report a curtailed run")
	}
	if !s.Stats.Curtailed {
		t.Error("Stats.Curtailed not set")
	}
	if s.Stats.SMTQueries != 0 {
		t.Errorf("SMT consulted %d times under an expired deadline", s.Stats.SMTQueries)
	}
	for _, r := range lib.Rules {
		if r.Source != "index" {
			t.Errorf("partial library contains non-index rule %s (source %s)", r.Seq, r.Source)
		}
	}
	// The cheap index path still works: simple arithmetic must be found.
	if lib.Lookup(cancelPats()[0].Key()) == nil {
		t.Error("index-proven add rule missing from partial library")
	}
}

// TestSynthesizeCtxNoDeadline checks that an unexpired context changes
// nothing relative to the plain entry point.
func TestSynthesizeCtxNoDeadline(t *testing.T) {
	s1, _ := miniSynth(t, Config{TestInputs: 32, Workers: 2})
	lib1 := rules.NewLibrary("mini")
	if curtailed := s1.SynthesizeCtx(context.Background(), cancelPats(), lib1); curtailed {
		t.Fatal("background context reported curtailed")
	}

	s2, _ := miniSynth(t, Config{TestInputs: 32, Workers: 2})
	lib2 := rules.NewLibrary("mini")
	s2.Synthesize(cancelPats(), lib2)

	if lib1.Len() != lib2.Len() {
		t.Errorf("ctx run found %d rules, plain run %d", lib1.Len(), lib2.Len())
	}
	if lib1.Len() <= 2 {
		t.Errorf("suspiciously small library: %d rules", lib1.Len())
	}
}

// TestMatchPanicReachesCaller: a matcher worker's panic comes back to
// the goroutine that called Synthesize, where a server can recover it,
// instead of ending the process from a goroutine nobody can guard.
func TestMatchPanicReachesCaller(t *testing.T) {
	s, _ := miniSynth(t, Config{TestInputs: 32, Workers: 2})
	pats := cancelPats()[:2]
	defer func() {
		if recover() == nil {
			t.Fatal("a worker's panic did not reach the caller")
		}
	}()
	// A nil pattern panics inside a worker when it is compiled.
	s.match([]*pattern.Pattern{pats[0], nil, pats[1]})
}
