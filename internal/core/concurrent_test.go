package core

import (
	"runtime"
	"sync"
	"testing"

	"iselgen/internal/gmir"
	"iselgen/internal/isa"
	"iselgen/internal/isel"
	"iselgen/internal/pattern"
	"iselgen/internal/rules"
	"iselgen/internal/solver"
	"iselgen/internal/term"
)

// fallbackPats are pattern shapes with no direct canonical-index match
// on the mini target: the flag-chain and or-not shapes go through the
// SMT fallback, so every goroutine issues Equiv queries that screen
// against (and can feed) the shared memo's counterexamples.
func fallbackPats() []*pattern.Pattern {
	return []*pattern.Pattern{
		pattern.New(pattern.Op(gmir.GZExt, gmir.S64, pattern.Cmp(gmir.PredEQ, r64(), r64()))),
		pattern.New(pattern.Op(gmir.GZExt, gmir.S64, pattern.Cmp(gmir.PredULT, r64(), r64()))),
		pattern.New(pattern.Op(gmir.GSelect, gmir.S64, pattern.Cmp(gmir.PredSLT, r64(), r64()), r64(), r64())),
		pattern.New(pattern.Op(gmir.GOr, gmir.S64, r64(),
			pattern.Op(gmir.GXor, gmir.S64, r64(), i64()))),
	}
}

// TestConcurrentSynthesesShareWitnesses runs independent synthesizers
// from every CPU at once, all feeding and screening through one shared
// verdict memo, and demands they produce identical
// libraries. Under -race this is the memo's integration race test; in
// any mode it checks that cross-run sharing cannot change verdicts
// (each run sees verdicts and witnesses earned by the others).
func TestConcurrentSynthesesShareWitnesses(t *testing.T) {
	memo := solver.New(0)
	n := runtime.NumCPU() + 2
	arts := make([]string, n)
	screens := make([]int64, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			b := term.NewBuilder()
			tgt, err := isa.LoadTarget(b, "mini", miniSpec, nil, 4)
			if err != nil {
				errs[g] = err
				return
			}
			s := New(b, tgt, Config{TestInputs: 32, Workers: 2, Verdicts: memo})
			s.BuildPool()
			lib := rules.NewLibrary("mini")
			s.Synthesize(fallbackPats(), lib)
			arts[g] = isel.SaveLibrary(lib)
			screens[g] = s.Stats.CexScreens
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	for g := 1; g < n; g++ {
		if arts[g] != arts[0] {
			t.Fatalf("goroutine %d produced a different library than goroutine 0", g)
		}
	}
	var total int64
	for _, c := range screens {
		total += c
	}
	if total == 0 {
		t.Fatal("no query was ever screened — the synthesizers are not wired to the shared memo")
	}
}
