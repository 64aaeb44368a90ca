package isel

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"iselgen/internal/bench"
	"iselgen/internal/gmir"
	"iselgen/internal/obs"
	"iselgen/internal/rules"
	"iselgen/internal/sim"
)

// TestMatchRejectAllocatesNothing: once the Ctx's binding has grown to
// the largest pattern, matching a candidate that loses — on shape or on
// an immediate that does not encode — allocates nothing.
func TestMatchRejectAllocatesNothing(t *testing.T) {
	fb := gmir.NewFunc("reject")
	a := fb.Param(gmir.S64)
	b := fb.Param(gmir.S64)
	big := fb.Add(a, fb.Const(gmir.S64, 0x123456789)) // no imm12 encodes it
	fb.Ret(fb.Add(big, b))
	f := fb.MustFinish()
	roots := []*gmir.Inst{}
	for _, in := range f.Blocks[0].Insts {
		if in.Op == gmir.GAdd {
			roots = append(roots, in)
		}
	}

	bk := a64Set.Handwritten
	c := bk.newCtx(f, &Report{})
	type cand struct {
		r    *rules.Rule
		root *gmir.Inst
	}
	var rejects []cand
	for _, root := range roots {
		for _, r := range bk.Lib.Candidates(rules.RootKey{Op: int(gmir.GAdd), Bits: 64}) {
			c.curRoot = root
			if c.matchPattern(r, root) == nil {
				rejects = append(rejects, cand{r, root})
			}
		}
	}
	if len(rejects) == 0 {
		t.Fatal("no candidate rejected")
	}
	allocs := testing.AllocsPerRun(50, func() {
		for _, x := range rejects {
			c.curRoot = x.root
			if c.matchPattern(x.r, x.root) != nil {
				t.Fatal("a rejected candidate matched")
			}
		}
	})
	if allocs != 0 {
		t.Errorf("%d rejections allocate %v", len(rejects), allocs)
	}
}

// TestConcurrentSelectAndSimulate: four goroutines share one loaded
// target (with its compiled effect programs), one frozen library and one
// Obs, selecting and simulating the benchmark suite; every result must
// equal the sequential one, and every selection observes its latency
// once. Run under -race in CI.
func TestConcurrentSelectAndSimulate(t *testing.T) {
	bk := *a64Set.Handwritten
	bk.Obs = obs.New()
	bk.Lib.Freeze()
	suite := bench.Suite(1)
	run := func(w bench.Workload) (sim.Result, error) {
		f := w.Build()
		Prepare(f, "aarch64")
		mf, rep := bk.Select(f)
		if rep.Fallback {
			return sim.Result{}, fmt.Errorf("%s: fallback: %s", w.Name, rep.FallbackReason)
		}
		mem := gmir.NewMemory()
		if w.InitMem != nil {
			w.InitMem(mem)
		}
		return (&sim.Machine{Mem: mem}).Run(mf, w.Args)
	}
	want := make([]sim.Result, len(suite))
	for i, w := range suite {
		var err error
		if want[i], err = run(w); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4*len(suite))
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range suite {
				i := (k + g) % len(suite) // goroutines start on different workloads
				got, err := run(suite[i])
				if err == nil && !reflect.DeepEqual(got, want[i]) {
					err = fmt.Errorf("%s: concurrent %+v, sequential %+v", suite[i].Name, got, want[i])
				}
				if err != nil {
					errs <- err
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if _, got, _ := bk.Obs.Metrics.Histogram("isel_select_ns", "").Snapshot(); got != int64(5*len(suite)) {
		t.Errorf("isel_select_ns count = %d, want %d selections", got, 5*len(suite))
	}
}
