package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"iselgen/internal/bv"
	"iselgen/internal/core"
	"iselgen/internal/fuzz"
	"iselgen/internal/obs"
	"iselgen/internal/solver"
)

// obsSelectAllocBound is how many allocations default observability may
// add to one served /v1/select over observability off: the request span,
// the isel/select span with its attributes, and the latency histograms.
// It is a count per request, not per instruction or per candidate rule.
const obsSelectAllocBound = 32

// TestDefaultObsSelectAllocs guards the cost of default observability on
// the serving path. Two servers, one with obs.New() (iseld's default) and
// one with observability off, answer /v1/select for every program of a
// fixed fuzz.Gen set on each builtin target, and testing.AllocsPerRun
// counts each request's allocations on both. Default observability may
// add at most obsSelectAllocBound allocations to any one program, so a
// cost that grows with program size fails on the set's larger programs.
func TestDefaultObsSelectAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	progs := make([]string, 48)
	for i := range progs {
		progs[i] = fuzz.Gen(bv.NewRNG(fuzz.SubSeed(7, uint64(i))), fuzz.DefaultGenConfig()).Format()
	}
	verdicts := solver.New(0) // the second server's synthesis is warm
	for _, target := range []string{"riscv", "aarch64"} {
		t.Run(target, func(t *testing.T) {
			allocs := func(o *obs.Obs) []float64 {
				cfg := Config{Workers: 2, QueueDepth: 8, Synth: core.DefaultConfig(), Obs: o}
				cfg.Synth.Verdicts = verdicts
				sv, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer sv.Close()
				h := sv.Handler()
				out := make([]float64, len(progs))
				for i, prog := range progs {
					body, err := json.Marshal(SelectRequest{Target: target, Program: prog})
					if err != nil {
						t.Fatal(err)
					}
					serve := func() {
						w := httptest.NewRecorder()
						h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/select", bytes.NewReader(body)))
						if w.Code != http.StatusOK {
							t.Fatalf("program %d: %d %s", i, w.Code, w.Body)
						}
					}
					// AllocsPerRun's uncounted warm-up request synthesizes
					// the library on the first program.
					out[i] = testing.AllocsPerRun(4, serve)
				}
				return out
			}
			off, on := allocs(nil), allocs(obs.New())
			var sumOff, sumOn, maxGap float64
			for i := range progs {
				sumOff += off[i]
				sumOn += on[i]
				gap := on[i] - off[i]
				maxGap = max(maxGap, gap)
				if gap > obsSelectAllocBound {
					t.Errorf("program %d: default obs adds %.0f allocations (%.0f against %.0f), bound %d",
						i, gap, on[i], off[i], obsSelectAllocBound)
				}
			}
			n := float64(len(progs))
			t.Logf("allocations per /v1/select: obs off %.0f, default obs %.0f, largest gap %.0f",
				sumOff/n, sumOn/n, maxGap)
		})
	}
}
