package main

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"iselgen/internal/bench"
	"iselgen/internal/bv"
	"iselgen/internal/fuzz"
	"iselgen/internal/gmir"
	"iselgen/internal/sim"
)

// genPrograms draws the run's read programs from the seed: program i is
// the fuzz generator's output on sub-seed i, the corpus the fuzz oracles
// and the load harness use.
func genPrograms(seed uint64, n int) []string {
	cfg := fuzz.DefaultGenConfig()
	out := make([]string, n)
	for i := range out {
		out[i] = fuzz.Gen(bv.NewRNG(fuzz.SubSeed(seed, uint64(i))), cfg).Format()
	}
	return out
}

// vectorSeed is the seed the daemon derives a program's input vector
// from; the daemon reads 0 as 1, so 0 is never sent.
func vectorSeed(seed uint64) uint64 { return max(seed, 1) }

// interpret runs a corpus program on the interpreter with the input
// vector the daemon simulates it on: the reference a served checksum
// must equal.
func interpret(text string, vseed uint64) (bv.BV, error) {
	p, err := fuzz.ParseProg(text)
	if err != nil {
		return bv.BV{}, err
	}
	f, err := p.Build()
	if err != nil {
		return bv.BV{}, err
	}
	args := fuzz.VectorsFor(vseed, p, 1)[0]
	return (&gmir.Interp{Mem: gmir.NewMemory()}).Run(f, args...)
}

// checksumMatches compares a served checksum (the simulated return
// register, printed by bv) with the interpreter's result the way the
// fuzz oracle does: the register value adjusted to 64 bits.
func checksumMatches(served string, want bv.BV) bool {
	got, err := parseBV(served)
	return err == nil && sim.Adjust(got, 64) == want
}

// parseBV reads bv's printed form: #x followed by width/4 hex digits, or
// #b followed by width binary digits.
func parseBV(s string) (bv.BV, error) {
	var digits string
	var bits int
	switch {
	case strings.HasPrefix(s, "#x"):
		digits, bits = s[2:], 4
	case strings.HasPrefix(s, "#b"):
		digits, bits = s[2:], 1
	default:
		return bv.BV{}, fmt.Errorf("not a bit-vector literal: %q", s)
	}
	w := len(digits) * bits
	if w == 0 || w > 128 {
		return bv.BV{}, fmt.Errorf("bit-vector literal %q has width %d", s, w)
	}
	var hi, lo uint64
	for _, ch := range digits {
		d, err := strconv.ParseUint(string(ch), 16, 8)
		if err != nil || d >= 1<<bits {
			return bv.BV{}, fmt.Errorf("bad digit in %q", s)
		}
		hi = hi<<bits | lo>>(64-bits)
		lo = lo<<bits | d
	}
	return bv.New128(w, hi, lo), nil
}

// checkReads verifies every checkEvery-th successful read against the
// interpreter and returns how many successful reads fell back.
func (r *runner) checkReads(progs []string, reads []sample) (fallbacks int) {
	want := map[int]bv.BV{}
	vseed := vectorSeed(r.seed)
	for _, s := range reads {
		if s.err != nil {
			continue
		}
		i := s.idx
		var a selectAnswer
		if err := json.Unmarshal(s.body, &a); err != nil {
			r.problem("read %d: undecodable answer: %v", i, err)
			continue
		}
		if a.Fallback {
			fallbacks++
			continue
		}
		if i%checkEvery != 0 {
			continue
		}
		pi := i % len(progs)
		ref, ok := want[pi]
		if !ok {
			var err error
			if ref, err = interpret(progs[pi], vseed); err != nil {
				r.problem("read %d: interpreter: %v", i, err)
				continue
			}
			want[pi] = ref
		}
		if !checksumMatches(a.Checksum, ref) {
			r.problem("read %d: daemon checksum %s, interpreter %s", i, a.Checksum, ref)
		}
	}
	return fallbacks
}

// suite selects every function of the SPEC-analog suite through
// /v1/select over the run's connections, checks each result against the
// interpreter, and returns the summed simulated cycles and code bytes.
func (r *runner) suite(ctx context.Context, d *daemon) (cycles, size int64) {
	suite := bench.Suite(1)
	if r.p.suite != nil {
		suite = slices.DeleteFunc(suite, func(w bench.Workload) bool { return !slices.Contains(r.p.suite, w.Name) })
	}
	answers := make([]selectAnswer, len(suite))
	errs := make([]error, len(suite))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < maxConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(suite) {
					return
				}
				body, err := post(ctx, r.c, d.url+"/v1/select", mustJSON(map[string]any{"target": r.w.target, "workload": suite[k].Name}))
				if err == nil {
					err = json.Unmarshal(body, &answers[k])
				}
				errs[k] = err
			}
		}()
	}
	wg.Wait()
	for k, w := range suite {
		a := answers[k]
		if errs[k] != nil {
			r.count(1, 1)
			r.problem("suite %s: %v", w.Name, errs[k])
			continue
		}
		r.count(1, 0)
		if a.Fallback {
			r.problem("suite %s fell back", w.Name)
			continue
		}
		mem := gmir.NewMemory()
		if w.InitMem != nil {
			w.InitMem(mem)
		}
		ref, err := (&gmir.Interp{Mem: mem}).Run(w.Build(), w.Args...)
		if err != nil {
			r.problem("suite %s: interpreter: %v", w.Name, err)
		} else if !checksumMatches(a.Checksum, ref) {
			r.problem("suite %s: daemon checksum %s, interpreter %s", w.Name, a.Checksum, ref)
		}
		cycles += a.Cycles
		size += int64(a.BinarySize)
	}
	return cycles, size
}
