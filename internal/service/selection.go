package service

import (
	"encoding/hex"
	"errors"
	"fmt"

	"iselgen/internal/bv"
	"iselgen/internal/cost"
	"iselgen/internal/enc"
	"iselgen/internal/fuzz"
	"iselgen/internal/gmir"
	"iselgen/internal/isel"
	"iselgen/internal/sim"
)

// maxBatchPrograms caps one batch request; past it the request is a 400
// (the client splits — the point of batching is amortizing the library
// acquisition, which saturates well before this).
const maxBatchPrograms = 1024

// maxProgramVectors caps the simulation vectors per program.
const maxProgramVectors = 8

// maxWorkloadScale caps a workload-mode select's scale: the suite's
// iteration counts grow linearly with it, so an unbounded value lets one
// request hold a core for minutes.
const maxWorkloadScale = 10

// selEnv is the per-request selection environment every select form
// shares: one cache entry (the amortized library acquisition), one
// backend, one cost model. Functions run through it sequentially — the
// same reuse discipline the fuzz driver applies.
type selEnv struct {
	def     *targetDef
	entry   *Entry
	backend *isel.Backend
	emit    EmitMode
	// seed and vectors derive a program's simulation inputs.
	seed    uint64
	vectors int
}

// newSelEnv builds the shared environment around an acquired cache
// entry.
func (sv *Server) newSelEnv(def *targetDef, e *Entry, seed uint64, vectors int, emit EmitMode) *selEnv {
	bk := def.backend(e.Target, e.Lib)
	bk.Obs = sv.obsv
	if seed == 0 {
		seed = 1
	}
	vectors = max(1, min(vectors, maxProgramVectors))
	return &selEnv{def: def, entry: e, backend: bk, emit: emit, seed: seed, vectors: vectors}
}

// simRun is one simulation of a selected function: its arguments and,
// for suite workloads, the memory image seeded before the run.
type simRun struct {
	args    []bv.BV
	initMem func(*gmir.Memory)
}

// lowering is one function's outcome through the selection pipeline.
// Cycles and Insts sum over the simulation runs; Checksums holds each
// run's return value in order.
type lowering struct {
	rep        *isel.Report
	staticCost string
	binarySize int
	cycles     int64
	insts      int64
	checksums  []string
	mir        string
	bytes      string
	listing    []string
}

// errEmitBytes marks a failure to assemble the selected code for
// emit="bytes".
var errEmitBytes = errors.New("emit=bytes")

// lower runs one function through the per-function work of every select
// form: prepare, select, price, simulate each run, and emit. A fallback
// stops after selection. On a simulation or emit error the returned
// lowering keeps what was computed before the failure.
func (env *selEnv) lower(f *gmir.Function, runs []simRun) (lw lowering, err error) {
	isel.Prepare(f, env.def.name)
	mf, rep := env.backend.Select(f)
	lw.rep = rep
	if rep.Fallback {
		return lw, nil
	}
	lw.staticCost = cost.StaticOf(mf, nil).String()
	lw.binarySize = mf.BinarySize()
	for _, run := range runs {
		mem := gmir.NewMemory()
		if run.initMem != nil {
			run.initMem(mem)
		}
		m := &sim.Machine{Mem: mem}
		out, err := m.Run(mf, run.args)
		if err != nil {
			return lw, fmt.Errorf("sim: %w", err)
		}
		lw.cycles += out.Cycles
		lw.insts += out.Insts
		lw.checksums = append(lw.checksums, out.Ret.String())
	}
	switch env.emit {
	case "mir":
		lw.mir = mf.String()
	case "bytes":
		c, err := enc.NewCodec(env.entry.Target)
		if err != nil {
			return lw, fmt.Errorf("%w: %w", errEmitBytes, err)
		}
		img, err := enc.NewAssembler(c).Assemble(mf)
		if err != nil {
			return lw, fmt.Errorf("%w: %w", errEmitBytes, err)
		}
		lw.bytes = hex.EncodeToString(img.Code)
		for _, ln := range c.Disassemble(img.Code, img.Base) {
			lw.listing = append(lw.listing, fmt.Sprintf("%#x: %s", ln.Addr, ln.Text))
		}
	}
	return lw, nil
}

// ProgramResult is one program's outcome inside a batch (and the
// program-mode payload of /v1/select). It deliberately carries no
// timing: every field is a pure function of (library fingerprint,
// program text, vector seed), which is what makes responses
// byte-identical across replicas.
type ProgramResult struct {
	Index          int      `json:"index"`
	Error          string   `json:"error,omitempty"`
	Fallback       bool     `json:"fallback,omitempty"`
	FallbackReason string   `json:"fallback_reason,omitempty"`
	RuleInsts      int      `json:"rule_insts,omitempty"`
	HookInsts      int      `json:"hook_insts,omitempty"`
	StaticCost     string   `json:"static_cost,omitempty"`
	Cycles         int64    `json:"cycles,omitempty"`
	Insts          int64    `json:"insts,omitempty"`
	BinarySize     int      `json:"binary_size,omitempty"`
	Checksums      []string `json:"checksums,omitempty"`
	MIR            string   `json:"mir,omitempty"`
}

// selectProgram lowers one corpus-text program: parse, legalize to the
// target's floor as the fuzz pipeline does, then lower on the
// deterministic vectors. Failures are per-program data, never HTTP
// errors — one malformed program must not void the rest of its batch.
func (env *selEnv) selectProgram(idx int, text string) (res ProgramResult) {
	res.Index = idx
	defer func() {
		if r := recover(); r != nil {
			res = ProgramResult{Index: idx, Error: fmt.Sprintf("panic: %v", r)}
		}
	}()
	p, err := fuzz.ParseProg(text)
	if err != nil {
		res.Error = err.Error()
		return res
	}
	f, err := p.Build()
	if err != nil {
		res.Error = err.Error()
		return res
	}
	if err := gmir.Legalize(f, env.def.minWidth); err != nil {
		res.Error = fmt.Sprintf("legalize: %v", err)
		return res
	}
	var runs []simRun
	for _, args := range fuzz.VectorsFor(env.seed, p, env.vectors) {
		runs = append(runs, simRun{args: args})
	}
	lw, err := env.lower(f, runs)
	res.Fallback = lw.rep.Fallback
	res.FallbackReason = lw.rep.FallbackReason
	if !res.Fallback {
		res.RuleInsts = lw.rep.RuleInsts
		res.HookInsts = lw.rep.HookInsts
		res.StaticCost = lw.staticCost
		res.Cycles = lw.cycles
		res.Insts = lw.insts
		res.BinarySize = lw.binarySize
		res.Checksums = lw.checksums
		res.MIR = lw.mir
	}
	if err != nil {
		res.Error = err.Error()
	}
	return res
}
