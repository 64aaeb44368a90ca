package service

import (
	"fmt"

	"iselgen/internal/cost"
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

// progEnv is the per-request selection environment a batch shares: one
// cache entry (the amortized library acquisition), one backend, one
// cost model. Programs run through it sequentially — the same reuse
// discipline the fuzz driver applies.
type progEnv struct {
	target   string
	entry    *Entry
	backend  *isel.Backend
	model    *cost.Table
	minWidth int
	seed     uint64
	vectors  int
	emit     EmitMode
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

// newProgEnv builds the shared environment around an acquired cache
// entry, legalizing to the target's floor as the fuzz pipeline does.
func (sv *Server) newProgEnv(def *targetDef, e *Entry, seed uint64, vectors int, emit EmitMode) *progEnv {
	bk := def.backend(e.Target, e.Lib)
	bk.Obs = sv.obsv
	if seed == 0 {
		seed = 1
	}
	if vectors < 1 {
		vectors = 1
	}
	if vectors > maxProgramVectors {
		vectors = maxProgramVectors
	}
	return &progEnv{
		target:   def.name,
		entry:    e,
		backend:  bk,
		model:    def.cfg.CostModel,
		minWidth: def.minWidth,
		seed:     seed,
		vectors:  vectors,
		emit:     emit,
	}
}

// selectProgram lowers one corpus-text program through the shared
// environment: parse, legalize, select, simulate on the deterministic
// vectors. Failures are per-program data, never HTTP errors — one
// malformed program must not void the rest of its batch.
func (env *progEnv) selectProgram(idx int, text string) (res ProgramResult) {
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
	if err := gmir.Legalize(f, env.minWidth); err != nil {
		res.Error = fmt.Sprintf("legalize: %v", err)
		return res
	}
	isel.Prepare(f, env.target)
	mf, rep := env.backend.Select(f)
	res.Fallback = rep.Fallback
	res.FallbackReason = rep.FallbackReason
	if rep.Fallback {
		return res
	}
	res.RuleInsts = rep.RuleInsts
	res.HookInsts = rep.HookInsts
	res.StaticCost = cost.StaticOf(mf, env.model).String()
	res.BinarySize = mf.BinarySize()
	for _, args := range fuzz.VectorsFor(env.seed, p, env.vectors) {
		m := &sim.Machine{Mem: gmir.NewMemory(), Model: env.model}
		out, err := m.Run(mf, args)
		if err != nil {
			res.Error = fmt.Sprintf("sim: %v", err)
			return res
		}
		res.Cycles += out.Cycles
		res.Insts += out.Insts
		res.Checksums = append(res.Checksums, out.Ret.String())
	}
	if env.emit == "mir" {
		res.MIR = mf.String()
	}
	return res
}
