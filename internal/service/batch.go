package service

import (
	"fmt"
	"net/http"
)

// maxBatchBodyBytes bounds batch request bodies — batches carry up to
// maxBatchPrograms corpus-text programs, so they get a larger budget
// than the single-request cap.
const maxBatchBodyBytes = 8 << 20

// BatchSelectRequest is the body of POST /v1/select/batch: lower many
// inline programs under one library acquisition. The library is
// resolved (cache/peer/synthesis) exactly once for the whole batch —
// the amortization that makes high-throughput serving cheap.
type BatchSelectRequest struct {
	Target string `json:"target"`
	// Programs are straight-line gMIR programs in the fuzz corpus text
	// form; each gets its own ProgramResult (failures included), in
	// input order.
	Programs []string `json:"programs"`
	// TimeoutMS bounds the synthesis a cold cache may trigger.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// VectorSeed seeds the deterministic simulation inputs (default 1).
	VectorSeed uint64 `json:"vector_seed,omitempty"`
	// Vectors is the number of input vectors simulated per program
	// (default 1, capped at 8).
	Vectors int `json:"vectors,omitempty"`
	// Emit, when "mir", includes the selected MIR text per program.
	Emit EmitMode `json:"emit,omitempty"`
}

// BatchSelectResponse answers POST /v1/select/batch. Apart from the
// cache field (which records this replica's acquisition path), the body
// is a pure function of (fingerprint, programs, vector seed) — replicas
// answer byte-identically once warm.
type BatchSelectResponse struct {
	Target      string          `json:"target"`
	Fingerprint string          `json:"fingerprint"`
	Cache       string          `json:"cache"`
	Partial     bool            `json:"partial"`
	Programs    int             `json:"programs"`
	Selected    int             `json:"selected"`
	Fallbacks   int             `json:"fallbacks"`
	Failed      int             `json:"failed"`
	Results     []ProgramResult `json:"results"`
}

func (sv *Server) handleSelectBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchSelectRequest
	if !sv.decode(w, r, maxBatchBodyBytes, &req) {
		return
	}
	if len(req.Programs) == 0 {
		sv.fail(w, http.StatusBadRequest, fmt.Errorf("batch: no programs"))
		return
	}
	if len(req.Programs) > maxBatchPrograms {
		sv.fail(w, http.StatusBadRequest,
			fmt.Errorf("batch: %d programs exceeds the cap of %d (split the batch)", len(req.Programs), maxBatchPrograms))
		return
	}
	if req.Emit == "bytes" {
		sv.fail(w, http.StatusBadRequest, fmt.Errorf("batch: emit=bytes is not supported (use /v1/select)"))
		return
	}
	def, err := sv.resolveSelecting(req.Target)
	if err != nil {
		sv.fail(w, http.StatusBadRequest, err)
		return
	}
	e, cache, status, err := sv.entryFor(r.Context(), def, sv.timeout(req.TimeoutMS), true)
	if err != nil {
		sv.fail(w, status, err)
		return
	}
	env := sv.newSelEnv(def, e, req.VectorSeed, req.Vectors, req.Emit)
	resp := BatchSelectResponse{
		Target:      def.name,
		Fingerprint: e.Fingerprint,
		Cache:       cache,
		Partial:     e.Partial,
		Programs:    len(req.Programs),
		Results:     make([]ProgramResult, 0, len(req.Programs)),
	}
	for i, text := range req.Programs {
		res := env.selectProgram(i, text)
		switch {
		case res.Error != "":
			resp.Failed++
		case res.Fallback:
			resp.Fallbacks++
		default:
			resp.Selected++
		}
		resp.Results = append(resp.Results, res)
	}
	sv.metrics.Selections.Add(uint64(resp.Selected))
	sv.metrics.BatchPrograms.Add(uint64(len(req.Programs)))
	writeJSON(w, http.StatusOK, resp)
}
