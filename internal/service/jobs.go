package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"iselgen/internal/obs"
)

// Job statuses: queued → running → done | failed. A job is "queued"
// only for the instant between admission and its goroutine starting;
// the real queueing happens inside the scheduler the job's synthesis is
// submitted to.
const (
	JobQueued  = "queued"
	JobRunning = "running"
	JobDone    = "done"
	JobFailed  = "failed"
)

// defaultMaxJobs caps concurrently admitted async jobs when the config
// leaves MaxJobs zero.
const defaultMaxJobs = 64

// finishedJobsKept bounds the completed-job history available to
// polling; the oldest finished jobs are pruned past it.
const finishedJobsKept = 256

// JobStatus is the JSON shape of one async job, answered by GET
// /v1/jobs/{id} (and, element-wise, GET /v1/jobs). ElapsedMS counts
// from submission until completion (or until now, for live jobs) — the
// progress-polling signal alongside Status.
type JobStatus struct {
	ID        string              `json:"id"`
	Kind      string              `json:"kind"`
	Status    string              `json:"status"`
	Target    string              `json:"target"`
	ElapsedMS float64             `json:"elapsed_ms"`
	Error     string              `json:"error,omitempty"`
	Result    *SynthesizeResponse `json:"result,omitempty"`
}

// jobRecord is the mutable server-side state behind a JobStatus.
type jobRecord struct {
	id       string
	kind     string
	target   string
	status   string
	created  time.Time
	finished time.Time
	err      string
	result   *SynthesizeResponse
}

// jobTable is the async job registry: bounded admission, completion
// history, and a drain hook for graceful shutdown.
type jobTable struct {
	max int

	mu     sync.Mutex
	jobs   map[string]*jobRecord
	order  []string // submission order, for pruning and listing
	active int
	seq    uint64
	drain  chan struct{} // closed and re-made as active drains to zero
}

func newJobTable(max int) *jobTable {
	if max < 1 {
		max = defaultMaxJobs
	}
	return &jobTable{max: max, jobs: map[string]*jobRecord{}}
}

var errJobsFull = errors.New("service: too many async jobs in flight")

// admit registers a new job or reports saturation.
func (t *jobTable) admit(kind, target string) (*jobRecord, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.active >= t.max {
		return nil, errJobsFull
	}
	t.seq++
	rec := &jobRecord{
		id:      fmt.Sprintf("job-%06d", t.seq),
		kind:    kind,
		target:  target,
		status:  JobQueued,
		created: time.Now(),
	}
	t.jobs[rec.id] = rec
	t.order = append(t.order, rec.id)
	t.active++
	t.pruneLocked()
	return rec, nil
}

// pruneLocked drops the oldest finished jobs past the history bound.
func (t *jobTable) pruneLocked() {
	finished := len(t.order) - t.active
	for i := 0; finished > finishedJobsKept && i < len(t.order); {
		id := t.order[i]
		rec := t.jobs[id]
		if rec.status == JobDone || rec.status == JobFailed {
			delete(t.jobs, id)
			t.order = append(t.order[:i], t.order[i+1:]...)
			finished--
			continue
		}
		i++
	}
}

func (t *jobTable) setRunning(rec *jobRecord) {
	t.mu.Lock()
	rec.status = JobRunning
	t.mu.Unlock()
}

func (t *jobTable) finish(rec *jobRecord, result *SynthesizeResponse, err error) {
	t.mu.Lock()
	rec.finished = time.Now()
	if err != nil {
		rec.status = JobFailed
		rec.err = err.Error()
	} else {
		rec.status = JobDone
		rec.result = result
	}
	t.active--
	if t.drain != nil && t.active == 0 {
		close(t.drain)
		t.drain = nil
	}
	t.mu.Unlock()
}

func (t *jobTable) get(id string) *jobRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.jobs[id]
}

func (t *jobTable) activeCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.active
}

// wait blocks until every admitted job has finished or ctx expires —
// the jobs half of graceful shutdown.
func (t *jobTable) wait(ctx context.Context) {
	t.mu.Lock()
	if t.active == 0 {
		t.mu.Unlock()
		return
	}
	if t.drain == nil {
		t.drain = make(chan struct{})
	}
	drain := t.drain
	t.mu.Unlock()
	select {
	case <-drain:
	case <-ctx.Done():
	}
}

// status snapshots one record into its JSON shape.
func (t *jobTable) status(rec *jobRecord) JobStatus {
	t.mu.Lock()
	defer t.mu.Unlock()
	js := JobStatus{
		ID:     rec.id,
		Kind:   rec.kind,
		Status: rec.status,
		Target: rec.target,
		Error:  rec.err,
		Result: rec.result,
	}
	end := rec.finished
	if end.IsZero() {
		end = time.Now()
	}
	js.ElapsedMS = float64(end.Sub(rec.created).Nanoseconds()) / 1e6
	return js
}

// JobSubmitResponse answers POST /v1/jobs: the job ID and where to poll.
type JobSubmitResponse struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	Poll   string `json:"poll"`
}

// handleJobSubmit is the asynchronous twin of POST /v1/synthesize: the
// body is the same SynthesizeRequest, but the response is an immediate
// 202 with a job ID; the synthesis runs detached from the HTTP request
// (long synthesis survives any client disconnect) and its result is
// collected by polling GET /v1/jobs/{id}.
func (sv *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	if sv.closing.Load() {
		sv.fail(w, http.StatusServiceUnavailable, errors.New("service: shutting down"))
		return
	}
	var req SynthesizeRequest
	if !sv.decode(w, r, maxBodyBytes, &req) {
		return
	}
	def, err := sv.resolveTarget(req.Target, req.Spec)
	if err != nil {
		sv.fail(w, http.StatusBadRequest, err)
		return
	}
	rec, err := sv.jobs.admit("synthesize", def.name)
	if err != nil {
		sv.fail(w, http.StatusTooManyRequests, err)
		return
	}
	sv.metrics.JobsSubmitted.Add(1)
	rid := RequestIDFrom(r.Context())
	// The job outlives the 202 response, so the sampled trace context is
	// captured by value: the detached synthesis then appears in the fleet
	// trace under a "job synthesize" span even though the submitting
	// request span ended long before the work did.
	tc, _ := TraceContextFrom(r.Context())
	go func() {
		sv.jobs.setRunning(rec)
		var jsp *obs.Span
		if tc.Valid() {
			jsp = sv.obsv.TracerOrNil().StartRemote("job synthesize", tc).
				SetStr("job_id", rec.id).SetStr("target", def.name)
		}
		ctx := WithRequestID(context.Background(), rid)
		ctx = WithTraceContext(ctx, jsp.Context())
		e, cache, _, err := sv.entryFor(ctx, def, sv.timeout(req.TimeoutMS), true)
		if err != nil {
			jsp.SetStr("cache", "error").End()
			sv.jobs.finish(rec, nil, err)
			return
		}
		resp := synthesizeResponse(e, cache, req.Emit)
		jsp.SetStr("cache", cache).End()
		sv.jobs.finish(rec, resp, nil)
	}()
	w.Header().Set("Location", "/v1/jobs/"+rec.id)
	writeJSON(w, http.StatusAccepted, JobSubmitResponse{
		ID:     rec.id,
		Status: JobQueued,
		Poll:   "/v1/jobs/" + rec.id,
	})
}

func (sv *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	rec := sv.jobs.get(r.PathValue("id"))
	if rec == nil {
		sv.fail(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, sv.jobs.status(rec))
}

func (sv *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	sv.jobs.mu.Lock()
	ids := append([]string(nil), sv.jobs.order...)
	sv.jobs.mu.Unlock()
	out := make([]JobStatus, 0, len(ids))
	for _, id := range ids {
		if rec := sv.jobs.get(id); rec != nil {
			out = append(out, sv.jobs.status(rec))
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}
