package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"iselgen/internal/bench"
	"iselgen/internal/core"
	"iselgen/internal/harness"
	"iselgen/internal/incr"
	"iselgen/internal/isa"
	"iselgen/internal/isel"
	"iselgen/internal/obs"
	"iselgen/internal/pattern"
	"iselgen/internal/rules"
	"iselgen/internal/solver"
	"iselgen/internal/spec"
	"iselgen/internal/targets"
	"iselgen/internal/term"
)

// fingerprintScheme versions the cache key derivation; bump it whenever
// the synthesis pipeline changes in a way that invalidates old artifacts.
const fingerprintScheme = "iselgen-cache-v1"

// maxBodyBytes bounds request bodies (inline specs included).
const maxBodyBytes = 1 << 20

// Config configures a Server.
type Config struct {
	// Workers is the synthesis worker pool size (jobs running at once).
	Workers int
	// QueueDepth bounds the waiting-job queue; a full queue answers 429.
	QueueDepth int
	// CacheDir, when non-empty, enables the disk artifact layer.
	CacheDir string
	// CacheEntries, when positive, caps the in-memory library cache;
	// past the cap the least-recently-used entry is evicted (0 =
	// unbounded). Whatever the cap, the cache keeps at most one entry
	// per lineage: an edit's library replaces its base.
	CacheEntries int
	// Synth is the server-wide synthesis configuration; its semantic
	// knobs are part of every fingerprint.
	Synth core.Config
	// MaxPatterns caps the corpus pattern pool per synthesis (0 = all).
	MaxPatterns int
	// DefaultTimeout is the per-job synthesis deadline applied when a
	// request does not set timeout_ms (0 = no deadline).
	DefaultTimeout time.Duration
	// Obs, when set, enables the observability surface: per-request
	// spans (GET /v1/trace), the Prometheus registry (GET /metrics), and
	// SMT query provenance (GET /v1/rules/{fp}/why). It is threaded into
	// every synthesis job and selection backend. Purely observational —
	// never fingerprinted.
	Obs *obs.Obs
	// TraceSample is the fraction of trace-context-less requests that
	// start a new sampled distributed trace (0 = default 1.0: sample
	// everything; negative = never start traces here, though a valid
	// incoming X-Iseld-Trace context is always honored). Sampled
	// requests get a 128-bit trace ID that crosses every fleet hop and
	// resolves through GET /v1/trace/{traceId}.
	TraceSample float64
	// Logger, when set, receives one structured access-log line per
	// request (with request IDs) plus server lifecycle events.
	Logger *slog.Logger
}

// Server is the selection service: HTTP handlers over the artifact
// store and the job scheduler.
type Server struct {
	cfg       Config
	store     *Store
	sched     *Scheduler
	metrics   Metrics
	mux       *http.ServeMux
	filler    RemoteFiller
	collector TraceCollector
	sample    float64
	builtins  map[string]*builtinSlot

	// corpora memoizes the corpus patterns by isel.PrepareVariant of the
	// target name (see corpus), so it holds at most three slices.
	corpusMu sync.Mutex
	corpora  map[string][]*pattern.Pattern

	obsv   *obs.Obs
	logger *slog.Logger
	start  time.Time
	build  BuildInfo
	reqID  atomic.Uint64

	// testJobGate, when set, is invoked at the start of every scheduled
	// job — the in-package tests use it to hold jobs in a deterministic
	// "running" state while they assert on singleflight and backpressure.
	testJobGate func()
}

// errNoTracer answers GET /v1/trace on a server started without one.
var errNoTracer = errors.New("no tracer attached (start the server with observability enabled)")

// New builds a Server (and its store and scheduler) from cfg.
func New(cfg Config) (*Server, error) {
	if cfg.Workers < 1 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth < 1 {
		cfg.QueueDepth = 8
	}
	store, err := NewStore(cfg.CacheDir, cfg.CacheEntries)
	if err != nil {
		return nil, err
	}
	// Thread the observability sink into every synthesis job the server
	// runs (safe: Obs is not part of any cache fingerprint).
	if cfg.Synth.Obs == nil {
		cfg.Synth.Obs = cfg.Obs
	}
	// Likewise the verdict memo: the server owns it, so every synthesis,
	// solver endpoint and memo metric of this server reads one store.
	if cfg.Synth.Verdicts == nil {
		cfg.Synth.Verdicts = solver.New(0)
	}
	if lg := cfg.Logger; lg != nil {
		warn := func(format string, args ...any) { lg.Warn(fmt.Sprintf(format, args...)) }
		store.SetLogger(warn)
		cfg.Synth.Verdicts.SetLogger(warn)
	}
	sample := cfg.TraceSample
	switch {
	case sample < 0:
		sample = 0
	case sample == 0:
		sample = 1
	case sample > 1:
		sample = 1
	}
	sv := &Server{
		cfg:    cfg,
		store:  store,
		sched:  NewScheduler(cfg.Workers, cfg.QueueDepth),
		mux:    http.NewServeMux(),
		sample: sample,
		obsv:   cfg.Obs,
		logger: cfg.Logger,
		start:  time.Now(),
		build:  readBuildInfo(),
	}
	sv.attachJournal()
	sv.builtins = map[string]*builtinSlot{}
	sv.corpora = map[string][]*pattern.Pattern{}
	for _, bt := range targets.All() {
		sv.builtins[bt.Name] = &builtinSlot{bt: bt}
	}
	sv.mux.HandleFunc("POST /v1/synthesize", sv.handleSynthesize)
	sv.mux.HandleFunc("POST /v1/select", sv.handleSelect)
	sv.mux.HandleFunc("POST /v1/select/batch", sv.handleSelectBatch)
	sv.mux.HandleFunc("POST /v1/artifact", sv.handleArtifact)
	sv.mux.HandleFunc("GET /v1/solver/query", sv.handleSolverQuery)
	sv.mux.HandleFunc("GET /v1/rules", sv.handleRuleList)
	sv.mux.HandleFunc("GET /v1/rules/{fingerprint}/why", sv.handleRuleWhy)
	sv.mux.HandleFunc("GET /v1/metrics", sv.handleMetrics)
	sv.mux.HandleFunc("GET /healthz", sv.handleHealthz)
	sv.registerObsRoutes()
	sv.registerGauges()
	return sv, nil
}

// Handler returns the HTTP handler tree, wrapped in the request
// middleware (request IDs, per-request spans, access log).
func (sv *Server) Handler() http.Handler { return http.HandlerFunc(sv.withObs) }

// HandleFunc mounts an extra route beside the service's own, inside the
// same request middleware: the cluster layer adds GET /v1/cluster this
// way. Call it after New and before the handler serves traffic, like
// SetFiller.
func (sv *Server) HandleFunc(pattern string, h http.HandlerFunc) { sv.mux.HandleFunc(pattern, h) }

// Close drains the scheduler: queued and in-flight synthesis jobs finish
// (completing their flights) before Close returns, then the store's
// persist queue is flushed and its writer stopped, and the verdict
// journal is closed.
func (sv *Server) Close() {
	sv.sched.Close()
	sv.store.Close()
	sv.cfg.Synth.Verdicts.Close()
}

// Shutdown is the graceful half of Close: it drains queued and
// in-flight synthesis flights under the context's deadline, then
// flushes the disk-cache persist queue. Afterwards a request that would
// open a new flight answers 503, since the scheduler is closed. On
// deadline expiry it returns the context error with whatever drained;
// the store writer keeps running so a follow-up Close stays safe.
func (sv *Server) Shutdown(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		sv.sched.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return ctx.Err()
	}
	return sv.store.Flush(ctx)
}

// targetDef is everything the service needs to know about one resolved
// target: its spec source, how to materialize it, the synthesis config
// it runs under with the keys that config yields, and — for the builtin
// selection targets — how to build a backend around a synthesized
// library. A builtin's definition is resolved once per server and then
// shared read-only by every request; an inline one once per request.
type targetDef struct {
	name     string
	spec     string
	inline   bool // spec arrived in the request, not resolved from a builtin
	load     func(b *term.Builder) (*isa.Target, error)
	backend  func(tgt *isa.Target, lib *rules.Library) *isel.Backend
	minWidth int // legalization floor of program-mode selection
	// cfg is the server-wide synthesis config specialized to the target;
	// fp the full-cache fingerprint it yields, and lineage its incremental
	// lineage key.
	cfg     core.Config
	fp      string
	lineage string
}

// builtinSlot holds one builtin target's definition, resolved on first
// use and kept for the server's lifetime.
type builtinSlot struct {
	bt   *targets.Builtin
	once sync.Once
	def  *targetDef
}

// resolveTarget maps a request to a target definition: a builtin name,
// or an inline DSL spec (checked up front so malformed specs fail fast
// with a 400 instead of inside a scheduled job).
func (sv *Server) resolveTarget(name, inline string) (*targetDef, error) {
	if inline != "" {
		if name == "" {
			name = "inline"
		}
		if _, ok := sv.builtins[name]; ok {
			return nil, fmt.Errorf("inline spec may not shadow builtin target %q", name)
		}
		if _, err := spec.Check(inline); err != nil {
			return nil, err
		}
		return sv.define(&targetDef{
			name:     name,
			spec:     inline,
			inline:   true,
			minWidth: 32,
			load: func(b *term.Builder) (*isa.Target, error) {
				return isa.LoadTarget(b, name, inline, nil, 0)
			},
		}, nil), nil
	}
	if name == "" {
		return nil, errors.New("request must set \"target\" or \"spec\"")
	}
	slot, ok := sv.builtins[name]
	if !ok {
		_, err := targets.Lookup(name)
		return nil, err
	}
	slot.once.Do(func() { slot.def = sv.resolveBuiltin(slot.bt) })
	return slot.def, nil
}

// resolveSelecting resolves a builtin target that has a selection
// backend — the targets /v1/select and /v1/select/batch serve.
func (sv *Server) resolveSelecting(name string) (*targetDef, error) {
	def, err := sv.resolveTarget(name, "")
	if err == nil && def.backend == nil {
		_, err = targets.LookupSelecting(name)
	}
	return def, err
}

// resolveBuiltin derives a builtin target's definition. Generating its
// spec text is why each server does this once per target rather than
// once per request.
func (sv *Server) resolveBuiltin(bt *targets.Builtin) *targetDef {
	return sv.define(&targetDef{
		name:     bt.Name,
		spec:     bt.Spec(),
		load:     bt.Load,
		backend:  bt.Synth,
		minWidth: bt.MinWidth,
	}, bt.Extra)
}

// define specializes the server-wide synthesis config to a target —
// wiring in its special sequences (§VII-A) unless the server config sets
// its own — and derives the keys the result yields. The deadline is
// deliberately not part of the key: partial results are never cached,
// and a full result is identical whatever budget it ran under. The
// lineage key is the fingerprint *minus the spec text*: two revisions of
// a spec share a lineage, which is exactly what lets the second revision
// resynthesize from the first one's cached entry, and then replace it.
func (sv *Server) define(def *targetDef, extra func(*term.Builder, *isa.Target) []*isa.Sequence) *targetDef {
	cfg := sv.cfg.Synth
	if cfg.ExtraSequences == nil {
		cfg.ExtraSequences = extra
	}
	key, maxpat := cfg.CacheKey(), fmt.Sprintf("maxpat=%d", sv.cfg.MaxPatterns)
	def.cfg = cfg
	def.fp = isa.Fingerprint(fingerprintScheme, def.name, def.spec, key, maxpat)
	def.lineage = isa.Fingerprint(fingerprintScheme, "lineage", def.name, key, maxpat)
	return def
}

// timeout is the synthesis deadline for a request asking for ms
// milliseconds (0 = the server default).
func (sv *Server) timeout(ms int64) time.Duration {
	if ms > 0 {
		return time.Duration(ms) * time.Millisecond
	}
	return sv.cfg.DefaultTimeout
}

// entryFor implements the cache protocol shared by /v1/synthesize,
// /v1/select (single and batch), and /v1/artifact: memory
// hit, or join an in-flight job, or own a new job (disk layer, then —
// with allowPeer — a peer fill from the fingerprint's ring owner, then
// synthesis under the deadline). The returned cache string is the path
// taken: "hit", "disk", "peer", "incr", "miss", or "join". On error, the
// returned status is the HTTP code to answer with: statusClientClosed
// when the client cancelled its own request while it waited, 504 when
// its deadline passed. allowPeer is false exactly when the request *is*
// a peer fill, so replicas can never fill from each other in a cycle.
func (sv *Server) entryFor(ctx context.Context, def *targetDef, timeout time.Duration, allowPeer bool) (e *Entry, cache string, status int, err error) {
	fp := def.fp
	e, fl, owner := sv.store.Acquire(def.lineage, fp)
	if e != nil {
		sv.metrics.CacheHits.Add(1)
		return e, "hit", http.StatusOK, nil
	}
	if owner {
		rid := RequestIDFrom(ctx)
		// The flight outlives the HTTP request (joiners may be served
		// after the opener disconnects), so the sampled trace context is
		// captured by value here and re-opened as a "synth flight" span
		// inside the detached job — the deep synthesis work then shows up
		// in the fleet trace parented under the request span that owned
		// the flight.
		tc, _ := TraceContextFrom(ctx)
		job := func() {
			var fsp *obs.Span
			if tc.Valid() {
				fsp = sv.obsv.TracerOrNil().StartRemote("synth flight", tc).
					SetStr("fingerprint", fp)
			}
			ent, err := sv.fill(def, rid, timeout, allowPeer, fsp)
			origin := "error"
			if err == nil {
				origin = ent.Origin
			}
			// The flight span ends before Complete wakes the waiters, so a
			// sampled request's trace is whole once it answers. Complete
			// also caches the entry before it wakes them, so the client's
			// next edit of this lineage finds it as its base.
			fsp.SetStr("origin", origin).End()
			sv.store.Complete(fp, ent, err)
		}
		if err := sv.sched.Submit(job); err != nil {
			// The flight must still resolve or joiners would hang.
			sv.store.Complete(fp, nil, err)
			status := http.StatusServiceUnavailable
			if errors.Is(err, ErrQueueFull) {
				status = http.StatusTooManyRequests
			}
			return nil, "", status, err
		}
	} else {
		sv.metrics.Joins.Add(1)
	}
	ent, err := fl.Wait(ctx)
	if err != nil {
		switch {
		case errors.Is(ctx.Err(), context.Canceled):
			return nil, "", statusClientClosed, err
		case ctx.Err() != nil:
			return nil, "", http.StatusGatewayTimeout, err
		}
		return nil, "", http.StatusInternalServerError, err
	}
	switch {
	case !owner:
		cache = "join"
	case ent.Origin == "disk":
		cache = "disk"
	case ent.Origin == "incremental":
		cache = "incr"
	case ent.Origin == "peer":
		cache = "peer"
	default:
		cache = "miss"
	}
	return ent, cache, http.StatusOK, nil
}

// fill produces the entry for an owned flight: the disk layer, then —
// with allowPeer — a peer fill, then a local synthesis. Every entry
// carries its lineage, so the store keeps at most one of each. A panic
// on the way becomes the flight's error, so one bad job answers 500
// instead of ending the daemon. fsp is the flight span (nil when
// unsampled).
func (sv *Server) fill(def *targetDef, rid string, timeout time.Duration, allowPeer bool, fsp *obs.Span) (ent *Entry, err error) {
	defer func() {
		if p := recover(); p != nil {
			ent, err = nil, fmt.Errorf("service: synthesis of %s panicked: %v", def.name, p)
			if sv.logger != nil {
				sv.logger.Error("synthesis panicked", "target", def.name, "fingerprint", def.fp,
					"panic", fmt.Sprint(p), "stack", string(debug.Stack()))
			}
		}
	}()
	if sv.testJobGate != nil {
		sv.testJobGate()
	}
	ent, ok := sv.store.LoadDisk(def.fp, def.lineage, func() (*term.Builder, *isa.Target, error) {
		return sv.loadTarget(def, fsp)
	})
	if ok {
		sv.metrics.DiskHits.Add(1)
	} else if allowPeer {
		// Disk miss: ask the fingerprint's ring owner before doing any
		// work ourselves — across the fleet, only the owner ever
		// synthesizes a key, so N replicas missing at once still cost
		// one synthesis (the owner's local singleflight collapses the
		// concurrent fills).
		if ent, ok = sv.fillFromPeer(def, rid, timeout, fsp.Context()); ok {
			sv.metrics.PeerFills.Add(1)
		}
	}
	if !ok {
		if ent, err = sv.synthesize(def, timeout, fsp); err != nil {
			return nil, err
		}
	}
	ent.Lineage = def.lineage
	return ent, nil
}

// loadTarget materializes def's target into a fresh builder under a
// "spec/load" span: a child of parent (the flight or fill span) when
// there is one, a root span otherwise.
func (sv *Server) loadTarget(def *targetDef, parent *obs.Span) (*term.Builder, *isa.Target, error) {
	sp := parent.Child("spec/load")
	if sp == nil {
		sp = sv.obsv.TracerOrNil().Start("spec/load")
	}
	sp.SetStr("target", def.name)
	defer sp.End()
	b := term.NewBuilder()
	tgt, err := def.load(b)
	return b, tgt, err
}

// synthesize runs one local synthesis under the job's own deadline
// (detached from any HTTP request context, so a disconnecting client
// cannot degrade a shared flight to a partial result). When the store
// holds an entry of def's lineage — the same target name and config,
// another spec text — the run is incremental: incr.Resynthesize over
// that entry's persisted artifact diffs instruction fingerprints,
// re-verifies the rules whose support is unchanged (randomized
// evaluation, zero solver queries), and synthesizes only the remainder.
// Otherwise it builds the sequence pool and synthesizes the corpus from
// scratch. parent is the flight span (nil when unsampled).
func (sv *Server) synthesize(def *targetDef, timeout time.Duration, parent *obs.Span) (*Entry, error) {
	t0 := time.Now()
	// The deadline clock starts before pool construction: the budget is
	// for the whole job, and an exhausted budget degrades the matching pass
	// to index-only lookups rather than aborting with nothing.
	ctx := context.Background()
	cancel := context.CancelFunc(func() {})
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, timeout)
	}
	defer cancel()
	b, tgt, err := sv.loadTarget(def, parent)
	if err != nil {
		return nil, err
	}
	// Both paths derive the corpus the same way, which is the consistency
	// the incremental planner requires.
	pats := sv.corpus(def.name)
	ent := &Entry{Fingerprint: def.fp, TargetName: def.name, Target: tgt, Origin: "synthesized"}
	var art *incr.Artifact
	if base := sv.store.Lineage(def.lineage); base != nil {
		art, _ = incr.ParseArtifact(isel.SaveLibraryFor(base.Lib, base.Target))
	}
	if art != nil {
		lib, rep := incr.Resynthesize(ctx, b, tgt, art, incr.Options{Config: def.cfg, Patterns: pats})
		ent.Lib, ent.Partial, ent.Stats, ent.Origin = lib, rep.Curtailed, rep.Stats, "incremental"
		ent.Reused, ent.Resynth = rep.Reused, rep.Resynthesized
		sv.metrics.IncrRuns.Add(1)
		sv.metrics.RulesReused.Add(uint64(rep.Reused))
		sv.metrics.RulesResynth.Add(uint64(rep.Resynthesized))
	} else {
		syn := core.New(b, tgt, def.cfg)
		syn.BuildPool()
		ent.Lib = rules.NewLibrary(def.name)
		ent.Partial = syn.SynthesizeCtx(ctx, pats, ent.Lib)
		ent.Stats = syn.Stats.Snapshot()
		sv.metrics.SynthRuns.Add(1)
	}
	ent.Lib.Freeze()
	if ent.Partial {
		sv.metrics.PartialRes.Add(1)
	}
	sv.metrics.AddStages(ent.Stats)
	ent.Elapsed = time.Since(t0)
	return ent, nil
}

// corpus returns the corpus patterns a synthesis of the named target
// runs over. They depend only on the target's isel.PrepareVariant and on
// MaxPatterns, which is fixed per server, so each variant's corpus is
// built once and shared by every job, whatever target names clients
// choose. Synthesis only reads the patterns, and CorpusPatterns has
// already cached each one's key, so sharing them is race-free.
func (sv *Server) corpus(name string) []*pattern.Pattern {
	variant := isel.PrepareVariant(name)
	sv.corpusMu.Lock()
	defer sv.corpusMu.Unlock()
	pats, ok := sv.corpora[variant]
	if !ok {
		pats = harness.CorpusPatterns(name, sv.cfg.MaxPatterns)
		sv.corpora[variant] = pats
	}
	return pats
}

// SynthesizeRequest is the body of POST /v1/synthesize.
type SynthesizeRequest struct {
	// Target names a builtin target (aarch64, riscv, x86) — or, with
	// Spec set, names the inline target (default "inline").
	Target string `json:"target,omitempty"`
	// Spec is inline DSL source for a custom target.
	Spec string `json:"spec,omitempty"`
	// TimeoutMS is the synthesis deadline; on expiry the response is the
	// partial library of index-proven rules with partial=true.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Emit asks for the TableGen-flavoured library text in the response.
	Emit bool `json:"emit,omitempty"`
}

// SynthesizeResponse is the body answering POST /v1/synthesize.
type SynthesizeResponse struct {
	Target      string  `json:"target"`
	Fingerprint string  `json:"fingerprint"`
	Rules       int     `json:"rules"`
	Partial     bool    `json:"partial"`
	Cache       string  `json:"cache"` // hit | disk | miss | join | incr
	ElapsedMS   float64 `json:"elapsed_ms"`
	// Reused and Resynthesized report, for cache=incr responses, how many
	// rules were carried over from the lineage's artifact (re-verified, no
	// solver) versus synthesized for the delta.
	Reused        int             `json:"reused_rules,omitempty"`
	Resynthesized int             `json:"resynthesized_rules,omitempty"`
	BySource      map[string]int  `json:"by_source"`
	Stats         core.StageStats `json:"stats"`
	Library       string          `json:"library,omitempty"`
}

func (sv *Server) handleSynthesize(w http.ResponseWriter, r *http.Request) {
	var req SynthesizeRequest
	if !sv.decode(w, r, maxBodyBytes, &req) {
		return
	}
	def, err := sv.resolveTarget(req.Target, req.Spec)
	if err != nil {
		sv.fail(w, http.StatusBadRequest, err)
		return
	}
	e, cache, status, err := sv.entryFor(r.Context(), def, sv.timeout(req.TimeoutMS), true)
	if err != nil {
		sv.fail(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, synthesizeResponse(e, cache, req.Emit))
}

// synthesizeResponse builds the answer to POST /v1/synthesize from the
// entry it acquired along the given cache path.
func synthesizeResponse(e *Entry, cache string, emit bool) *SynthesizeResponse {
	resp := &SynthesizeResponse{
		Target:        e.TargetName,
		Fingerprint:   e.Fingerprint,
		Rules:         e.Lib.Len(),
		Partial:       e.Partial,
		Cache:         cache,
		ElapsedMS:     float64(e.Elapsed.Nanoseconds()) / 1e6,
		Reused:        e.Reused,
		Resynthesized: e.Resynth,
		BySource:      e.Lib.Summarize().BySource,
		Stats:         e.Stats,
	}
	if emit {
		resp.Library = e.Lib.Emit()
	}
	return resp
}

// SelectRequest is the body of POST /v1/select: lower one gMIR program
// from the benchmark corpus with the target's synthesized library.
type SelectRequest struct {
	Target string `json:"target"`
	// Workload names a gMIR program from the SPEC-analog suite.
	Workload string `json:"workload,omitempty"`
	// Program is an inline straight-line gMIR program in the fuzz corpus
	// text form — the alternative to Workload for arbitrary programs
	// (the load harness's path). Simulated on deterministic input
	// vectors derived from VectorSeed.
	Program string `json:"program,omitempty"`
	// VectorSeed seeds the deterministic input vectors a Program is
	// simulated on (default 1); identical across replicas by design.
	VectorSeed uint64 `json:"vector_seed,omitempty"`
	// Scale stretches the workload iteration counts (default 1).
	Scale int `json:"scale,omitempty"`
	// TimeoutMS bounds the synthesis this request may trigger on a cold
	// cache.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Emit asks for the selected code in the response: "mir" for the
	// selected MIR text (JSON true is accepted as a legacy alias) or
	// "bytes" for assembled machine code (hex plus a decoded listing)
	// through the spec-derived encoder.
	Emit EmitMode `json:"emit,omitempty"`
}

// EmitMode is the select endpoint's emit knob: "", "mir", or "bytes".
// It unmarshals from either a string or the legacy boolean form (true
// meaning "mir").
type EmitMode string

// UnmarshalJSON accepts `"mir"`, `"bytes"`, `""`, `true`, and `false`.
func (m *EmitMode) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case "true":
		*m = "mir"
		return nil
	case "false":
		*m = ""
		return nil
	}
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("emit must be \"mir\", \"bytes\", or a boolean")
	}
	switch s {
	case "", "mir", "bytes":
		*m = EmitMode(s)
		return nil
	}
	return fmt.Errorf("unknown emit mode %q (have: mir, bytes)", s)
}

// SelectResponse is the body answering POST /v1/select.
type SelectResponse struct {
	Target         string   `json:"target"`
	Workload       string   `json:"workload"`
	Fingerprint    string   `json:"fingerprint"`
	Cache          string   `json:"cache"`
	Partial        bool     `json:"partial"`
	Fallback       bool     `json:"fallback"`
	FallbackReason string   `json:"fallback_reason,omitempty"`
	RuleInsts      int      `json:"rule_insts"`
	HookInsts      int      `json:"hook_insts"`
	RulesUsed      []string `json:"rules_used"`
	// CostVersion is never set: answers carry no cost table.
	//
	// Deprecated: only the frozen benchmark's replay (cmd/iselperf) sets
	// it; the benchmark change of ROADMAP item 2 deletes it.
	CostVersion string `json:"cost_version,omitempty"`
	// StaticCost is the static cost "latency,size" of the selected code,
	// summed from the spec's per-instruction metadata (cost.StaticOf).
	StaticCost string `json:"static_cost,omitempty"`
	Cycles     int64  `json:"cycles,omitempty"`
	Insts      int64  `json:"insts,omitempty"`
	BinarySize int    `json:"binary_size,omitempty"`
	Checksum   string `json:"checksum,omitempty"`
	MIR        string `json:"mir,omitempty"`
	// Bytes is the assembled machine code (hex) and Listing its decoded
	// disassembly, present with emit="bytes".
	Bytes   string   `json:"bytes,omitempty"`
	Listing []string `json:"listing,omitempty"`
}

func (sv *Server) handleSelect(w http.ResponseWriter, r *http.Request) {
	var req SelectRequest
	if !sv.decode(w, r, maxBodyBytes, &req) {
		return
	}
	def, err := sv.resolveSelecting(req.Target)
	if err != nil {
		sv.fail(w, http.StatusBadRequest, err)
		return
	}
	var work *bench.Workload
	switch {
	case req.Program != "" && req.Workload != "":
		sv.fail(w, http.StatusBadRequest, fmt.Errorf(`set "workload" or "program", not both`))
		return
	case req.Program != "" && req.Emit == "bytes":
		sv.fail(w, http.StatusBadRequest, fmt.Errorf(`emit=bytes is not supported with "program" (use "workload")`))
		return
	case req.Program == "":
		if req.Scale > maxWorkloadScale {
			sv.fail(w, http.StatusBadRequest, fmt.Errorf("scale %d exceeds the cap of %d", req.Scale, maxWorkloadScale))
			return
		}
		suite := bench.Suite(req.Scale)
		for i := range suite {
			if suite[i].Name == req.Workload {
				work = &suite[i]
				break
			}
		}
		if work == nil {
			names := make([]string, len(suite))
			for i := range suite {
				names[i] = suite[i].Name
			}
			sv.fail(w, http.StatusBadRequest, fmt.Errorf("unknown workload %q (have %v)", req.Workload, names))
			return
		}
	}
	e, cache, status, err := sv.entryFor(r.Context(), def, sv.timeout(req.TimeoutMS), true)
	if err != nil {
		sv.fail(w, status, err)
		return
	}
	env := sv.newSelEnv(def, e, req.VectorSeed, 1, req.Emit)
	resp := SelectResponse{
		Target:      def.name,
		Fingerprint: e.Fingerprint,
		Cache:       cache,
		Partial:     e.Partial,
	}
	if req.Program != "" {
		res := env.selectProgram(0, req.Program)
		if res.Error != "" {
			sv.fail(w, http.StatusUnprocessableEntity, fmt.Errorf("program: %s", res.Error))
			return
		}
		if !res.Fallback {
			sv.metrics.Selections.Add(1)
		}
		resp.Workload = "program"
		resp.Fallback, resp.FallbackReason = res.Fallback, res.FallbackReason
		resp.RuleInsts, resp.HookInsts = res.RuleInsts, res.HookInsts
		resp.StaticCost, resp.BinarySize = res.StaticCost, res.BinarySize
		resp.Cycles, resp.Insts = res.Cycles, res.Insts
		if len(res.Checksums) > 0 {
			resp.Checksum = res.Checksums[0]
		}
		resp.MIR = res.MIR
		writeJSON(w, http.StatusOK, resp)
		return
	}
	lw, err := env.lower(work.Build(), []simRun{{args: work.Args, initMem: work.InitMem}})
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, errEmitBytes) {
			status = http.StatusUnprocessableEntity
		}
		sv.fail(w, status, err)
		return
	}
	if !lw.rep.Fallback {
		sv.metrics.Selections.Add(1)
	}
	resp.Workload = work.Name
	resp.Fallback, resp.FallbackReason = lw.rep.Fallback, lw.rep.FallbackReason
	resp.RuleInsts, resp.HookInsts, resp.RulesUsed = lw.rep.RuleInsts, lw.rep.HookInsts, lw.rep.RulesUsed
	resp.StaticCost, resp.BinarySize = lw.staticCost, lw.binarySize
	resp.Cycles, resp.Insts = lw.cycles, lw.insts
	if len(lw.checksums) > 0 {
		resp.Checksum = lw.checksums[0]
	}
	resp.MIR, resp.Bytes, resp.Listing = lw.mir, lw.bytes, lw.listing
	writeJSON(w, http.StatusOK, resp)
}

func (sv *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	memoHits, memoMisses, memoStores := sv.cfg.Synth.Verdicts.Counters()
	var exemplars []obs.HistExemplar
	if m := sv.obsv.MetricsOrNil(); m != nil {
		exemplars = m.TraceExemplars()
	}
	writeJSON(w, http.StatusOK, MetricsSnapshot{
		UptimeSec:      time.Since(sv.start).Seconds(),
		Build:          sv.build,
		CacheHits:      sv.metrics.CacheHits.Load(),
		DiskHits:       sv.metrics.DiskHits.Load(),
		Joins:          sv.metrics.Joins.Load(),
		SynthRuns:      sv.metrics.SynthRuns.Load(),
		IncrRuns:       sv.metrics.IncrRuns.Load(),
		RulesReused:    sv.metrics.RulesReused.Load(),
		RulesResynth:   sv.metrics.RulesResynth.Load(),
		PartialResults: sv.metrics.PartialRes.Load(),
		Errors:         sv.metrics.Errors.Load(),
		Selections:     sv.metrics.Selections.Load(),
		PeerFills:      sv.metrics.PeerFills.Load(),
		ArtifactServed: sv.metrics.ArtifactServed.Load(),
		BatchPrograms:  sv.metrics.BatchPrograms.Load(),
		CachedEntries:  sv.store.MemLen(),
		Evictions:      sv.store.Evictions(),
		QueueDepth:     sv.sched.QueueDepth(),
		QueueCapacity:  sv.sched.QueueCapacity(),
		InFlight:       sv.sched.InFlight(),
		JobsCompleted:  sv.sched.Completed(),
		JobsRejected:   sv.sched.Rejected(),
		Stages:         sv.metrics.Stages(),

		SolverMemoHits:    memoHits,
		SolverMemoMisses:  memoMisses,
		SolverMemoStores:  memoStores,
		SolverMemoEntries: sv.cfg.Synth.Verdicts.Len(),
		SolverJournal:     sv.cfg.Synth.Verdicts.Journal(),
		MemoServed:        sv.metrics.MemoServed.Load(),
		TraceExemplars:    exemplars,
	})
}

func (sv *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// decode reads a request body of at most limit bytes into into, or
// answers 400.
func (sv *Server) decode(w http.ResponseWriter, r *http.Request, limit int64, into any) bool {
	if err := decodeJSON(http.MaxBytesReader(w, r.Body, limit), into); err != nil {
		sv.fail(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}

// decodeJSON decodes exactly one JSON value, strictly: unknown fields
// and anything but whitespace after the value are errors.
func decodeJSON(body io.Reader, into any) error {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the JSON value")
	}
	return nil
}

// statusClientClosed answers a request its own client cancelled (the
// status nginx logs for it). Nobody reads the answer, and it is no
// server error: fail does not count it.
const statusClientClosed = 499

func (sv *Server) fail(w http.ResponseWriter, status int, err error) {
	if status != statusClientClosed {
		sv.metrics.Errors.Add(1)
	}
	// Backpressure rejections are retryable by construction — the queue
	// drains at synthesis speed — so tell well-behaved clients when to
	// come back instead of letting them hammer the queue.
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
