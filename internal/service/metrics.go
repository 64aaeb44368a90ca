package service

import (
	"sync"
	"sync/atomic"

	"iselgen/internal/core"
	"iselgen/internal/obs"
	"iselgen/internal/solver"
)

// Metrics aggregates service-level counters plus the summed per-stage
// synthesis timings lifted from the Synthesizer worker timers. Counters
// are atomics; the StageStats sum is guarded by a mutex since it is a
// multi-field merge.
type Metrics struct {
	CacheHits  atomic.Uint64 // served from the in-memory layer
	DiskHits   atomic.Uint64 // served from the disk layer (re-verified)
	Joins      atomic.Uint64 // deduplicated onto an in-flight synthesis
	SynthRuns  atomic.Uint64 // full synthesis executions
	PartialRes atomic.Uint64 // deadline-curtailed (partial) results

	IncrRuns     atomic.Uint64 // incremental resyntheses from a lineage's artifact
	RulesReused  atomic.Uint64 // rules carried over re-verified (zero solver queries)
	RulesResynth atomic.Uint64 // rules synthesized by incremental runs
	Errors       atomic.Uint64 // requests answered with an error status
	Selections   atomic.Uint64 // programs lowered by /v1/select and /v1/select/batch

	PeerFills      atomic.Uint64 // cache misses filled from a peer replica's artifact
	ArtifactServed atomic.Uint64 // /v1/artifact fills served to peers
	BatchPrograms  atomic.Uint64 // programs received through /v1/select/batch
	JobsSubmitted  atomic.Uint64 // async jobs admitted through /v1/jobs

	MemoServed atomic.Uint64 // /v1/solver/query answers from the local verdict memo

	mu     sync.Mutex
	stages core.StageStats
}

// AddStages merges one synthesis run's stage timings into the running sum.
func (m *Metrics) AddStages(ss core.StageStats) {
	m.mu.Lock()
	m.stages.Accumulate(ss)
	m.mu.Unlock()
}

// Stages returns a copy of the summed per-stage timings.
func (m *Metrics) Stages() core.StageStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stages
}

// MetricsSnapshot is the JSON shape of GET /v1/metrics.
type MetricsSnapshot struct {
	UptimeSec      float64         `json:"uptime_sec"`
	Build          BuildInfo       `json:"build"`
	CacheHits      uint64          `json:"cache_hits"`
	DiskHits       uint64          `json:"disk_hits"`
	Joins          uint64          `json:"joins"`
	SynthRuns      uint64          `json:"synth_runs"`
	IncrRuns       uint64          `json:"incr_runs"`
	RulesReused    uint64          `json:"rules_reused"`
	RulesResynth   uint64          `json:"rules_resynthesized"`
	PartialResults uint64          `json:"partial_results"`
	Errors         uint64          `json:"errors"`
	Selections     uint64          `json:"selections"`
	PeerFills      uint64          `json:"peer_fills"`
	ArtifactServed uint64          `json:"artifacts_served"`
	BatchPrograms  uint64          `json:"batch_programs"`
	JobsSubmitted  uint64          `json:"jobs_submitted"`
	JobsActive     int             `json:"jobs_active"`
	CachedEntries  int             `json:"cached_entries"`
	Evictions      uint64          `json:"evictions"`
	ShardLineages  int             `json:"shard_lineages"` // lineages holding an artifact
	QueueDepth     int             `json:"queue_depth"`
	QueueCapacity  int             `json:"queue_capacity"`
	InFlight       int64           `json:"in_flight"`
	JobsCompleted  uint64          `json:"jobs_completed"`
	JobsRejected   uint64          `json:"jobs_rejected"`
	Stages         core.StageStats `json:"stages"`

	// Solver verdict-memo surface (the store this server owns):
	// lookup traffic, resident entries, journal accounting, and the
	// query-endpoint counters.
	SolverMemoHits    int64               `json:"solver_memo_hits"`
	SolverMemoMisses  int64               `json:"solver_memo_misses"`
	SolverMemoStores  int64               `json:"solver_memo_stores"`
	SolverMemoEntries int                 `json:"solver_memo_entries"`
	SolverJournal     solver.JournalStats `json:"solver_journal"`
	MemoServed        uint64              `json:"memo_probes_served"`

	// TraceExemplars mirrors the Prometheus exposition's exemplar
	// annotations into JSON: for each populated latency bucket, the most
	// recent sampled trace ID that landed there — each resolvable through
	// GET /v1/trace/{traceId}.
	TraceExemplars []obs.HistExemplar `json:"trace_exemplars,omitempty"`
}
