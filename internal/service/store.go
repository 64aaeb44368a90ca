// Package service turns the synthesis pipeline into a long-lived
// selection service: rule libraries become content-addressed artifacts
// (§VI-A makes them persistable; synthesis is the expensive step, so it
// should run once per (spec, config) fingerprint), synthesis jobs run on
// a bounded scheduler with per-request deadlines, and an HTTP/JSON API
// serves synthesize/select/metrics requests with backpressure and
// graceful degradation.
package service

import (
	"context"
	"log"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"iselgen/internal/core"
	"iselgen/internal/isa"
	"iselgen/internal/isel"
	"iselgen/internal/rules"
	"iselgen/internal/term"
)

// Entry is one cached synthesis artifact: the rule library together with
// the builder/target it was verified against (rules hold pointers into
// both, so they travel as a unit). Entries are immutable once published;
// the library is frozen so concurrent selectors can share it.
type Entry struct {
	Fingerprint string
	TargetName  string
	B           *term.Builder
	Target      *isa.Target
	Lib         *rules.Library
	// Partial marks a deadline-curtailed synthesis: only index-proven
	// rules are present. Partial entries are returned to their waiters
	// but never cached — a later request re-synthesizes in full.
	Partial bool
	Stats   core.StageStats
	Elapsed time.Duration
	// Origin records how the entry came to exist: "synthesized",
	// "incremental" (resynthesized from a lineage's artifact), "peer",
	// or "disk".
	Origin string
	// Reused and Resynth count, for incremental entries, how many rules
	// were carried over re-verified versus produced by synthesis.
	Reused  int
	Resynth int
}

// Materializer reconstructs the (builder, target) pair a persisted
// library must be re-verified against; the caller owns the mapping from
// fingerprint to spec source, so the store stays target-agnostic.
type Materializer func() (*term.Builder, *isa.Target, error)

// Flight is one in-progress synthesis that deduplicated requests wait
// on: N concurrent requests for the same fingerprint trigger exactly one
// synthesis.
type Flight struct {
	done  chan struct{}
	entry *Entry
	err   error
}

// Wait blocks until the flight resolves or the waiter's own context
// expires (a waiter with a short deadline gives up without cancelling
// the shared job).
func (f *Flight) Wait(ctx context.Context) (*Entry, error) {
	select {
	case <-f.done:
		return f.entry, f.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Store is the content-addressed rule-library cache: an in-memory layer,
// an optional disk layer persisted via the Emit/parse round-trip
// (re-verified on load, DESIGN invariant 8), and singleflight
// deduplication of concurrent misses.
type Store struct {
	dir    string // "" = memory only
	maxMem int    // LRU cap on in-memory entries; 0 = unbounded
	logf   func(format string, args ...any)

	mu        sync.Mutex
	mem       map[string]*Entry
	used      map[string]uint64 // fingerprint -> last-touch tick
	clock     uint64
	evictions uint64
	flights   map[string]*Flight

	// Disk persists ride an asynchronous writer so Complete never holds
	// waiters behind filesystem latency; Flush drains the queue (the
	// shutdown "flush the disk cache" step). A full queue degrades to a
	// synchronous write in the caller — writes are never dropped.
	persistCh chan persistReq
	pending   atomic.Int64
	writerWG  sync.WaitGroup
	closeOnce sync.Once
}

// persistReq is one queued disk write.
type persistReq struct {
	fp string
	e  *Entry
}

// NewStore creates a store; dir, when non-empty, is created and used as
// the disk layer. maxMem, when positive, caps the in-memory layer: the
// least-recently-used entry is evicted on insertion past the cap (the
// disk layer, when present, still holds the artifact, so an evicted
// fingerprint re-verifies from disk rather than re-synthesizing).
func NewStore(dir string, maxMem int) (*Store, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	s := &Store{dir: dir, maxMem: maxMem, logf: log.Printf,
		mem: map[string]*Entry{}, used: map[string]uint64{}, flights: map[string]*Flight{}}
	if dir != "" {
		s.persistCh = make(chan persistReq, 64)
		s.writerWG.Add(1)
		go func() {
			defer s.writerWG.Done()
			for req := range s.persistCh {
				s.persist(req.fp, req.e)
				s.pending.Add(-1)
			}
		}()
	}
	return s, nil
}

// SetLogger redirects the store's warnings — quarantined disk artifacts
// — away from the standard logger (nil silences them).
func (s *Store) SetLogger(logf func(format string, args ...any)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if logf == nil {
		logf = func(string, ...any) {}
	}
	s.logf = logf
}

// Entries snapshots the in-memory layer. Entries are immutable once
// published, so sharing the pointers is safe; the slice itself is fresh.
// Provenance queries use this to walk every resident library.
func (s *Store) Entries() []*Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Entry, 0, len(s.mem))
	for _, e := range s.mem {
		out = append(out, e)
	}
	return out
}

// Peek returns the in-memory entry for a fingerprint without joining or
// creating a flight — the cache-only probe peers use for hedged reads
// (a probe must never trigger work).
func (s *Store) Peek(fp string) *Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e := s.mem[fp]; e != nil {
		s.clock++
		s.used[fp] = s.clock
		return e
	}
	return nil
}

// Flush blocks until every queued disk persist has been written (or ctx
// expires). New writes enqueued while flushing extend the wait.
func (s *Store) Flush(ctx context.Context) error {
	for s.pending.Load() > 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
	return nil
}

// Close drains the persist queue and stops the writer. Safe to call
// more than once; the store must not be written to afterwards.
func (s *Store) Close() {
	s.closeOnce.Do(func() {
		if s.persistCh != nil {
			close(s.persistCh)
		}
	})
	s.writerWG.Wait()
}

// Acquire is the atomic admission step for a fingerprint: a memory hit
// returns the entry directly; otherwise the caller either joins an
// existing flight (owner=false) or is appointed owner of a new one
// (owner=true) and must eventually call Complete.
func (s *Store) Acquire(fp string) (e *Entry, fl *Flight, owner bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e := s.mem[fp]; e != nil {
		s.clock++
		s.used[fp] = s.clock
		return e, nil, false
	}
	if fl := s.flights[fp]; fl != nil {
		return nil, fl, false
	}
	fl = &Flight{done: make(chan struct{})}
	s.flights[fp] = fl
	return nil, fl, true
}

// Complete resolves the owner's flight, publishing the entry to every
// waiter. Complete (not the synthesis job) decides cacheability: full
// results enter the memory layer and, when a disk layer exists, are
// persisted; partial results and errors are broadcast but not cached.
func (s *Store) Complete(fp string, e *Entry, err error) {
	s.mu.Lock()
	fl := s.flights[fp]
	delete(s.flights, fp)
	if e != nil && err == nil && !e.Partial {
		s.mem[fp] = e
		s.clock++
		s.used[fp] = s.clock
		s.evictLocked()
	}
	s.mu.Unlock()
	persist := s.dir != "" && e != nil && err == nil && !e.Partial &&
		(e.Origin == "synthesized" || e.Origin == "incremental" || e.Origin == "peer")
	if persist {
		// Counted before the waiters wake, so a Flush that follows their
		// answer waits for this write.
		s.pending.Add(1)
	}
	if fl != nil {
		fl.entry, fl.err = e, err
		close(fl.done)
	}
	if persist {
		// Best-effort and asynchronous; the memory layer already has it.
		// A full queue falls back to writing inline rather than dropping.
		select {
		case s.persistCh <- persistReq{fp, e}:
		default:
			s.persist(fp, e)
			s.pending.Add(-1)
		}
	}
}

// evictLocked drops least-recently-used entries until the memory layer
// is back under its cap. Caller holds s.mu.
func (s *Store) evictLocked() {
	if s.maxMem <= 0 {
		return
	}
	for len(s.mem) > s.maxMem {
		victim, oldest := "", uint64(0)
		for fp, tick := range s.used {
			if victim == "" || tick < oldest {
				victim, oldest = fp, tick
			}
		}
		delete(s.mem, victim)
		delete(s.used, victim)
		s.evictions++
	}
}

// MemLen returns the number of in-memory entries.
func (s *Store) MemLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.mem)
}

// Evictions returns how many entries the LRU cap has evicted.
func (s *Store) Evictions() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.evictions
}

func (s *Store) path(fp string) string {
	return filepath.Join(s.dir, fp+".rules")
}

// persist writes the library through the textual Emit/parse round-trip
// format atomically (tmp + fsync + rename), so neither a crashed daemon
// nor a lost machine leaves a half-written artifact for the next one to
// trust.
func (s *Store) persist(fp string, e *Entry) error {
	if s.dir == "" {
		return nil
	}
	// SaveLibraryFor records the fingerprint of every instruction of the
	// target — not just the ones rules use — so a future daemon can run
	// the incremental planner against the persisted artifact too.
	text := isel.SaveLibraryFor(e.Lib, e.Target)
	tmp, err := os.CreateTemp(s.dir, "."+fp+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.WriteString(text); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), s.path(fp))
}

// LoadDisk attempts the disk layer for a fingerprint: the persisted text
// is parsed against a freshly materialized target and every rule is
// re-verified (corrupt or stale artifacts are treated as misses, never
// served). Called by the flight owner before falling back to synthesis.
func (s *Store) LoadDisk(fp string, mat Materializer) (*Entry, bool) {
	if s.dir == "" {
		return nil, false
	}
	text, err := os.ReadFile(s.path(fp))
	if err != nil {
		return nil, false
	}
	t0 := time.Now()
	b, tgt, err := mat()
	if err != nil {
		return nil, false
	}
	lib, err := isel.LoadLibrary(b, tgt, string(text))
	if err != nil {
		// A library that no longer verifies is poison for serving but
		// evidence for debugging: quarantine it aside (never fail the
		// load) so the slot re-synthesizes cleanly while the artifact
		// survives for post-mortems.
		q := s.path(fp) + ".quarantine"
		if rerr := os.Rename(s.path(fp), q); rerr != nil {
			os.Remove(s.path(fp)) // quarantine failed; fall back to dropping
			q = "(unlink)"
		}
		s.mu.Lock()
		logf := s.logf
		s.mu.Unlock()
		logf("service: disk artifact %s failed verification (%v); quarantined to %s", fp, err, q)
		return nil, false
	}
	lib.Freeze()
	return &Entry{
		Fingerprint: fp,
		TargetName:  tgt.Name,
		B:           b,
		Target:      tgt,
		Lib:         lib,
		Elapsed:     time.Since(t0),
		Origin:      "disk",
	}, true
}
