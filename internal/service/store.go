// Package service turns the synthesis pipeline into a long-lived
// selection service: rule libraries become content-addressed artifacts
// (§VI-A makes them persistable; synthesis is the expensive step, so it
// should run once per (spec, config) fingerprint), synthesis jobs run on
// a bounded scheduler with per-request deadlines, and an HTTP/JSON API
// serves synthesize/select/metrics requests with backpressure and
// graceful degradation.
package service

import (
	"bytes"
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
	Target      *isa.Target
	Lib         *rules.Library
	// Partial marks a deadline-curtailed synthesis: only index-proven
	// rules are present. Partial entries are returned to their waiters
	// but never cached — a later request re-synthesizes in full.
	Partial bool
	Stats   core.StageStats
	Elapsed time.Duration
	// Origin records how the entry came to exist: "synthesized",
	// "incremental" (resynthesized from the entry of its lineage that was
	// resident when it ran), "peer", or "disk".
	Origin string
	// Lineage is the cache key minus the spec text: (target name,
	// config). It names the entry's slot in the store: memory and disk
	// hold one revision per lineage, so a spec edit's entry replaces its
	// previous revision's.
	Lineage string
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
// deduplication of concurrent misses. Both layers have one slot per
// lineage, holding the revision that lineage last cached; a slot
// answers only for the fingerprint it holds.
type Store struct {
	dir    string // "" = memory only
	maxMem int    // LRU cap on in-memory entries; 0 = unbounded
	logf   func(format string, args ...any)

	mu        sync.Mutex
	mem       map[string]*Entry // lineage -> its resident revision
	used      map[string]uint64 // lineage -> last-touch tick
	clock     uint64
	evictions uint64
	flights   map[string]*Flight // fingerprint -> its synthesis

	// Disk persists ride an asynchronous writer so Complete never holds
	// waiters behind filesystem latency; Flush drains the queue (the
	// shutdown "flush the disk cache" step). A full queue degrades to a
	// synchronous write in the caller — writes are never dropped. diskMu
	// serializes the writer and those inline writes.
	persistCh chan *Entry
	pending   atomic.Int64
	writerWG  sync.WaitGroup
	closeOnce sync.Once
	diskMu    sync.Mutex
}

// NewStore creates a store; dir, when non-empty, is created and used as
// the disk layer. maxMem, when positive, caps the in-memory layer: the
// least-recently-used entry is evicted on insertion past the cap (the
// disk layer, when present, still holds the artifact, so an evicted
// lineage's revision re-verifies from disk rather than re-synthesizing).
func NewStore(dir string, maxMem int) (*Store, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	s := &Store{dir: dir, maxMem: maxMem, logf: log.Printf,
		mem: map[string]*Entry{}, used: map[string]uint64{}, flights: map[string]*Flight{}}
	if dir != "" {
		s.persistCh = make(chan *Entry, 64)
		s.writerWG.Add(1)
		go func() {
			defer s.writerWG.Done()
			for e := range s.persistCh {
				s.persist(e)
				s.pending.Add(-1)
			}
		}()
	}
	return s, nil
}

// SetLogger redirects the store's warnings — quarantined disk artifacts
// and failed disk writes — away from the standard logger (nil silences
// them).
func (s *Store) SetLogger(logf func(format string, args ...any)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if logf == nil {
		logf = func(string, ...any) {}
	}
	s.logf = logf
}

// warnf logs a warning through the store's logger.
func (s *Store) warnf(format string, args ...any) {
	s.mu.Lock()
	logf := s.logf
	s.mu.Unlock()
	logf(format, args...)
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
// creating a flight: the lookup behind POST /v1/artifact's cache_only
// form, which must never trigger work.
func (s *Store) Peek(fp string) *Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	for lineage, e := range s.mem {
		if e.Fingerprint == fp {
			s.clock++
			s.used[lineage] = s.clock
			return e
		}
	}
	return nil
}

// Lineage returns the resident entry of a lineage, or nil: the base a
// spec edit of that lineage resynthesizes from. Like Peek it never
// creates work, and it does not count as a use.
func (s *Store) Lineage(lineage string) *Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mem[lineage]
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

// Acquire is the atomic admission step for a fingerprint of a lineage:
// a memory hit (the lineage's slot holds fp) returns the entry directly;
// otherwise the caller either joins an existing flight (owner=false) or
// is appointed owner of a new one (owner=true) and must eventually call
// Complete.
func (s *Store) Acquire(lineage, fp string) (e *Entry, fl *Flight, owner bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e := s.mem[lineage]; e != nil && e.Fingerprint == fp {
		s.clock++
		s.used[lineage] = s.clock
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
// results take their lineage's slot, replacing its previous revision,
// and, when a disk layer exists and they did not come from it, are
// persisted; partial results and errors are broadcast but not cached.
// The entry is resident before the waiters wake.
func (s *Store) Complete(fp string, e *Entry, err error) {
	s.mu.Lock()
	fl := s.flights[fp]
	delete(s.flights, fp)
	persist := false
	if e != nil && err == nil && !e.Partial {
		// A replaced revision is not an eviction: the lineage still has
		// its one resident entry.
		s.mem[e.Lineage] = e
		s.clock++
		s.used[e.Lineage] = s.clock
		s.evictLocked()
		persist = s.dir != "" && e.Origin != "disk"
	}
	s.mu.Unlock()
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
		case s.persistCh <- e:
		default:
			s.persist(e)
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
		for lineage, tick := range s.used {
			if victim == "" || tick < oldest {
				victim, oldest = lineage, tick
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

// path is the disk slot of a lineage.
func (s *Store) path(lineage string) string {
	return filepath.Join(s.dir, lineage+".rules")
}

// fpHeader starts a disk slot's first line, which names the revision
// the slot holds. Both artifact readers take it for a comment, so the
// file stays a valid `iselgen -incremental -from` artifact.
const fpHeader = "#%fingerprint "

// persist writes an entry to its lineage's slot. An inline write can
// overtake a queued one, so the queue may hold a revision that a newer
// one has already replaced in memory: it is skipped.
func (s *Store) persist(e *Entry) {
	s.diskMu.Lock()
	defer s.diskMu.Unlock()
	if cur := s.Lineage(e.Lineage); cur != nil && cur != e {
		return
	}
	if err := s.write(e); err != nil {
		s.warnf("service: persisting artifact %s: %v", e.Fingerprint, err)
	}
}

// write persists the library through the textual Emit/parse round-trip
// format atomically (tmp + fsync + rename), so neither a crashed daemon
// nor a lost machine leaves a half-written artifact for the next one to
// trust, and the rename replaces the lineage's previous revision.
func (s *Store) write(e *Entry) error {
	// SaveLibraryFor records the fingerprint of every instruction of the
	// target — not just the ones rules use — so a future daemon can run
	// the incremental planner against the persisted artifact too.
	text := fpHeader + e.Fingerprint + "\n" + isel.SaveLibraryFor(e.Lib, e.Target)
	tmp, err := os.CreateTemp(s.dir, "."+e.Lineage+".tmp*")
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
	return os.Rename(tmp.Name(), s.path(e.Lineage))
}

// LoadDisk attempts the disk layer for a fingerprint of a lineage: a
// slot holding another revision is a plain miss; otherwise the
// persisted text is parsed against a freshly materialized target and
// every rule is re-verified (corrupt or stale artifacts are treated as
// misses, never served). Called by the flight owner before falling back
// to synthesis.
func (s *Store) LoadDisk(fp, lineage string, mat Materializer) (*Entry, bool) {
	if s.dir == "" {
		return nil, false
	}
	path := s.path(lineage)
	text, err := os.ReadFile(path)
	if err != nil || !bytes.HasPrefix(text, []byte(fpHeader+fp+"\n")) {
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
		q := path + ".quarantine"
		if rerr := os.Rename(path, q); rerr != nil {
			os.Remove(path) // quarantine failed; fall back to dropping
			q = "(unlink)"
		}
		s.warnf("service: disk artifact %s failed verification (%v); quarantined to %s", fp, err, q)
		return nil, false
	}
	lib.Freeze()
	return &Entry{
		Fingerprint: fp,
		TargetName:  tgt.Name,
		Target:      tgt,
		Lib:         lib,
		Elapsed:     time.Since(t0),
		Origin:      "disk",
	}, true
}
