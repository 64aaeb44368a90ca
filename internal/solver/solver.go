// Package solver is the session-persistent SMT verdict service: a
// process-wide, content-addressed store of settled equivalence verdicts
// that survives across synthesis runs (in memory) and across processes
// (an append-only disk journal under the service cache directory).
//
// The checker (internal/smt) owns key derivation and the trust policy —
// this package is deliberately a dumb store: it never solves, never
// judges staleness, and a lookup can never trigger work. Entries are
// kept in two generational tiers (an approximate LRU with O(1)
// eviction: when the hot tier fills, it becomes the cold tier and the
// old cold tier is dropped; a cold hit promotes back to hot), plus the
// optional journal, which is load-once — attached at startup, replayed
// into the hot tier, then appended to on every store.
//
// The store also publishes the counterexample screen's sample set: the
// newest MaxWitnesses distinct separating assignments of NotEqual
// verdicts, fed by Store and by journal replay, so a restarted daemon's
// screen starts warm.
//
// The journal is JSON Lines, one {"k": key, "e": entry} record per
// line, written under the store mutex so records are never interleaved.
// Loading is crash-tolerant by construction: a truncated or corrupt
// line (a crash mid-append, a flipped bit) is quarantined to a side
// file with a logged warning and skipped — it can never fail the load
// or poison the entries around it.
package solver

import (
	"encoding/json"
	"log"
	"os"
	"strings"
	"sync"
	"sync/atomic"

	"iselgen/internal/bv"
	"iselgen/internal/smt"
)

// DefaultCap bounds each in-memory tier. Two tiers of 64k entries hold
// far more verdicts than a full synthesis of both bundled targets
// produces (a few hundred), while capping worst-case memory for
// long-lived daemons fed by many spec variants.
const DefaultCap = 1 << 16

// MaxWitnesses bounds the screen's sample set. Screening cost is linear
// in it; at 256 witnesses a screen is still microseconds.
const MaxWitnesses = 256

// Shared is the process-wide store every checker consults by default: a
// verdict or witness found while matching one pattern serves every other
// pattern, across goroutines and across synthesis runs in the same
// process. It starts journal-less (pure in-memory); daemons and
// benchmarks attach a journal explicitly.
var Shared = New(DefaultCap)

// record is one journal line.
type record struct {
	K string        `json:"k"`
	E smt.MemoEntry `json:"e"`
}

// Store implements smt.Memo with generational in-memory tiers and an
// optional append-only journal. Safe for concurrent use.
type Store struct {
	mu      sync.Mutex
	hot     map[string]smt.MemoEntry
	cold    map[string]smt.MemoEntry
	capEach int

	// witnesses is the copy-on-write screen sample set, oldest first;
	// witnessSeen holds the content fingerprints of its members (mu).
	witnesses   atomic.Pointer[[]map[string]bv.BV]
	witnessSeen map[uint64]struct{}

	journal     *os.File
	journalPath string
	logf        func(format string, args ...any)

	hits   atomic.Int64
	misses atomic.Int64
	stores atomic.Int64

	// Journal accounting (guarded by mu): lines replayed at attach,
	// lines appended since, corrupt lines quarantined at attach.
	loaded      int64
	appended    int64
	quarantined int64
}

// New returns an empty store whose tiers hold capEach entries each
// (values < 1 use DefaultCap).
func New(capEach int) *Store {
	if capEach < 1 {
		capEach = DefaultCap
	}
	s := &Store{
		hot:     make(map[string]smt.MemoEntry),
		cold:    make(map[string]smt.MemoEntry),
		capEach: capEach,
		logf:    log.Printf,
	}
	s.clearWitnessesLocked()
	return s
}

// SetLogger redirects quarantine warnings (nil silences them).
func (s *Store) SetLogger(logf func(format string, args ...any)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if logf == nil {
		logf = func(string, ...any) {}
	}
	s.logf = logf
}

// Lookup returns the stored entry for key, if any. Never triggers work
// beyond two map probes; disk is not consulted (the journal was
// replayed into memory at attach time).
func (s *Store) Lookup(key string) (smt.MemoEntry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.hot[key]; ok {
		s.hits.Add(1)
		return e, true
	}
	if e, ok := s.cold[key]; ok {
		// Promote: a reused verdict should survive the next rotation.
		s.storeLocked(key, e)
		s.hits.Add(1)
		return e, true
	}
	s.misses.Add(1)
	return smt.MemoEntry{}, false
}

// Store records a verdict under key, journaling it when a journal is
// attached. A store that cannot improve on the existing entry (same
// verdict and spec fingerprint, no larger budget) is dropped so
// repeated runs do not grow the journal unboundedly.
func (s *Store) Store(key string, e smt.MemoEntry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, ok := s.lookupLocked(key); ok &&
		prev.Verdict == e.Verdict && prev.SpecFP == e.SpecFP && prev.Budget >= e.Budget {
		return
	}
	s.storeLocked(key, e)
	s.addWitnessLocked(e)
	s.stores.Add(1)
	if s.journal != nil {
		line, err := json.Marshal(record{K: key, E: e})
		if err != nil {
			return
		}
		line = append(line, '\n')
		if _, err := s.journal.Write(line); err != nil {
			s.logf("solver: journal append failed, detaching: %v", err)
			s.journal.Close()
			s.journal = nil
			return
		}
		s.appended++
	}
}

// Witnesses returns the newest MaxWitnesses distinct counterexamples of
// stored NotEqual verdicts, oldest first. It takes no lock; the returned
// slice is an immutable snapshot.
func (s *Store) Witnesses() []map[string]bv.BV {
	return *s.witnesses.Load()
}

// addWitnessLocked publishes e's counterexample to the screen, unless e
// carries none or an identical one is already published; beyond
// MaxWitnesses the oldest is dropped.
func (s *Store) addWitnessLocked(e smt.MemoEntry) {
	if e.Verdict != smt.NotEqual || len(e.Cex) == 0 {
		return
	}
	fp := witnessFingerprint(e.Cex)
	if _, dup := s.witnessSeen[fp]; dup {
		return
	}
	s.witnessSeen[fp] = struct{}{}
	old := *s.witnesses.Load()
	if len(old) == MaxWitnesses {
		delete(s.witnessSeen, witnessFingerprint(old[0]))
		old = old[1:]
	}
	next := make([]map[string]bv.BV, len(old), len(old)+1)
	copy(next, old)
	next = append(next, e.Cex)
	s.witnesses.Store(&next)
}

func (s *Store) clearWitnessesLocked() {
	s.witnessSeen = make(map[uint64]struct{})
	s.witnesses.Store(&[]map[string]bv.BV{})
}

// witnessFingerprint hashes an assignment for dedupe, independent of map
// order.
func witnessFingerprint(vals map[string]bv.BV) uint64 {
	var sum uint64
	for name, v := range vals {
		h := uint64(1469598103934665603)
		for i := 0; i < len(name); i++ {
			h = (h ^ uint64(name[i])) * 1099511628211
		}
		h ^= v.Lo * 0x9e3779b97f4a7c15
		h ^= v.Hi * 0xc2b2ae3d27d4eb4f
		h ^= uint64(v.Width) << 48
		sum += h * 0xff51afd7ed558ccd // commutative: map iteration order free
	}
	return sum
}

func (s *Store) lookupLocked(key string) (smt.MemoEntry, bool) {
	if e, ok := s.hot[key]; ok {
		return e, true
	}
	e, ok := s.cold[key]
	return e, ok
}

func (s *Store) storeLocked(key string, e smt.MemoEntry) {
	if len(s.hot) >= s.capEach {
		if _, ok := s.hot[key]; !ok {
			s.cold = s.hot
			s.hot = make(map[string]smt.MemoEntry, s.capEach)
		}
	}
	s.hot[key] = e
}

// AttachJournal opens (creating if needed) the journal at path, replays
// its readable records into the hot tier, and keeps the file open for
// appends. Corrupt lines — and the unterminated tail a crash mid-append
// leaves — are quarantined to path plus ".quarantine" with a logged
// warning and never fail the load. A truncated tail is additionally cut
// from the journal itself so future appends start on a clean line
// boundary. Any previously attached journal is closed first.
func (s *Store) AttachJournal(path string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.journal != nil {
		s.journal.Close()
		s.journal = nil
	}
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	var quarantine *os.File
	quarantineLine := func(line []byte) {
		if quarantine == nil {
			quarantine, _ = os.OpenFile(path+".quarantine",
				os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
		}
		if quarantine != nil {
			quarantine.Write(append(append([]byte(nil), line...), '\n'))
		}
	}
	var loaded, bad int64
	var good []string // surviving lines, for compaction when any were bad
	if len(data) > 0 && data[len(data)-1] != '\n' {
		// Crash mid-append: the tail has no terminator. Quarantine it
		// and drop it, so the next append cannot concatenate onto it.
		nl := strings.LastIndexByte(string(data), '\n')
		quarantineLine(data[nl+1:])
		bad++
		data = data[:nl+1]
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var rec record
		if err := json.Unmarshal([]byte(line), &rec); err != nil || rec.K == "" {
			bad++
			quarantineLine([]byte(line))
			continue
		}
		good = append(good, line)
		s.storeLocked(rec.K, rec.E)
		s.addWitnessLocked(rec.E)
		loaded++
	}
	if quarantine != nil {
		quarantine.Close()
	}
	if bad > 0 {
		// Compact: rewrite the journal with only the readable lines, so
		// quarantine is one-shot — the bad records live in .quarantine,
		// not in every future load. Write, fsync, then rename keeps the
		// journal intact if we crash or lose power mid-compaction.
		s.logf("solver: journal %s: quarantined %d unreadable entries to %s.quarantine (loaded %d)",
			path, bad, path, loaded)
		compact := ""
		if len(good) > 0 {
			compact = strings.Join(good, "\n") + "\n"
		}
		tmp, err := os.OpenFile(path+".tmp", os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			return err
		}
		if _, err := tmp.WriteString(compact); err != nil {
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
		if err := os.Rename(path+".tmp", path); err != nil {
			return err
		}
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	s.journal = f
	s.journalPath = path
	s.loaded = loaded
	s.appended = 0
	s.quarantined = bad
	return nil
}

// DetachJournal closes the journal (if any); the in-memory tiers keep
// serving.
func (s *Store) DetachJournal() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.journal != nil {
		s.journal.Close()
		s.journal = nil
		s.journalPath = ""
	}
}

// Reset empties the in-memory tiers and the witness set and zeroes the
// hit/miss/store counters, used by benchmarks that need a provably cold
// run. An
// attached journal stays attached (and keeps its line accounting):
// resetting forgets verdicts, it does not unwrite them.
func (s *Store) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hot = make(map[string]smt.MemoEntry)
	s.cold = make(map[string]smt.MemoEntry)
	s.clearWitnessesLocked()
	s.hits.Store(0)
	s.misses.Store(0)
	s.stores.Store(0)
}

// Len reports how many distinct entries the tiers currently hold.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.hot)
	for k := range s.cold {
		if _, ok := s.hot[k]; !ok {
			n++
		}
	}
	return n
}

// Counters reports lifetime lookups that hit, lookups that missed, and
// stores accepted (since the last Reset).
func (s *Store) Counters() (hits, misses, stores int64) {
	return s.hits.Load(), s.misses.Load(), s.stores.Load()
}

// JournalStats describes the attached journal (zero value when none).
type JournalStats struct {
	Path        string `json:"path,omitempty"`
	Loaded      int64  `json:"loaded"`
	Appended    int64  `json:"appended"`
	Quarantined int64  `json:"quarantined"`
	// Entries is the total readable records now on disk: replayed plus
	// appended since attach.
	Entries int64 `json:"entries"`
}

// Journal reports the journal accounting.
func (s *Store) Journal() JournalStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return JournalStats{
		Path:        s.journalPath,
		Loaded:      s.loaded,
		Appended:    s.appended,
		Quarantined: s.quarantined,
		Entries:     s.loaded + s.appended,
	}
}

// Query is one stored verdict with its key, as returned by provenance
// queries.
type Query struct {
	Key   string        `json:"key"`
	Entry smt.MemoEntry `json:"entry"`
}

// ByContext returns every stored entry whose Context matches ctx
// exactly — the join key between memoized queries and rule provenance
// (workers label queries "synthesis:<pattern key>"). Order is
// unspecified; callers sort.
func (s *Store) ByContext(ctx string) []Query {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Query
	seen := map[string]bool{}
	for _, tier := range []map[string]smt.MemoEntry{s.hot, s.cold} {
		for k, e := range tier {
			if seen[k] || e.Context != ctx {
				continue
			}
			seen[k] = true
			out = append(out, Query{Key: k, Entry: e})
		}
	}
	return out
}
