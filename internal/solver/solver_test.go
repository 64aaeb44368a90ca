package solver

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"iselgen/internal/bv"
	"iselgen/internal/smt"
)

func entry(verdict smt.Result, fp string, budget int64) smt.MemoEntry {
	return smt.MemoEntry{Verdict: verdict, SpecFP: fp, Budget: budget}
}

func TestStoreLookupAndCounters(t *testing.T) {
	s := New(0)
	if _, ok := s.Lookup("a"); ok {
		t.Fatal("lookup on empty store hit")
	}
	s.Store("a", entry(smt.Equal, "fp", 10))
	e, ok := s.Lookup("a")
	if !ok || e.Verdict != smt.Equal || e.SpecFP != "fp" {
		t.Fatalf("lookup = %+v, %v", e, ok)
	}
	hits, misses, stores := s.Counters()
	if hits != 1 || misses != 1 || stores != 1 {
		t.Fatalf("counters = %d/%d/%d, want 1/1/1", hits, misses, stores)
	}
}

func TestStoreGenerationalPromotion(t *testing.T) {
	s := New(2)
	s.Store("a", entry(smt.Equal, "fp", 1))
	s.Store("b", entry(smt.Equal, "fp", 1))
	// Hot tier is full: the next distinct store rotates hot -> cold.
	s.Store("c", entry(smt.Equal, "fp", 1))
	if _, ok := s.Lookup("a"); !ok {
		t.Fatal("entry a lost after rotation (should be in cold tier)")
	}
	// The promoted entry must survive another rotation; the cold-only one
	// is dropped when its tier is discarded.
	s.Store("d", entry(smt.Equal, "fp", 1))
	s.Store("e", entry(smt.Equal, "fp", 1))
	if _, ok := s.Lookup("a"); !ok {
		t.Fatal("promoted entry a did not survive the next rotation")
	}
	if _, ok := s.Lookup("b"); ok {
		t.Fatal("unpromoted entry b survived two rotations")
	}
}

func TestStoreDedupe(t *testing.T) {
	s := New(0)
	s.Store("k", entry(smt.NotEqual, "fp", 100))
	s.Store("k", entry(smt.NotEqual, "fp", 100)) // identical: dropped
	s.Store("k", entry(smt.NotEqual, "fp", 50))  // smaller budget: dropped
	if _, _, stores := s.Counters(); stores != 1 {
		t.Fatalf("stores = %d, want 1 (duplicates must not re-store)", stores)
	}
	s.Store("k", entry(smt.NotEqual, "fp", 200))  // larger budget: improves
	s.Store("k", entry(smt.NotEqual, "fp2", 200)) // new fingerprint: improves
	if _, _, stores := s.Counters(); stores != 3 {
		t.Fatalf("stores = %d, want 3", stores)
	}
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	jp := filepath.Join(dir, "solver.journal")

	s := New(0)
	if err := s.AttachJournal(jp); err != nil {
		t.Fatal(err)
	}
	s.Store("a", entry(smt.Equal, "fp", 1))
	s.Store("b", entry(smt.NotEqual, "fp", 2))
	js := s.Journal()
	if js.Appended != 2 || js.Entries != 2 || js.Loaded != 0 {
		t.Fatalf("journal stats = %+v", js)
	}
	s.DetachJournal()

	// A fresh store (fresh process) replays the journal.
	s2 := New(0)
	if err := s2.AttachJournal(jp); err != nil {
		t.Fatal(err)
	}
	js = s2.Journal()
	if js.Loaded != 2 || js.Quarantined != 0 {
		t.Fatalf("replay stats = %+v", js)
	}
	if e, ok := s2.Lookup("b"); !ok || e.Verdict != smt.NotEqual || e.Budget != 2 {
		t.Fatalf("replayed entry = %+v, %v", e, ok)
	}
}

func TestJournalCorruptionQuarantined(t *testing.T) {
	dir := t.TempDir()
	jp := filepath.Join(dir, "solver.journal")

	good1 := `{"k":"a","e":{"verdict":1,"spec_fp":"fp","budget":1}}`
	good2 := `{"k":"b","e":{"verdict":2,"spec_fp":"fp","budget":2}}`
	corrupt := `{"k":"c","e":{"verdict":` // flipped bits mid-record
	tail := `{"k":"d","e":{"verdict":1`   // crash mid-append: no newline
	if err := os.WriteFile(jp,
		[]byte(good1+"\n"+corrupt+"\n"+good2+"\n"+tail), 0o644); err != nil {
		t.Fatal(err)
	}

	var warnings []string
	s := New(0)
	s.SetLogger(func(format string, args ...any) {
		warnings = append(warnings, fmt.Sprintf(format, args...))
	})
	if err := s.AttachJournal(jp); err != nil {
		t.Fatalf("corrupt journal failed the load: %v", err)
	}
	js := s.Journal()
	if js.Loaded != 2 || js.Quarantined != 2 {
		t.Fatalf("stats = %+v, want 2 loaded / 2 quarantined", js)
	}
	if _, ok := s.Lookup("a"); !ok {
		t.Fatal("entry before the corruption lost")
	}
	if _, ok := s.Lookup("b"); !ok {
		t.Fatal("entry after the corruption lost")
	}
	if len(warnings) == 0 || !strings.Contains(warnings[0], "quarantined") {
		t.Fatalf("no quarantine warning logged: %v", warnings)
	}
	q, err := os.ReadFile(jp + ".quarantine")
	if err != nil {
		t.Fatalf("quarantine file missing: %v", err)
	}
	if !strings.Contains(string(q), corrupt) || !strings.Contains(string(q), tail) {
		t.Fatalf("quarantine file missing the bad records:\n%s", q)
	}

	// The truncated tail must have been cut so the next append starts on
	// a clean line boundary, and a re-attach then loads everything.
	s.Store("e", entry(smt.Equal, "fp", 1))
	s.DetachJournal()
	s2 := New(0)
	if err := s2.AttachJournal(jp); err != nil {
		t.Fatal(err)
	}
	js = s2.Journal()
	if js.Loaded != 3 || js.Quarantined != 0 {
		t.Fatalf("re-attach stats = %+v, want 3 loaded / 0 quarantined", js)
	}
}

func TestResetKeepsJournalAttached(t *testing.T) {
	dir := t.TempDir()
	jp := filepath.Join(dir, "solver.journal")
	s := New(0)
	if err := s.AttachJournal(jp); err != nil {
		t.Fatal(err)
	}
	s.Store("a", entry(smt.Equal, "fp", 1))
	s.Reset()
	if s.Len() != 0 {
		t.Fatal("reset left entries in memory")
	}
	s.Store("b", entry(smt.Equal, "fp", 1))
	s.DetachJournal()
	data, err := os.ReadFile(jp)
	if err != nil {
		t.Fatal(err)
	}
	// Reset forgets verdicts but does not unwrite the journal.
	if !strings.Contains(string(data), `"k":"a"`) || !strings.Contains(string(data), `"k":"b"`) {
		t.Fatalf("journal after reset:\n%s", data)
	}
}

func TestByContext(t *testing.T) {
	s := New(0)
	e1 := smt.MemoEntry{Verdict: smt.Equal, Context: "synthesis:p1"}
	e2 := smt.MemoEntry{Verdict: smt.NotEqual, Context: "synthesis:p1"}
	e3 := smt.MemoEntry{Verdict: smt.Equal, Context: "synthesis:p2"}
	s.Store("a", e1)
	s.Store("b", e2)
	s.Store("c", e3)
	qs := s.ByContext("synthesis:p1")
	if len(qs) != 2 {
		t.Fatalf("ByContext returned %d entries, want 2", len(qs))
	}
	for _, q := range qs {
		if q.Entry.Context != "synthesis:p1" {
			t.Fatalf("wrong context: %+v", q)
		}
	}
	if got := s.ByContext("synthesis:nope"); len(got) != 0 {
		t.Fatalf("unknown context returned %d entries", len(got))
	}
}

func witness(x uint64) map[string]bv.BV {
	return map[string]bv.BV{"x": bv.New(32, x), "y": bv.New(32, x+1)}
}

func refuted(x uint64) smt.MemoEntry {
	return smt.MemoEntry{Verdict: smt.NotEqual, SpecFP: "fp", Budget: 1, Cex: witness(x)}
}

// TestWitnesses pins the screen's sample set: only NotEqual entries with
// a counterexample feed it, identical witnesses are kept once, the cap
// keeps the newest MaxWitnesses, journal replay restores the set, and
// Reset clears it.
func TestWitnesses(t *testing.T) {
	jp := filepath.Join(t.TempDir(), "solver.journal")
	s := New(0)
	if err := s.AttachJournal(jp); err != nil {
		t.Fatal(err)
	}
	s.Store("eq", smt.MemoEntry{Verdict: smt.Equal, SpecFP: "fp", Cex: witness(1)})
	s.Store("unk", smt.MemoEntry{Verdict: smt.Unknown, SpecFP: "fp", Cex: witness(1)})
	s.Store("bare", entry(smt.NotEqual, "fp", 1))
	if n := len(s.Witnesses()); n != 0 {
		t.Fatalf("%d witnesses from entries without a NotEqual counterexample, want 0", n)
	}
	s.Store("a", refuted(1))
	s.Store("b", refuted(1)) // same assignment under another key
	if n := len(s.Witnesses()); n != 1 {
		t.Fatalf("%d witnesses after storing one assignment twice, want 1", n)
	}
	for i := uint64(2); i <= MaxWitnesses+10; i++ {
		s.Store(fmt.Sprintf("k%d", i), refuted(i))
	}
	check := func(what string, w []map[string]bv.BV) {
		t.Helper()
		if len(w) != MaxWitnesses {
			t.Fatalf("%s: %d witnesses, want the cap %d", what, len(w), MaxWitnesses)
		}
		// Oldest first: the newest MaxWitnesses of 1..MaxWitnesses+10.
		if first, last := w[0]["x"].Lo, w[len(w)-1]["x"].Lo; first != 11 || last != MaxWitnesses+10 {
			t.Fatalf("%s: witnesses span x=%d..%d, want 11..%d", what, first, last, MaxWitnesses+10)
		}
	}
	check("after overflow", s.Witnesses())
	// An evicted assignment is new again.
	s.Store("again", refuted(1))
	if w := s.Witnesses(); w[len(w)-1]["x"].Lo != 1 {
		t.Fatal("an evicted witness was not re-admitted as the newest")
	}
	s.DetachJournal()

	s2 := New(0)
	if err := s2.AttachJournal(jp); err != nil {
		t.Fatal(err)
	}
	defer s2.DetachJournal()
	if w := s2.Witnesses(); len(w) != MaxWitnesses || w[len(w)-1]["x"].Lo != 1 {
		t.Fatalf("journal replay restored %d witnesses (newest x=%d), want %d ending in x=1",
			len(w), w[len(w)-1]["x"].Lo, MaxWitnesses)
	}
	s2.Reset()
	if n := len(s2.Witnesses()); n != 0 {
		t.Fatalf("Reset left %d witnesses", n)
	}
	s2.Store("a", refuted(1))
	if n := len(s2.Witnesses()); n != 1 {
		t.Fatalf("Reset left a stale dedupe entry: %d witnesses after one store, want 1", n)
	}
}

// TestWitnessesConcurrent hammers one store from every CPU with Store,
// Lookup, Witnesses and a periodic Reset — a race-detector target for
// the copy-on-write witness snapshot and its dedupe bookkeeping.
func TestWitnessesConcurrent(t *testing.T) {
	s := New(64)
	workers := runtime.NumCPU() + 2
	const iters = 600
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				x := uint64(g*iters + i)
				switch i % 4 {
				case 0:
					s.Store(fmt.Sprintf("k%d", x), refuted(x))
				case 1:
					s.Lookup(fmt.Sprintf("k%d", x-1))
				case 2:
					for _, w := range s.Witnesses() {
						_ = w["x"]
					}
				default:
					if g == 0 && i%100 == 3 {
						s.Reset()
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if n := len(s.Witnesses()); n > MaxWitnesses {
		t.Fatalf("witness set grew past its cap: %d", n)
	}
}
