package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"iselgen/internal/harness"
	"iselgen/internal/incr"
	"iselgen/internal/isel"
	"iselgen/internal/pattern"
	"iselgen/internal/term"
)

// svcSpecEdited is svcSpec with one semantic edit: ORNrr or-inverts no
// longer — it became a plain OR. Every rule whose support includes ORNrr
// goes stale; everything else reuses.
var svcSpecEdited = strings.Replace(svcSpec,
	"inst ORNrr(rn: reg64, rm: reg64) { rd = rn | ~rm; }",
	"inst ORNrr(rn: reg64, rm: reg64) { rd = rn | rm; }", 1)

// TestIncrementalSpecEdit is the service-level acceptance for lineages:
// after one full synthesis, a whitespace-only edit resynthesizes from
// the lineage's cached entry with every rule reused and zero solver
// queries, and a semantic edit still answers incrementally, re-running
// synthesis only for the touched instruction. Each revision replaces
// the one before it, so one entry stays cached.
func TestIncrementalSpecEdit(t *testing.T) {
	_, ts := newTestServer(t, testConfig())

	// 1. Cold lineage: full synthesis.
	status, body := postJSON(t, ts.URL+"/v1/synthesize", SynthesizeRequest{Target: "mini", Spec: svcSpec})
	if status != http.StatusOK {
		t.Fatalf("seed synthesis: status %d: %s", status, body)
	}
	first := decodeSynth(t, body)
	if first.Cache != "miss" {
		t.Fatalf("seed cache = %q, want miss", first.Cache)
	}

	// 2. Whitespace-only edit: new spec text, so the full cache misses —
	// but the instruction fingerprints are unchanged, so the lineage
	// answers with every rule reused and the solver never consulted.
	status, body = postJSON(t, ts.URL+"/v1/synthesize", SynthesizeRequest{Target: "mini", Spec: svcSpec + "\n"})
	if status != http.StatusOK {
		t.Fatalf("whitespace edit: status %d: %s", status, body)
	}
	ws := decodeSynth(t, body)
	if ws.Cache != "incr" {
		t.Fatalf("whitespace edit cache = %q, want incr", ws.Cache)
	}
	if ws.Fingerprint == first.Fingerprint {
		t.Error("edited spec reused the seed fingerprint")
	}
	if ws.Rules != first.Rules || ws.Reused != first.Rules || ws.Resynthesized != 0 {
		t.Errorf("whitespace edit: rules=%d reused=%d resynth=%d, want %d/%d/0",
			ws.Rules, ws.Reused, ws.Resynthesized, first.Rules, first.Rules)
	}
	if ws.Stats.SMTQueries != 0 {
		t.Errorf("whitespace edit consulted the solver %d times, want 0", ws.Stats.SMTQueries)
	}

	// 3. Semantic edit to one instruction: still served incrementally,
	// with most rules reused.
	status, body = postJSON(t, ts.URL+"/v1/synthesize", SynthesizeRequest{Target: "mini", Spec: svcSpecEdited})
	if status != http.StatusOK {
		t.Fatalf("semantic edit: status %d: %s", status, body)
	}
	sem := decodeSynth(t, body)
	if sem.Cache != "incr" {
		t.Fatalf("semantic edit cache = %q, want incr", sem.Cache)
	}
	if sem.Rules == 0 || sem.Reused == 0 {
		t.Errorf("semantic edit: rules=%d reused=%d, want both > 0", sem.Rules, sem.Reused)
	}

	m := getMetrics(t, ts.URL)
	if m.SynthRuns != 1 {
		t.Errorf("synth_runs = %d, want 1 (edits must not trigger full synthesis)", m.SynthRuns)
	}
	if m.IncrRuns != 2 {
		t.Errorf("incr_runs = %d, want 2", m.IncrRuns)
	}
	if m.RulesReused == 0 {
		t.Error("rules_reused = 0 after two incremental runs")
	}
	if m.CachedEntries != 1 {
		t.Errorf("cached_entries = %d after three revisions of one lineage, want 1", m.CachedEntries)
	}
}

// TestSupersededRevision: an edit replaces its base in the memory
// layer, and on disk, so asking for the seed revision again is neither a
// hit nor a disk load: it is resynthesized from the edit, byte for byte
// the artifact it first answered with. With a disk layer the seed is
// then the revision in the lineage's one file.
func TestSupersededRevision(t *testing.T) {
	for _, tc := range []struct {
		name string
		disk bool
	}{
		{"disk", true},
		{"memory", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			if tc.disk {
				cfg.CacheDir = t.TempDir()
			}
			sv, ts := newTestServer(t, cfg)
			status, body := postJSON(t, ts.URL+"/v1/synthesize", SynthesizeRequest{Target: "mini", Spec: svcSpec})
			if status != http.StatusOK {
				t.Fatalf("seed synthesis: status %d: %s", status, body)
			}
			seed := decodeSynth(t, body)
			seedArt := fetchArtifact(t, ts.URL, seed.Fingerprint)
			status, body = postJSON(t, ts.URL+"/v1/synthesize", SynthesizeRequest{Target: "mini", Spec: svcSpecEdited})
			if status != http.StatusOK {
				t.Fatalf("edit: status %d: %s", status, body)
			}
			if got := decodeSynth(t, body).Cache; got != "incr" {
				t.Fatalf("edit cache = %q, want incr", got)
			}
			if err := sv.store.Flush(context.Background()); err != nil {
				t.Fatal(err)
			}

			status, body = postJSON(t, ts.URL+"/v1/synthesize", SynthesizeRequest{Target: "mini", Spec: svcSpec})
			if status != http.StatusOK {
				t.Fatalf("seed again: status %d: %s", status, body)
			}
			again := decodeSynth(t, body)
			if again.Cache != "incr" {
				t.Fatalf("seed again cache = %q, want incr", again.Cache)
			}
			if art := fetchArtifact(t, ts.URL, again.Fingerprint); art != seedArt {
				t.Errorf("seed resynthesized from its edit differs from its first answer:\n--- first\n%s--- again\n%s", seedArt, art)
			}
			if n := getMetrics(t, ts.URL).CachedEntries; n != 1 {
				t.Errorf("cached_entries = %d, want 1", n)
			}
			if tc.disk {
				if err := sv.store.Flush(context.Background()); err != nil {
					t.Fatal(err)
				}
				lineage := sv.store.Peek(again.Fingerprint).Lineage
				if got := diskRevisions(t, cfg.CacheDir); len(got) != 1 || got[lineage] != seed.Fingerprint {
					t.Errorf("disk holds %v, want only lineage %s at the seed's %s", got, lineage, seed.Fingerprint)
				}
			}
		})
	}
}

// TestDiskLineage: the disk layer keeps one artifact per lineage. After
// a seed and five edits, semantic and whitespace-only, the lineage's one
// file holds the last revision, a write of a revision that was replaced
// before the writer reached it is skipped, and a restarted server loads
// the last revision from disk. Each edit replaces the file in one
// rename, so a crash leaves one revision or the other, never two files.
func TestDiskLineage(t *testing.T) {
	cfg := testConfig()
	cfg.CacheDir = t.TempDir()
	sv, ts := newTestServer(t, cfg)
	var seed *Entry
	var last SynthesizeResponse
	var spec string
	for i := 0; i <= 5; i++ {
		spec = svcSpec
		if i%2 == 1 {
			spec = svcSpecEdited
		}
		spec += strings.Repeat("\n", i)
		status, body := postJSON(t, ts.URL+"/v1/synthesize", SynthesizeRequest{Target: "mini", Spec: spec})
		if status != http.StatusOK {
			t.Fatalf("revision %d: status %d: %s", i, status, body)
		}
		last = decodeSynth(t, body)
		if want := map[bool]string{true: "miss", false: "incr"}[i == 0]; last.Cache != want {
			t.Fatalf("revision %d cache = %q, want %s", i, last.Cache, want)
		}
		if i == 0 {
			seed = sv.store.Peek(last.Fingerprint)
		}
	}
	if err := sv.store.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The seed's write arriving last, as when an inline write overtook
	// the queue, must not replace the last revision's file.
	sv.store.persist(seed)
	if got := diskRevisions(t, cfg.CacheDir); len(got) != 1 || got[seed.Lineage] != last.Fingerprint {
		t.Fatalf("disk holds %v after a seed and five edits, want only lineage %s at %s", got, seed.Lineage, last.Fingerprint)
	}

	_, ts2 := newTestServer(t, cfg)
	status, body := postJSON(t, ts2.URL+"/v1/synthesize", SynthesizeRequest{Target: "mini", Spec: spec})
	if status != http.StatusOK {
		t.Fatalf("restart: status %d: %s", status, body)
	}
	if got := decodeSynth(t, body); got.Cache != "disk" || got.Fingerprint != last.Fingerprint {
		t.Fatalf("restart answered cache=%q fp=%s, want disk for %s", got.Cache, got.Fingerprint, last.Fingerprint)
	}
}

// TestEvictedLineageDisk: a lineage that the cache cap evicted before
// its next edit still has one file. The edit has no resident base, so it
// is synthesized from scratch, and its write replaces the evicted
// revision's file, since both share the lineage's slot.
func TestEvictedLineageDisk(t *testing.T) {
	cfg := testConfig()
	cfg.CacheEntries = 1
	cfg.CacheDir = t.TempDir()
	sv, ts := newTestServer(t, cfg)
	want := map[string]string{}
	for _, req := range []SynthesizeRequest{
		{Target: "mini", Spec: svcSpec},
		{Target: "other", Spec: svcSpec},      // evicts mini
		{Target: "mini", Spec: svcSpecEdited}, // no resident base
	} {
		status, body := postJSON(t, ts.URL+"/v1/synthesize", req)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", req.Target, status, body)
		}
		got := decodeSynth(t, body)
		if got.Cache != "miss" {
			t.Fatalf("%s cache = %q, want miss", req.Target, got.Cache)
		}
		def, err := sv.resolveTarget(req.Target, req.Spec)
		if err != nil {
			t.Fatal(err)
		}
		want[def.lineage] = got.Fingerprint
	}
	if err := sv.store.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := diskRevisions(t, cfg.CacheDir); !maps.Equal(got, want) {
		t.Fatalf("disk holds %v, want one file per lineage: %v", got, want)
	}
}

// diskRevisions maps each lineage file of a disk layer to the
// fingerprint its first line names.
func diskRevisions(t *testing.T, dir string) map[string]string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.rules"))
	if err != nil {
		t.Fatal(err)
	}
	revs := map[string]string{}
	for _, f := range files {
		text, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		first, _, _ := strings.Cut(string(text), "\n")
		revs[strings.TrimSuffix(filepath.Base(f), ".rules")] = strings.TrimPrefix(first, fpHeader)
	}
	return revs
}

// TestDiskSlotIsArtifact: a disk slot is a valid artifact for both
// readers, so `iselgen -incremental -from <cache-dir>/<lineage>.rules`
// can start from it. The fingerprint line is a comment to each:
// incr.ParseArtifact reads every instruction header and every rule, and
// isel.LoadLibrary verifies the whole library.
func TestDiskSlotIsArtifact(t *testing.T) {
	cfg := testConfig()
	cfg.CacheDir = t.TempDir()
	sv, ts := newTestServer(t, cfg)
	status, body := postJSON(t, ts.URL+"/v1/synthesize", SynthesizeRequest{Target: "mini", Spec: svcSpec})
	if status != http.StatusOK {
		t.Fatalf("synthesis: status %d: %s", status, body)
	}
	e := sv.store.Peek(decodeSynth(t, body).Fingerprint)
	if err := sv.store.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	text, err := os.ReadFile(filepath.Join(cfg.CacheDir, e.Lineage+".rules"))
	if err != nil {
		t.Fatal(err)
	}
	art, err := incr.ParseArtifact(string(text))
	if err != nil {
		t.Fatal(err)
	}
	if len(art.InstFPs) != len(e.Target.Insts) || len(art.Rules) != e.Lib.Len() {
		t.Errorf("artifact reader saw %d headers and %d rules, want %d and %d",
			len(art.InstFPs), len(art.Rules), len(e.Target.Insts), e.Lib.Len())
	}
	def, err := sv.resolveTarget("mini", svcSpec)
	if err != nil {
		t.Fatal(err)
	}
	b := term.NewBuilder()
	tgt, err := def.load(b)
	if err != nil {
		t.Fatal(err)
	}
	lib, err := isel.LoadLibrary(b, tgt, string(text))
	if err != nil {
		t.Fatalf("library loader rejected the slot: %v", err)
	}
	if lib.Len() != e.Lib.Len() {
		t.Errorf("library loader verified %d rules, want %d", lib.Len(), e.Lib.Len())
	}
}

// TestCorpusShared: a server builds the corpus once per
// isel.PrepareVariant, so concurrent syntheses of different inline
// target names share one pattern slice, and they and an edit leave it
// exactly as it was: the same patterns in the same order, every tree
// intact.
func TestCorpusShared(t *testing.T) {
	sv, ts := newTestServer(t, testConfig())
	pats := sv.corpus("mini")
	keys := make([]string, len(pats))
	for i, p := range pats {
		keys[i] = pattern.New(p.Root).Key()
	}
	var wg sync.WaitGroup
	for _, req := range []SynthesizeRequest{
		{Target: "mini", Spec: svcSpec},
		{Target: "other", Spec: svcSpec},
		{Target: "third", Spec: svcSpecEdited},
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if status, body := postJSON(t, ts.URL+"/v1/synthesize", req); status != http.StatusOK {
				t.Errorf("%s: status %d: %s", req.Target, status, body)
			}
		}()
	}
	wg.Wait()
	status, body := postJSON(t, ts.URL+"/v1/synthesize", SynthesizeRequest{Target: "mini", Spec: svcSpecEdited})
	if status != http.StatusOK || decodeSynth(t, body).Cache != "incr" {
		t.Fatalf("edit: status %d: %s", status, body)
	}
	if got := sv.corpus("other"); len(got) != len(pats) || &got[0] != &pats[0] {
		t.Fatal("a second inline target name got a corpus of its own")
	}
	if n := len(sv.corpora); n != 1 {
		t.Fatalf("server memoized %d corpora for one prepare variant", n)
	}
	for i, p := range sv.corpus("mini") {
		if p != pats[i] || pattern.New(p.Root).Key() != keys[i] {
			t.Fatalf("corpus pattern %d changed during synthesis: %s, was %s", i, pattern.New(p.Root).Key(), keys[i])
		}
	}
}

// TestIncrementalMatchesArtifactReader pins that a lineage answers an
// edit from nothing but the seed's persisted artifact: for a whitespace
// no-op and for a semantic edit, the daemon's cache=incr library equals,
// byte for byte, incr.Resynthesize run directly over
// incr.ParseArtifact of the seed's /v1/artifact text, under the same
// config and corpus.
func TestIncrementalMatchesArtifactReader(t *testing.T) {
	for _, tc := range []struct{ name, spec string }{
		{"whitespace", svcSpec + "\n"},
		{"semantic", svcSpecEdited},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sv, ts := newTestServer(t, testConfig())
			status, body := postJSON(t, ts.URL+"/v1/synthesize", SynthesizeRequest{Target: "mini", Spec: svcSpec})
			if status != http.StatusOK {
				t.Fatalf("seed synthesis: status %d: %s", status, body)
			}
			seed := fetchArtifact(t, ts.URL, decodeSynth(t, body).Fingerprint)

			status, body = postJSON(t, ts.URL+"/v1/synthesize", SynthesizeRequest{Target: "mini", Spec: tc.spec})
			if status != http.StatusOK {
				t.Fatalf("edit: status %d: %s", status, body)
			}
			edit := decodeSynth(t, body)
			if edit.Cache != "incr" {
				t.Fatalf("edit cache = %q, want incr", edit.Cache)
			}
			served := fetchArtifact(t, ts.URL, edit.Fingerprint)

			def, err := sv.resolveTarget("mini", tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			art, err := incr.ParseArtifact(seed)
			if err != nil {
				t.Fatal(err)
			}
			b := term.NewBuilder()
			tgt, err := def.load(b)
			if err != nil {
				t.Fatal(err)
			}
			lib, _ := incr.Resynthesize(context.Background(), b, tgt, art, incr.Options{
				Config: def.cfg, Patterns: harness.CorpusPatterns(def.name, sv.cfg.MaxPatterns),
			})
			if want := isel.SaveLibraryFor(lib, tgt); served != want {
				t.Errorf("served library differs from the artifact reader's:\n--- served\n%s--- reader\n%s", served, want)
			}
		})
	}
}

// fetchArtifact reads a cached library's persisted text through
// POST /v1/artifact.
func fetchArtifact(t *testing.T, base, fp string) string {
	t.Helper()
	status, body := postJSON(t, base+"/v1/artifact", FillRequest{Fingerprint: fp, CacheOnly: true})
	if status != http.StatusOK {
		t.Fatalf("artifact %s: status %d: %s", fp, status, body)
	}
	var ar ArtifactResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	return ar.Library
}

// TestStoreLRU exercises the memory-layer cap directly: the
// least-recently-used entry is evicted, and a recent touch protects an
// old entry.
func TestStoreLRU(t *testing.T) {
	s, err := NewStore("", 2)
	if err != nil {
		t.Fatal(err)
	}
	add := func(fp string) {
		if _, _, owner := s.Acquire(fp, fp); !owner {
			t.Fatalf("expected to own flight for %s", fp)
		}
		s.Complete(fp, &Entry{Fingerprint: fp, Lineage: fp}, nil)
	}
	add("a")
	add("b")
	if e, _, _ := s.Acquire("a", "a"); e == nil { // touch "a": now "b" is LRU
		t.Fatal("entry a missing before eviction")
	}
	add("c")
	if n := s.MemLen(); n != 2 {
		t.Errorf("mem len = %d, want 2", n)
	}
	if s.Evictions() != 1 {
		t.Errorf("evictions = %d, want 1", s.Evictions())
	}
	if e, _, _ := s.Acquire("b", "b"); e != nil {
		t.Error("LRU entry b survived eviction")
	}
	s.Complete("b", nil, fmt.Errorf("test: abandon flight"))
	if e, _, _ := s.Acquire("a", "a"); e == nil {
		t.Error("recently used entry a was evicted")
	}
	if e, _, _ := s.Acquire("c", "c"); e == nil {
		t.Error("newest entry c was evicted")
	}
}

// TestStoreLineage: two entries of one lineage leave one resident
// entry, the newer, the replacement is not an eviction, and the
// replaced revision no longer hits.
func TestStoreLineage(t *testing.T) {
	s, err := NewStore("", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, fp := range []string{"rev1", "rev2"} {
		if _, _, owner := s.Acquire("mini", fp); !owner {
			t.Fatalf("expected to own flight for %s", fp)
		}
		s.Complete(fp, &Entry{Fingerprint: fp, Lineage: "mini"}, nil)
	}
	if e, _, _ := s.Acquire("mini", "rev1"); e != nil {
		t.Errorf("replaced revision rev1 still hits: %+v", e)
	}
	if n := s.MemLen(); n != 1 {
		t.Errorf("mem len = %d, want 1", n)
	}
	if n := s.Evictions(); n != 0 {
		t.Errorf("evictions = %d, want 0", n)
	}
	if e := s.Lineage("mini"); e == nil || e.Fingerprint != "rev2" {
		t.Errorf("lineage entry = %+v, want rev2", e)
	}
}

// TestServerCacheCap proves the cap is wired through Config: with room
// for one entry, synthesizing two targets leaves one cached and counts
// the eviction in /v1/metrics.
func TestServerCacheCap(t *testing.T) {
	cfg := testConfig()
	cfg.CacheEntries = 1
	_, ts := newTestServer(t, cfg)

	for i := 1; i <= 2; i++ {
		req := SynthesizeRequest{Target: fmt.Sprintf("t%d", i), Spec: svcSpec}
		if status, body := postJSON(t, ts.URL+"/v1/synthesize", req); status != http.StatusOK {
			t.Fatalf("target %d: status %d: %s", i, status, body)
		}
	}
	m := getMetrics(t, ts.URL)
	if m.CachedEntries != 1 {
		t.Errorf("cached_entries = %d, want 1 under CacheEntries=1", m.CachedEntries)
	}
	if m.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", m.Evictions)
	}
}

// TestLineageCap: the cache cap also bounds lineages, since an edit's
// base is its lineage's resident entry. With room for one entry after
// five targets, an edit of the resident target is incremental and an
// edit of an evicted one starts from scratch.
func TestLineageCap(t *testing.T) {
	cfg := testConfig()
	cfg.CacheEntries = 1
	_, ts := newTestServer(t, cfg)

	for i := 1; i <= 5; i++ {
		req := SynthesizeRequest{Target: fmt.Sprintf("t%d", i), Spec: svcSpec}
		if status, body := postJSON(t, ts.URL+"/v1/synthesize", req); status != http.StatusOK {
			t.Fatalf("target %d: status %d: %s", i, status, body)
		}
	}
	if m := getMetrics(t, ts.URL); m.CachedEntries != 1 {
		t.Errorf("cached_entries = %d, want 1 under CacheEntries=1", m.CachedEntries)
	}

	for _, tc := range []struct{ target, want string }{{"t5", "incr"}, {"t1", "miss"}} {
		status, body := postJSON(t, ts.URL+"/v1/synthesize", SynthesizeRequest{Target: tc.target, Spec: svcSpecEdited})
		if status != http.StatusOK {
			t.Fatalf("edit of %s: status %d: %s", tc.target, status, body)
		}
		if got := decodeSynth(t, body).Cache; got != tc.want {
			t.Errorf("edit of %s cache = %q, want %s", tc.target, got, tc.want)
		}
	}
}

// TestRetryAfterOnBackpressure: a 429 from a full queue carries a
// Retry-After header so clients back off instead of spinning.
func TestRetryAfterOnBackpressure(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 1
	cfg.QueueDepth = 1
	sv, ts := newTestServer(t, cfg)

	started := make(chan struct{}, 3)
	release := make(chan struct{})
	var once sync.Once
	releaseAll := func() { once.Do(func() { close(release) }) }
	sv.testJobGate = func() {
		started <- struct{}{}
		<-release
	}
	defer releaseAll()

	post := func(i int) (*http.Response, error) {
		buf, _ := json.Marshal(SynthesizeRequest{Target: fmt.Sprintf("r%d", i), Spec: svcSpec})
		return http.Post(ts.URL+"/v1/synthesize", "application/json", bytes.NewReader(buf))
	}
	go func() {
		if resp, err := post(1); err == nil {
			resp.Body.Close()
		}
	}()
	<-started // job 1 occupies the only worker
	go func() {
		if resp, err := post(2); err == nil {
			resp.Body.Close()
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for getMetrics(t, ts.URL).QueueDepth != 1 {
		if time.Now().After(deadline) {
			t.Fatal("second job never queued")
		}
		time.Sleep(2 * time.Millisecond)
	}

	resp, err := post(3)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got == "" {
		t.Error("429 response has no Retry-After header")
	}
	releaseAll()
}
