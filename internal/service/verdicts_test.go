package service

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"testing"
)

// verdictConfig is testConfig with the term index off, so the mini
// spec's patterns take the SMT fallback and fill the verdict memo.
func verdictConfig(cacheDir string) Config {
	cfg := testConfig()
	cfg.Synth.DisableIndex = true
	cfg.CacheDir = cacheDir
	return cfg
}

// miniArtifact fetches (synthesizing on a miss) the mini spec's
// persisted library from the server at base.
func miniArtifact(t *testing.T, base string) ArtifactResponse {
	t.Helper()
	status, body := postJSON(t, base+"/v1/artifact", FillRequest{Target: "mini", Spec: svcSpec})
	if status != http.StatusOK {
		t.Fatalf("artifact: status %d: %s", status, body)
	}
	var art ArtifactResponse
	if err := json.Unmarshal(body, &art); err != nil {
		t.Fatal(err)
	}
	return art
}

// TestServersOwnVerdictStores: two servers in one process keep separate
// verdict memos, so a synthesis on one leaves the other's memo empty.
func TestServersOwnVerdictStores(t *testing.T) {
	_, a := newTestServer(t, verdictConfig(""))
	_, b := newTestServer(t, verdictConfig(""))
	if art := miniArtifact(t, a.URL); art.Stats.SMTQueries == 0 {
		t.Fatal("synthesis ran no SMT queries, so it stored no verdicts")
	}
	if n := getMetrics(t, a.URL).SolverMemoEntries; n == 0 {
		t.Fatal("the synthesizing server's memo holds no verdicts")
	}
	if n := getMetrics(t, b.URL).SolverMemoEntries; n != 0 {
		t.Fatalf("the idle server's memo holds %d verdicts, want 0", n)
	}
}

// TestWarmRestartReplaysJournal: a server with a cache directory
// journals its verdicts to solver.journal. A second server whose cache
// directory holds only that journal replays it, so its synthesis of the
// same spec runs no bit-blast and yields the same library.
func TestWarmRestartReplaysJournal(t *testing.T) {
	coldDir, warmDir := t.TempDir(), t.TempDir()
	sv, ts := newTestServer(t, verdictConfig(coldDir))
	cold := miniArtifact(t, ts.URL)
	if cold.Stats.BitBlasts == 0 {
		t.Fatal("cold synthesis ran no bit-blasts")
	}
	ts.Close()
	sv.Close()
	journal, err := os.ReadFile(filepath.Join(coldDir, "solver.journal"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(warmDir, "solver.journal"), journal, 0o644); err != nil {
		t.Fatal(err)
	}

	_, ts = newTestServer(t, verdictConfig(warmDir))
	if m := getMetrics(t, ts.URL); m.SolverJournal.Loaded == 0 {
		t.Fatalf("restarted server replayed no verdicts: %+v", m.SolverJournal)
	}
	warm := miniArtifact(t, ts.URL)
	if warm.Cache != "miss" {
		t.Fatalf("warm fill answered cache=%q, want a synthesis (miss)", warm.Cache)
	}
	if warm.Stats.BitBlasts != 0 || warm.Stats.MemoHits == 0 {
		t.Fatalf("warm synthesis ran %d bit-blasts with %d memo hits, want 0 and > 0",
			warm.Stats.BitBlasts, warm.Stats.MemoHits)
	}
	if warm.Library != cold.Library {
		t.Fatal("warm synthesis produced a different library")
	}
}
