package harness_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"iselgen/internal/core"
	"iselgen/internal/harness"
	"iselgen/internal/service"
)

// TestServedLibrariesPinned holds the library iseld serves under its
// default flags to the pins: the daemon and iselgen synthesize one
// library per target.
func TestServedLibrariesPinned(t *testing.T) {
	for name, want := range harness.PinnedLibraries {
		t.Run(name, func(t *testing.T) {
			// A server per target, as the pins were taken from an empty
			// verdict store.
			sv, err := service.New(service.Config{Workers: 1, QueueDepth: 2, Synth: core.DefaultConfig()})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(sv.Handler())
			defer func() {
				ts.Close()
				sv.Close()
			}()
			body, _ := json.Marshal(service.FillRequest{Target: name})
			resp, err := http.Post(ts.URL+"/v1/artifact", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var art service.ArtifactResponse
			if err := json.NewDecoder(resp.Body).Decode(&art); err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d, decode error %v", resp.StatusCode, err)
			}
			sum := sha256.Sum256([]byte(art.Library))
			if got := hex.EncodeToString(sum[:]); got != want {
				t.Errorf("served %s library (%d rules) hashes to %s, pinned %s", name, art.Rules, got, want)
			}
		})
	}
}
