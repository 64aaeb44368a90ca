package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"iselgen/internal/core"
	"iselgen/internal/obs"
	"iselgen/internal/service"
)

// clSpec is the same miniature single-width ISA the service tests use:
// big enough to synthesize a real library, small enough to do it in
// well under a second.
const clSpec = `
inst ADDrr(rn: reg64, rm: reg64) { rd = rn + rm; }
inst SUBrr(rn: reg64, rm: reg64) { rd = rn - rm; }
inst ADDri(rn: reg64, imm: imm12) { rd = rn + zext(imm, 64); }
inst LSLri(rn: reg64, sh: imm6) { rd = rn << zext(sh, 64); }
inst ANDrr(rn: reg64, rm: reg64) { rd = rn & rm; }
inst ORNrr(rn: reg64, rm: reg64) { rd = rn | ~rm; }
inst MVNr(rm: reg64) { rd = ~rm; }
inst MULrr(rn: reg64, rm: reg64) { rd = rn * rm; }
inst MOVZ(imm: imm16) { rd = zext(imm, 64); }
`

// clProg is a fixed straight-line program in the fuzz corpus text form.
const clProg = "v0 = param 64\nv1 = param 64\nv2 = add 64 v0 v1\nv3 = mul 64 v2 v0\nret v3\n"

// bootTest starts an n-replica in-process cluster with the fast test
// synthesis configuration. The term index is off, so clSpec's patterns
// take the SMT fallback and a synthesis fills its replica's verdict
// store.
func bootTest(t *testing.T, n int, tmpl Config) *Local {
	t.Helper()
	mk := func(i int) (*service.Server, *obs.Obs, error) {
		o := obs.New()
		sv, err := service.New(service.Config{
			Workers:     2,
			QueueDepth:  8,
			Synth:       core.Config{TestInputs: 16, Workers: 2, SMTMaxConflicts: 64, DisableIndex: true},
			MaxPatterns: 10,
			Obs:         o,
		})
		return sv, o, err
	}
	lc, err := StartLocal(n, mk, tmpl)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lc.Close)
	// Cleanups run last-in first-out, so this runs before Close. The
	// shared transport may hold a connection it dialed but never used;
	// the server counts such a connection as active for its first five
	// seconds, and a graceful shutdown would wait it out.
	t.Cleanup(http.DefaultClient.CloseIdleConnections)
	return lc
}

func post(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, out
}

func metricsOf(t *testing.T, base string) service.MetricsSnapshot {
	t.Helper()
	resp, err := http.Get(base + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m service.MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// inlineNameOwnedBy finds an inline-spec target name whose cache
// fingerprint the given replica owns (ring placement uses random
// loopback ports, so ownership cannot be pinned statically).
func inlineNameOwnedBy(t *testing.T, lc *Local, replica int, exclude ...string) string {
	t.Helper()
	for i := 0; i < 256; i++ {
		name := fmt.Sprintf("mini%d", i)
		skip := false
		for _, ex := range exclude {
			if name == ex {
				skip = true
			}
		}
		if skip {
			continue
		}
		fp, err := lc.Replica(0).SV.FingerprintRequest(name, clSpec, "")
		if err != nil {
			t.Fatal(err)
		}
		if lc.Replica(0).Node.OwnerOf(fp) == lc.Replica(replica).URL {
			return name
		}
	}
	t.Fatal("no inline target name hashed to the wanted replica in 256 tries")
	return ""
}

// TestClusterColdKeySynthesizedOnce is the tentpole acceptance: three
// replicas hit concurrently with the same cold key run synthesis
// exactly once fleet-wide — the two non-owners fill from the owner, and
// the owner's singleflight collapses the concurrent fills.
func TestClusterColdKeySynthesizedOnce(t *testing.T) {
	lc := bootTest(t, 3, Config{})
	name := inlineNameOwnedBy(t, lc, 2) // any replica; 2 keeps it interesting
	req := service.SynthesizeRequest{Target: name, Spec: clSpec}

	var wg sync.WaitGroup
	type res struct {
		status int
		body   service.SynthesizeResponse
	}
	results := make([]res, lc.Len())
	for i := 0; i < lc.Len(); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, body := post(t, lc.Replica(i).URL+"/v1/synthesize", req)
			results[i].status = status
			json.Unmarshal(body, &results[i].body)
		}(i)
	}
	wg.Wait()

	for i, r := range results {
		if r.status != http.StatusOK {
			t.Fatalf("replica %d answered %d", i, r.status)
		}
		if r.body.Rules == 0 || r.body.Fingerprint != results[0].body.Fingerprint {
			t.Fatalf("replica %d: rules=%d fp=%s (want fp %s)",
				i, r.body.Rules, r.body.Fingerprint, results[0].body.Fingerprint)
		}
		if r.body.Rules != results[0].body.Rules {
			t.Fatalf("replica %d returned %d rules, replica 0 returned %d",
				i, r.body.Rules, results[0].body.Rules)
		}
	}

	// Each replica owns its verdict store, so only the owner's, which
	// ran the one synthesis, holds verdicts.
	var synth, peer uint64
	for i := 0; i < lc.Len(); i++ {
		m := metricsOf(t, lc.Replica(i).URL)
		synth += m.SynthRuns + m.IncrRuns
		peer += m.PeerFills
		if owner := i == 2; owner != (m.SolverMemoEntries > 0) {
			t.Errorf("replica %d (owner %v) holds %d verdicts", i, owner, m.SolverMemoEntries)
		}
	}
	if synth != 1 {
		t.Fatalf("fleet ran %d syntheses for one cold key, want exactly 1", synth)
	}
	if peer != 2 {
		t.Fatalf("fleet recorded %d peer fills, want 2 (both non-owners)", peer)
	}
}

// TestClusterByteIdenticalResponses is acceptance: once warm, the same
// select request answered by any replica is byte-for-byte identical.
func TestClusterByteIdenticalResponses(t *testing.T) {
	lc := bootTest(t, 3, Config{})
	name := inlineNameOwnedBy(t, lc, 1)

	// Round 1 warms every replica (owner synthesizes, others peer-fill).
	for i := 0; i < lc.Len(); i++ {
		if status, body := post(t, lc.Replica(i).URL+"/v1/synthesize",
			service.SynthesizeRequest{Target: name, Spec: clSpec}); status != http.StatusOK {
			t.Fatalf("warm replica %d: %d %s", i, status, body)
		}
	}

	// Round 2: every replica answers from its own cache; bodies and
	// status must match byte for byte regardless of receiving replica.
	req := service.SynthesizeRequest{Target: name, Spec: clSpec, Emit: true}
	var first []byte
	for i := 0; i < lc.Len(); i++ {
		status, body := post(t, lc.Replica(i).URL+"/v1/synthesize", req)
		if status != http.StatusOK {
			t.Fatalf("replica %d: %d %s", i, status, body)
		}
		var sr service.SynthesizeResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatal(err)
		}
		if sr.Cache != "hit" {
			t.Fatalf("replica %d answered cache=%q on round 2, want hit", i, sr.Cache)
		}
		// elapsed_ms reports the cached entry's original production time,
		// which differs per replica by construction; blank it and nothing
		// else before comparing.
		norm := normalizeElapsed(t, body)
		if first == nil {
			first = norm
		} else if !bytes.Equal(first, norm) {
			t.Fatalf("replica %d response differs from replica 0:\n%s\n---\n%s", i, first, norm)
		}
	}
}

// normalizeElapsed zeroes the elapsed_ms field of a JSON body without
// disturbing anything else (decode into a raw map would reorder keys,
// so substitute on the decoded-then-reencoded form for both sides).
func normalizeElapsed(t *testing.T, body []byte) []byte {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	m["elapsed_ms"] = json.RawMessage("0")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestClusterSelectProgramIdentical drives the select path: the same
// inline program answered by each replica must produce identical
// selection results (cost, cycles, checksum — no timing in the body).
func TestClusterSelectProgramIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("riscv synthesis in -short mode")
	}
	lc := bootTest(t, 3, Config{})
	req := service.SelectRequest{Target: "riscv", Program: clProg, VectorSeed: 7}
	var first []byte
	for round := 0; round < 2; round++ {
		for i := 0; i < lc.Len(); i++ {
			status, body := post(t, lc.Replica(i).URL+"/v1/select", req)
			if status != http.StatusOK {
				t.Fatalf("round %d replica %d: %d %s", round, i, status, body)
			}
			var sr service.SelectResponse
			if err := json.Unmarshal(body, &sr); err != nil {
				t.Fatal(err)
			}
			if round == 1 {
				if sr.Cache != "hit" {
					t.Fatalf("round 2 replica %d: cache=%q, want hit", i, sr.Cache)
				}
				if first == nil {
					first = body
				} else if !bytes.Equal(first, body) {
					t.Fatalf("replica %d select response differs:\n%s\n---\n%s", i, first, body)
				}
			}
		}
	}
	var synth uint64
	for i := 0; i < lc.Len(); i++ {
		synth += metricsOf(t, lc.Replica(i).URL).SynthRuns
	}
	if synth != 1 {
		t.Fatalf("fleet ran %d riscv syntheses, want 1", synth)
	}
}

// TestClusterKillDegradesToLocal is acceptance: killing a replica
// degrades the fleet to local fills with zero failed requests, and the
// dead peer's circuit opens.
func TestClusterKillDegradesToLocal(t *testing.T) {
	lc := bootTest(t, 3, Config{BreakerThreshold: 1, BreakerCooldown: time.Hour, HedgeDelay: -1})
	victim := 2
	name := inlineNameOwnedBy(t, lc, victim)
	lc.Kill(victim)

	// Both survivors request the key the dead replica owns: the peer
	// fill fails (connection refused), each falls back to a local
	// synthesis, and the client still gets a full 200.
	for i := 0; i < victim; i++ {
		status, body := post(t, lc.Replica(i).URL+"/v1/synthesize",
			service.SynthesizeRequest{Target: name, Spec: clSpec})
		if status != http.StatusOK {
			t.Fatalf("replica %d failed after peer death: %d %s", i, status, body)
		}
		var sr service.SynthesizeResponse
		if err := json.Unmarshal(body, &sr); err != nil || sr.Rules == 0 {
			t.Fatalf("replica %d: degraded answer has no rules: %s", i, body)
		}
	}
	var synth, peer uint64
	for i := 0; i < victim; i++ {
		m := metricsOf(t, lc.Replica(i).URL)
		synth += m.SynthRuns + m.IncrRuns
		peer += m.PeerFills
	}
	if synth != 2 {
		t.Fatalf("survivors ran %d local syntheses, want 2 (one each)", synth)
	}
	if peer != 0 {
		t.Fatalf("recorded %d peer fills from a dead owner", peer)
	}

	// The survivors' breakers for the dead peer are open (threshold 1).
	resp, err := http.Get(lc.Replica(0).URL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st ClusterStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Self != lc.Replica(0).URL || len(st.Peers) != 3 {
		t.Fatalf("bad cluster status: %+v", st)
	}
	for _, p := range st.Peers {
		if p.URL == lc.Replica(victim).URL && p.BreakerState != BreakerOpen {
			t.Fatalf("dead peer's breaker state=%d, want open", p.BreakerState)
		}
	}

	// With the circuit open the next cold key owned by the dead replica
	// degrades instantly — no connection attempt, still a 200.
	name2 := inlineNameOwnedBy(t, lc, victim, name)
	status, _ := post(t, lc.Replica(0).URL+"/v1/synthesize",
		service.SynthesizeRequest{Target: name2, Spec: clSpec})
	if status != http.StatusOK {
		t.Fatalf("open-circuit degradation answered %d", status)
	}
}

// fakePeer is an httptest replica answering /v1/artifact for the hedge
// and breaker unit tests (no real synthesis behind it).
func fakePeer(t *testing.T, delay time.Duration, status int, answer func(req service.FillRequest) service.ArtifactResponse) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/artifact" {
			http.NotFound(w, r)
			return
		}
		var req service.FillRequest
		json.NewDecoder(r.Body).Decode(&req)
		time.Sleep(delay)
		if status != http.StatusOK {
			w.WriteHeader(status)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(answer(req))
	}))
	t.Cleanup(ts.Close)
	return ts
}

// hedgeNode builds a Node over [self, two fakes] and returns it plus a
// key whose primary owner is slowURL and whose hedge target is fastURL.
func hedgeNode(t *testing.T, cfg Config, slowURL, fastURL string) (*Node, string) {
	t.Helper()
	sv, err := service.New(service.Config{Workers: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sv.Close)
	cfg.Self = "http://self.invalid"
	cfg.Peers = []string{cfg.Self, slowURL, fastURL}
	node, err := New(sv, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4096; i++ {
		key := fmt.Sprintf("sha256:%08d", i)
		owners := node.ring.Owners(key, 2)
		if len(owners) == 2 && owners[0] == slowURL && owners[1] == fastURL {
			return node, key
		}
	}
	t.Fatal("no key with the wanted (slow, fast) preference order")
	return nil, ""
}

// TestHedgeWinsOnSlowOwner: a slow owner loses the race to the hedged
// cache-only probe on the next replica.
func TestHedgeWinsOnSlowOwner(t *testing.T) {
	echo := func(req service.FillRequest) service.ArtifactResponse {
		return service.ArtifactResponse{Fingerprint: req.Fingerprint, Library: "lib-text"}
	}
	slow := fakePeer(t, 400*time.Millisecond, http.StatusOK, echo)
	fast := fakePeer(t, 0, http.StatusOK, echo)
	node, key := hedgeNode(t, Config{HedgeDelay: 20 * time.Millisecond}, slow.URL, fast.URL)

	t0 := time.Now()
	fill, err := node.FetchArtifact(context.Background(), service.FillRequest{Fingerprint: key})
	if err != nil {
		t.Fatal(err)
	}
	if fill.Peer != fast.URL {
		t.Fatalf("answer came from %s, want hedge %s", fill.Peer, fast.URL)
	}
	if d := time.Since(t0); d > 300*time.Millisecond {
		t.Fatalf("hedged fetch took %v — raced the slow owner instead of winning", d)
	}
}

// TestHedgeMissFallsBackToOwner: a hedge probe that misses (404) does
// not fail the fetch — the owner's answer is still awaited.
func TestHedgeMissFallsBackToOwner(t *testing.T) {
	echo := func(req service.FillRequest) service.ArtifactResponse {
		return service.ArtifactResponse{Fingerprint: req.Fingerprint, Library: "owner-lib"}
	}
	slow := fakePeer(t, 150*time.Millisecond, http.StatusOK, echo)
	miss := fakePeer(t, 0, http.StatusNotFound, nil)
	node, key := hedgeNode(t, Config{HedgeDelay: 10 * time.Millisecond}, slow.URL, miss.URL)

	fill, err := node.FetchArtifact(context.Background(), service.FillRequest{Fingerprint: key})
	if err != nil {
		t.Fatal(err)
	}
	if fill.Peer != slow.URL || fill.Text != "owner-lib" {
		t.Fatalf("fill = %+v, want the owner's artifact", fill)
	}
	// A 404 is a healthy "not cached" — the miss peer's breaker stays
	// closed.
	if st := node.peer[miss.URL].breaker.State(); st != BreakerClosed {
		t.Fatalf("hedge miss tripped the breaker (state %d)", st)
	}
}

// TestFetchArtifactSelfOwnerIsLocal: owning the key routes to
// ErrLocalFill, the degrade-to-local signal.
func TestFetchArtifactSelfOwnerIsLocal(t *testing.T) {
	sv, err := service.New(service.Config{Workers: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sv.Close)
	node, err := New(sv, Config{Self: "http://self.invalid"})
	if err != nil {
		t.Fatal(err)
	}
	_, err = node.FetchArtifact(context.Background(), service.FillRequest{Fingerprint: "k"})
	if err != service.ErrLocalFill {
		t.Fatalf("single-member fetch returned %v, want ErrLocalFill", err)
	}
}

// TestFingerprintMismatchRejected: an artifact answering the wrong
// fingerprint is refused.
func TestFingerprintMismatchRejected(t *testing.T) {
	bad := fakePeer(t, 0, http.StatusOK, func(req service.FillRequest) service.ArtifactResponse {
		return service.ArtifactResponse{Fingerprint: "sha256:not-what-you-asked-for"}
	})
	other := fakePeer(t, 0, http.StatusNotFound, nil)
	node, key := hedgeNode(t, Config{HedgeDelay: -1}, bad.URL, other.URL)
	_, err := node.FetchArtifact(context.Background(), service.FillRequest{Fingerprint: key})
	if err == nil || !strings.Contains(err.Error(), "answered fingerprint") {
		t.Fatalf("mismatched artifact accepted (err=%v)", err)
	}
	// The wrong artifact is a peer failure, not a healthy exchange.
	if n := node.peer[bad.URL].breaker.Failures(); n != 1 {
		t.Fatalf("breaker counted %d failures after a mismatched artifact, want 1", n)
	}
}

// TestMalformedArtifactOpensCircuit: a peer answering 200 with a body
// that is not an artifact fails like a 5xx, so BreakerThreshold such
// answers open its circuit and the next fetch is refused without a call.
func TestMalformedArtifactOpensCircuit(t *testing.T) {
	var calls atomic.Int64
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, "{not json")
	}))
	t.Cleanup(bad.Close)
	other := fakePeer(t, 0, http.StatusNotFound, nil)
	node, key := hedgeNode(t, Config{BreakerThreshold: 2, HedgeDelay: -1}, bad.URL, other.URL)
	for i := 0; i < 2; i++ {
		if _, err := node.FetchArtifact(context.Background(), service.FillRequest{Fingerprint: key}); err == nil {
			t.Fatalf("fetch %d accepted a malformed artifact", i+1)
		}
	}
	_, err := node.FetchArtifact(context.Background(), service.FillRequest{Fingerprint: key})
	if err == nil || !strings.Contains(err.Error(), "circuit open") {
		t.Fatalf("third fetch returned %v, want the open circuit's rejection", err)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("malformed peer was called %d times, want 2", n)
	}
}
