package service

import (
	"encoding/json"
	"net/http"
	"testing"

	"iselgen/internal/rules"
	"iselgen/internal/smt"
)

func getSolverQuery(t *testing.T, base, key string) (int, SolverQueryResponse) {
	t.Helper()
	resp, err := http.Get(base + "/v1/solver/query?key=" + key)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out SolverQueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// TestSolverQueryAndRuleWhy drives the provenance API end to end:
// /v1/rules/{fp}/why joins a cached rule to the memo queries stored
// under its synthesis context, and /v1/solver/query replays one of
// those verdicts by key. Misses are 404s; no path solves. (The mini
// spec is fully index-proven, so the memo entry is planted under the
// rule's real context exactly as a synthesis worker would store it.)
func TestSolverQueryAndRuleWhy(t *testing.T) {
	sv, ts := newTestServer(t, testConfig())

	status, body := postJSON(t, ts.URL+"/v1/synthesize", SynthesizeRequest{Target: "mini", Spec: svcSpec})
	if status != http.StatusOK {
		t.Fatalf("synthesize: status %d: %s", status, body)
	}

	// Discover a rule through the listing endpoint, the way a client
	// that cannot compute fingerprints would.
	lr, err := http.Get(ts.URL + "/v1/rules?target=mini")
	if err != nil {
		t.Fatal(err)
	}
	defer lr.Body.Close()
	var listing RuleListResponse
	if err := json.NewDecoder(lr.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Rules) == 0 {
		t.Fatal("rule listing is empty after synthesis")
	}
	fp := listing.Rules[0].Fingerprint
	source := listing.Rules[0].Source
	ctx := "synthesis:" + listing.Rules[0].Pattern
	var inStore bool
	for _, e := range sv.store.Entries() {
		for _, r := range e.Lib.Rules {
			if rules.RuleFP(r) == fp {
				inStore = true
			}
		}
	}
	if !inStore {
		t.Fatalf("listed fingerprint %s not present in any cached library", fp)
	}
	if fr, err := http.Get(ts.URL + "/v1/rules?target=nonesuch"); err != nil {
		t.Fatal(err)
	} else {
		var empty RuleListResponse
		if err := json.NewDecoder(fr.Body).Decode(&empty); err != nil {
			t.Fatal(err)
		}
		fr.Body.Close()
		if len(empty.Rules) != 0 {
			t.Fatalf("target filter leaked %d rules", len(empty.Rules))
		}
	}
	key := "cafe" + fp
	sv.cfg.Synth.Verdicts.Store(key, smt.MemoEntry{Verdict: smt.Equal, SpecFP: "spec-fp", Budget: 64, Context: ctx})

	resp, err := http.Get(ts.URL + "/v1/rules/" + fp + "/why")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var why RuleWhyResponse
	if err := json.NewDecoder(resp.Body).Decode(&why); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("why: status %d", resp.StatusCode)
	}
	if why.Source != source || len(why.Libraries) == 0 || why.Context != ctx {
		t.Fatalf("why response incomplete: source=%q libraries=%d context=%q",
			why.Source, len(why.Libraries), why.Context)
	}
	if len(why.MemoQueries) != 1 || why.MemoQueries[0].Key != key {
		t.Fatalf("why did not join the memo under the rule's context: %+v", why.MemoQueries)
	}

	// Replay the provenance query by key: a local memo hit.
	code, q := getSolverQuery(t, ts.URL, key)
	if code != http.StatusOK || !q.Found || q.Source != "local" || q.Entry == nil {
		t.Fatalf("local query = %d %+v", code, q)
	}
	if q.Entry.Context != why.Context {
		t.Fatalf("entry context %q, want %q", q.Entry.Context, why.Context)
	}

	// Unknown fingerprint and unknown key are 404s.
	if r2, err := http.Get(ts.URL + "/v1/rules/ffffffffffffffff/why"); err != nil {
		t.Fatal(err)
	} else {
		r2.Body.Close()
		if r2.StatusCode != http.StatusNotFound {
			t.Fatalf("unknown rule fingerprint: status %d", r2.StatusCode)
		}
	}
	if code, q := getSolverQuery(t, ts.URL, "no-such-key"); code != http.StatusNotFound || q.Found {
		t.Fatalf("unknown key = %d %+v", code, q)
	}
}
