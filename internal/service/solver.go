package service

import (
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"sort"

	"iselgen/internal/obs"
	"iselgen/internal/rules"
	"iselgen/internal/smt"
	"iselgen/internal/solver"
)

// SolverQueryResponse answers GET /v1/solver/query.
type SolverQueryResponse struct {
	Key   string `json:"key"`
	Found bool   `json:"found"`
	// Source is where the verdict came from: always "local" (this
	// replica's memo).
	Source string `json:"source,omitempty"`
	// Verdict is the human form of Entry.Verdict: "equal", "not-equal",
	// or "unknown".
	Verdict string `json:"verdict,omitempty"`
	// Entry is the full stored record: verdict code, spec fingerprint,
	// solve budget, counterexample (if refuted), provenance context, and
	// solver statistics.
	Entry *smt.MemoEntry `json:"entry,omitempty"`
}

// attachJournal persists the server's verdict memo beside the disk
// artifacts, when there are any: settled equivalence verdicts from past
// lifetimes replay at startup, so a warm restart re-verifies libraries
// without re-running a single bit-blast. A journal that cannot be opened
// leaves the memo in memory only.
func (sv *Server) attachJournal() {
	if sv.cfg.CacheDir == "" {
		return
	}
	verdicts, lg := sv.cfg.Synth.Verdicts, sv.logger
	jp := filepath.Join(sv.cfg.CacheDir, "solver.journal")
	err := verdicts.AttachJournal(jp)
	switch {
	case lg == nil:
	case err != nil:
		lg.Warn("solver journal unavailable, memo is in-memory only", "path", jp, "err", err.Error())
	default:
		js := verdicts.Journal()
		lg.Info("solver journal attached", "path", jp, "verdicts", js.Loaded, "quarantined", js.Quarantined)
	}
}

// handleSolverQuery resolves one memo key (?key=, the checker's
// content-addressed term-pair hash) against the local store. A miss is a
// 404 with found=false; no path here ever starts a solve.
func (sv *Server) handleSolverQuery(w http.ResponseWriter, r *http.Request) {
	key := r.URL.Query().Get("key")
	if key == "" {
		sv.fail(w, http.StatusBadRequest, errors.New(`solver query needs a "key"`))
		return
	}
	if e, ok := sv.cfg.Synth.Verdicts.Lookup(key); ok {
		sv.metrics.MemoServed.Add(1)
		writeJSON(w, http.StatusOK, SolverQueryResponse{
			Key: key, Found: true, Source: "local", Verdict: e.Verdict.String(), Entry: &e})
		return
	}
	writeJSON(w, http.StatusNotFound, SolverQueryResponse{Key: key, Found: false})
}

// RuleListing is one row of GET /v1/rules: enough identity to pick a
// fingerprint for the /why provenance query.
type RuleListing struct {
	Fingerprint string `json:"fingerprint"`
	Target      string `json:"target"`
	Pattern     string `json:"pattern"`
	Sequence    string `json:"sequence"`
	Source      string `json:"source"`
}

// RuleListResponse answers GET /v1/rules.
type RuleListResponse struct {
	Rules []RuleListing `json:"rules"`
}

// handleRuleList enumerates every rule across the cached libraries
// (deduplicated by fingerprint; `?target=` filters), so /why consumers
// can discover fingerprints without recomputing them client-side.
func (sv *Server) handleRuleList(w http.ResponseWriter, r *http.Request) {
	targetFilter := r.URL.Query().Get("target")
	seen := map[string]bool{}
	resp := RuleListResponse{Rules: []RuleListing{}}
	for _, e := range sv.store.Entries() {
		if targetFilter != "" && e.TargetName != targetFilter {
			continue
		}
		for _, rule := range e.Lib.Rules {
			fp := rules.RuleFP(rule)
			if seen[fp] {
				continue
			}
			seen[fp] = true
			l := RuleListing{
				Fingerprint: fp,
				Target:      e.TargetName,
				Pattern:     rule.Pattern.Key(),
				Sequence:    rule.Seq.String(),
				Source:      rule.Source,
			}
			resp.Rules = append(resp.Rules, l)
		}
	}
	sort.Slice(resp.Rules, func(i, j int) bool {
		if resp.Rules[i].Target != resp.Rules[j].Target {
			return resp.Rules[i].Target < resp.Rules[j].Target
		}
		return resp.Rules[i].Fingerprint < resp.Rules[j].Fingerprint
	})
	writeJSON(w, http.StatusOK, resp)
}

// RuleWhyResponse answers GET /v1/rules/{fingerprint}/why: the rule's
// identity and provenance joined with every memoized solver query and
// observability record produced while synthesizing its pattern — "why
// is this rule in the library, and what did proving it cost".
type RuleWhyResponse struct {
	// Fingerprint is the queried rule fingerprint (rules.RuleFP).
	Fingerprint string `json:"fingerprint"`
	Target      string `json:"target"`
	Pattern     string `json:"pattern"`
	Sequence    string `json:"sequence"`
	// Source is the rule's discovery path: "index", "smt", or "manual".
	Source string `json:"source"`
	// Provenance lists the supporting instructions with the semantic
	// fingerprints they had when the rule was established.
	Provenance []rules.InstFP `json:"provenance,omitempty"`
	// Libraries lists the cached library fingerprints holding this rule.
	Libraries []string `json:"libraries"`
	// Context is the provenance join key the synthesis workers stamped
	// on their solver queries ("synthesis:<pattern key>").
	Context string `json:"context"`
	// MemoQueries are the verdict-memo records stored under Context —
	// the equivalence checks (proofs, refutations, timeouts) the
	// pattern's synthesis ran, keyed by canonical term-pair hash.
	MemoQueries []solver.Query `json:"memo_queries,omitempty"`
	// SMTQueries are the observability ring's per-query solver cost
	// records for Context (present when the server runs with obs; the
	// ring is bounded, so old runs age out).
	SMTQueries []obs.SMTQuery `json:"smt_queries,omitempty"`
}

// handleRuleWhy joins a rule (found by fingerprint across every cached
// library) with the solver memo and the observability provenance ring.
func (sv *Server) handleRuleWhy(w http.ResponseWriter, r *http.Request) {
	fp := r.PathValue("fingerprint")
	var found *rules.Rule
	var resp RuleWhyResponse
	for _, e := range sv.store.Entries() {
		for _, rule := range e.Lib.Rules {
			if rules.RuleFP(rule) != fp {
				continue
			}
			if found == nil {
				found = rule
				resp.Target = e.TargetName
			}
			resp.Libraries = append(resp.Libraries, e.Fingerprint)
			break
		}
	}
	if found == nil {
		sv.fail(w, http.StatusNotFound,
			fmt.Errorf("no cached library holds a rule with fingerprint %s (synthesize first, then query)", fp))
		return
	}
	sort.Strings(resp.Libraries)
	resp.Fingerprint = fp
	resp.Pattern = found.Pattern.Key()
	resp.Sequence = found.Seq.String()
	resp.Source = found.Source
	resp.Provenance = found.Prov
	resp.Context = "synthesis:" + found.Pattern.Key()
	qs := sv.cfg.Synth.Verdicts.ByContext(resp.Context)
	sort.Slice(qs, func(i, j int) bool { return qs[i].Key < qs[j].Key })
	resp.MemoQueries = qs
	if p := sv.obsv.ProvOrNil(); p != nil {
		for _, q := range p.SMTQueries() {
			if q.Context == resp.Context {
				resp.SMTQueries = append(resp.SMTQueries, q)
			}
		}
	}
	writeJSON(w, http.StatusOK, resp)
}
