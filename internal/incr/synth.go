package incr

import (
	"context"
	"time"

	"iselgen/internal/core"
	"iselgen/internal/isa"
	"iselgen/internal/isel"
	"iselgen/internal/pattern"
	"iselgen/internal/rules"
	"iselgen/internal/term"
)

// Options configures an incremental resynthesis.
type Options struct {
	// Config must match the configuration of the run that produced the
	// artifact (same CacheKey modulo Workers): the reuse argument assumes
	// the old library is what this configuration produces from the old
	// spec. The service enforces this by keying artifact lineages on the
	// config; CLI users are on their honor.
	Config core.Config
	// Patterns must be the same corpus the artifact was synthesized from.
	// A pattern the old run never attempted would only be searched against
	// the reduced pool, missing rules from unchanged instructions.
	Patterns []*pattern.Pattern
	// Context, when non-nil, curtails SMT fallbacks past its deadline
	// (core.SynthesizeCtx semantics); the result is then partial.
	Context context.Context
}

// Report accounts for one incremental resynthesis — the reuse counters
// the service surfaces in /v1/metrics and iselgen prints.
type Report struct {
	Delta Delta `json:"delta"`
	// Rule classification.
	ArtifactRules  int `json:"artifact_rules"`
	Reused         int `json:"reused"`          // provenance intact, re-verified, carried over
	Stale          int `json:"stale"`           // a supporting instruction changed or vanished
	ReverifyFailed int `json:"reverify_failed"` // provenance intact but failed re-verification (counted in Stale too)
	Resynthesized  int `json:"resynthesized"`   // rules produced by synthesis this run
	Improved       int `json:"improved"`        // reused rules displaced by a strictly cheaper new rule
	// Work done. SMTQueries is the headline: reused rules are re-verified
	// by randomized evaluation only, so a delta touching few instructions
	// keeps this near zero.
	SMTQueries int64           `json:"smt_queries"`
	FullPool   bool            `json:"full_pool"` // stale rules forced a full-pool stage 1
	Curtailed  bool            `json:"curtailed"`
	Stats      core.StageStats `json:"stages"`
	ElapsedMS  float64         `json:"elapsed_ms"`
}

// ReusedFraction returns reused / artifact rules (0 when the artifact was
// empty).
func (r *Report) ReusedFraction() float64 {
	if r.ArtifactRules == 0 {
		return 0
	}
	return float64(r.Reused) / float64(r.ArtifactRules)
}

// Resynthesize produces the rule library for tgt by reusing as much of
// the old artifact as its provenance allows and synthesizing only the
// remainder:
//
//  1. classify every artifact rule by diffing its supporting instruction
//     fingerprints against the new spec; reusable rules are re-verified
//     (isel.LoadRule — randomized evaluation, zero solver queries) and
//     seeded into the library;
//  2. patterns whose rules went stale are re-run against the full pool
//     (their replacement may come from unchanged instructions);
//  3. all other patterns are run against a reduced pool containing only
//     sequences that touch changed instructions — for covered patterns a
//     new rule displaces the reused one only when strictly cheaper (ties
//     keep the reused rule, and its proof origin).
//
// The target must have been loaded into b.
func Resynthesize(b *term.Builder, tgt *isa.Target, art *Artifact, opt Options) (*rules.Library, *Report, error) {
	t0 := time.Now()
	rep := &Report{ArtifactRules: len(art.Rules)}
	newFPs := InstFingerprints(tgt)
	rep.Delta = Diff(art.InstFPs, newFPs)
	changed := changedSet(art.InstFPs, newFPs)

	// 1. Classify artifact rules; re-verify and materialize the reusable
	// ones against the new target.
	reused := map[string][]*rules.Rule{}
	stalePat := map[string]bool{}
	for _, ar := range art.Rules {
		ok := true
		for _, name := range ar.Insts {
			if changed[name] || tgt.ByName(name) == nil {
				ok = false
				break
			}
		}
		if !ok {
			rep.Stale++
			stalePat[ar.PatternKey] = true
			continue
		}
		r, err := isel.LoadRule(b, tgt, ar.Line)
		if err != nil {
			// Provenance said reusable but verification disagreed (e.g. a
			// corrupted artifact). Treat as stale: the pattern re-enters
			// full synthesis. Never serve an unverified rule.
			rep.Stale++
			rep.ReverifyFailed++
			stalePat[ar.PatternKey] = true
			continue
		}
		reused[ar.PatternKey] = append(reused[ar.PatternKey], r)
		rep.Reused++
	}

	// 2. Partition the corpus: stale-rule patterns need the full pool;
	// everything else only the reduced pool.
	var fullPats, reducedPats []*pattern.Pattern
	seen := map[string]bool{}
	for _, p := range opt.Patterns {
		k := p.Key()
		if seen[k] {
			continue
		}
		seen[k] = true
		if stalePat[k] {
			fullPats = append(fullPats, p)
		} else {
			reducedPats = append(reducedPats, p)
		}
	}

	// 3. Reduced-pool synthesis for the non-stale patterns: only sequences
	// touching a changed instruction can add coverage or beat a reused
	// rule. The run works on a scratch library seeded with the reused
	// rules, so its beneficial-rule filter sees them and exact
	// rediscoveries dedup away.
	fresh := map[string]*rules.Rule{}
	if len(reducedPats) > 0 && len(changed) > 0 {
		rcfg := opt.Config
		rcfg.PoolFilter = func(insts []*isa.Instruction) bool {
			for _, inst := range insts {
				if changed[inst.Name] {
					return true
				}
			}
			return false
		}
		syn := core.New(b, tgt, rcfg)
		syn.BuildPool()
		rlib := rules.NewLibrary(tgt.Name)
		seeded := map[*rules.Rule]bool{}
		for _, rs := range reused {
			for _, r := range rs {
				rlib.Add(r)
				seeded[r] = true
			}
		}
		rep.Curtailed = runSynth(syn, opt.Context, reducedPats, rlib) || rep.Curtailed
		accumulate(rep, syn)
		for _, p := range reducedPats {
			k := p.Key()
			for _, r := range rlib.LookupAll(k) {
				if !seeded[r] && (fresh[k] == nil || r.Cost() < fresh[k].Cost()) {
					fresh[k] = r
				}
			}
		}
	}

	// 4. Merge: per pattern, a fresh rule wins only when the pattern was
	// uncovered or the fresh rule is strictly cheaper — a tie keeps the
	// reused rule (and its proof origin), matching what a from-scratch run
	// over the same deterministic pool would keep.
	lib := rules.NewLibrary(tgt.Name)
	merged := map[string]bool{}
	mergeKey := func(k string) {
		if merged[k] {
			return
		}
		merged[k] = true
		old := reused[k]
		f := fresh[k]
		switch {
		case f == nil:
			for _, r := range old {
				lib.Add(r)
			}
		case len(old) == 0:
			lib.Add(f) // previously uncovered pattern gained a rule
			rep.Resynthesized++
		case f.Cost() < old[0].Cost():
			lib.Add(f) // a changed instruction yields a strictly cheaper cover
			rep.Resynthesized++
			rep.Improved++
		default:
			for _, r := range old {
				lib.Add(r)
			}
		}
	}
	for _, p := range opt.Patterns {
		mergeKey(p.Key())
	}
	for _, ar := range art.Rules {
		mergeKey(ar.PatternKey) // reused rules for patterns outside the corpus
	}

	// 5. Full-pool synthesis for stale-rule patterns, last, so its
	// beneficial-rule filter consults the merged smaller rules.
	if len(fullPats) > 0 {
		syn := core.New(b, tgt, opt.Config)
		syn.BuildPool()
		before := lib.Len()
		rep.Curtailed = runSynth(syn, opt.Context, fullPats, lib) || rep.Curtailed
		rep.Resynthesized += lib.Len() - before
		rep.FullPool = true
		accumulate(rep, syn)
	}

	rep.SMTQueries = rep.Stats.SMTQueries
	rep.ElapsedMS = float64(time.Since(t0).Nanoseconds()) / 1e6
	return lib, rep, nil
}

func runSynth(syn *core.Synthesizer, ctx context.Context, pats []*pattern.Pattern, lib *rules.Library) bool {
	if ctx != nil {
		return syn.SynthesizeCtx(ctx, pats, lib)
	}
	syn.Synthesize(pats, lib)
	return false
}

func accumulate(rep *Report, syn *core.Synthesizer) {
	snap := syn.Stats.Snapshot()
	rep.Stats.Accumulate(snap)
}
