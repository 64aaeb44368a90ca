package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"iselgen/internal/core"
	"iselgen/internal/isel"
	"iselgen/internal/obs"
)

// ErrLocalFill is returned by a RemoteFiller when the local node is the
// rightful owner of the fingerprint (or no peer is reachable): the
// caller should produce the artifact itself. It is a routing signal,
// not a failure.
var ErrLocalFill = errors.New("service: fill locally")

// FillRequest describes one artifact a node wants a peer to produce (or
// serve from its cache): everything the peer needs to recompute the
// fingerprint and, on a miss of its own, run the synthesis.
type FillRequest struct {
	// Fingerprint is the full-cache key the requester computed; the peer
	// recomputes it from the other fields and refuses on mismatch, so a
	// config-skewed replica can never poison a cache.
	Fingerprint string `json:"fingerprint"`
	// Target names a builtin target — or, with Spec set, the inline
	// target the spec defines.
	Target string `json:"target"`
	// Spec carries inline DSL source (empty for builtin targets; builtin
	// spec text is resolved by name on the peer).
	Spec string `json:"spec,omitempty"`
	// TimeoutMS bounds the synthesis the fill may trigger on the peer.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// CacheOnly asks the peer to answer only from its in-memory cache
	// (404 on a miss): a probe that can never trigger a synthesis.
	CacheOnly bool `json:"cache_only,omitempty"`
	// RequestID is the originating request's ID, propagated into the
	// peer call's X-Request-Id header so one user request is traceable
	// across replicas. Not part of the JSON body.
	RequestID string `json:"-"`
	// TraceParent, when non-empty, is the serialized X-Iseld-Trace
	// context the peer call should carry (the fill span's own context) —
	// the peer's request span then parents under this fill in the
	// assembled fleet trace. Not part of the JSON body: trace context
	// travels in the header, like the request ID.
	TraceParent string `json:"-"`
}

// RemoteFiller fetches artifacts from elsewhere — the cluster layer's
// hook into the cache-miss path. FetchArtifact returns the peer's
// artifact and the base URL of the peer that answered. The artifact is
// re-verified locally before it is trusted, like a disk artifact. It
// returns ErrLocalFill when the caller should synthesize locally (it
// owns the key, or no peer can help); any other error also degrades to
// a local fill, but is counted as one.
type RemoteFiller interface {
	FetchArtifact(ctx context.Context, req FillRequest) (*ArtifactResponse, string, error)
}

// SetFiller attaches the remote-fill hook. Call it after New and before
// the handler serves traffic (the cluster layer needs the Server first
// to answer its peers' fills).
func (sv *Server) SetFiller(f RemoteFiller) { sv.filler = f }

// FingerprintRequest computes the full-cache fingerprint a request for
// (target|inline spec) resolves to — exported for callers that need a
// request's cache key or ring placement without serving it. There is
// one selection engine, so selector must be empty: the parameter stays
// only for callers that pass "", and any other value is an error.
func (sv *Server) FingerprintRequest(target, spec, selector string) (string, error) {
	if selector != "" {
		return "", fmt.Errorf("fingerprint: selector %q is not supported (pass \"\")", selector)
	}
	def, err := sv.resolveTarget(target, spec)
	if err != nil {
		return "", err
	}
	return def.fp, nil
}

// fillFromPeer attempts to satisfy a cache miss from a peer replica:
// fetch the serialized artifact, then re-verify every rule against a
// freshly materialized target (a peer is trusted no further than the
// disk layer is). ok=false on any failure — the caller then falls back
// to the local incremental/synthesis path. tc, when valid, is the synth
// flight's trace context: the fill span parents under it and its own
// context rides the peer call's X-Iseld-Trace header, so the owner's
// spans land in the same fleet trace.
func (sv *Server) fillFromPeer(def *targetDef, rid string, timeout time.Duration, tc obs.TraceContext) (*Entry, bool) {
	fp := def.fp
	if sv.filler == nil {
		return nil, false
	}
	t0 := time.Now()
	ctx := context.Background()
	cancel := context.CancelFunc(func() {})
	if timeout > 0 {
		// The fill budget is the synthesis budget: the owner may be
		// synthesizing on our behalf, so give it the same deadline a
		// local run would get.
		ctx, cancel = context.WithTimeout(ctx, timeout)
	}
	defer cancel()
	var sp *obs.Span
	if tr := sv.obsv.TracerOrNil(); tr != nil {
		if tc.Valid() {
			sp = tr.StartRemote("cluster fill", tc)
		} else {
			sp = tr.Start("cluster fill")
		}
	}
	sp.SetStr("fingerprint", fp).SetStr("request_id", rid)
	req := FillRequest{
		Fingerprint: fp,
		Target:      def.name,
		TimeoutMS:   int64(timeout / time.Millisecond),
		RequestID:   rid,
	}
	if def.inline {
		req.Spec = def.spec
	}
	if fc := sp.Context(); fc.Valid() {
		req.TraceParent = fc.Header()
	}
	art, peer, err := sv.filler.FetchArtifact(ctx, req)
	if err != nil {
		sp.SetStr("outcome", "local").End()
		return nil, false
	}
	b, tgt, err := sv.loadTarget(def, sp)
	if err != nil {
		sp.SetStr("outcome", "load-error").End()
		return nil, false
	}
	lib, err := isel.LoadLibrary(b, tgt, art.Library)
	if err != nil {
		// A peer artifact that does not verify is poison, exactly like a
		// stale disk artifact: ignore it and synthesize cleanly.
		sp.SetStr("outcome", "verify-error").End()
		return nil, false
	}
	lib.Freeze()
	sp.SetStr("outcome", "peer").SetStr("peer", peer).End()
	return &Entry{
		Fingerprint: fp,
		TargetName:  def.name,
		Target:      tgt,
		Lib:         lib,
		Partial:     art.Partial,
		Stats:       art.Stats,
		Elapsed:     time.Since(t0),
		Origin:      "peer",
		Reused:      art.Reused,
		Resynth:     art.Resynthesized,
	}, true
}

// ArtifactResponse answers POST /v1/artifact: the serialized library
// for a fingerprint, produced (or served from cache) by this replica on
// a peer's behalf. Stats, Reused, and Resynthesized carry the producing
// run's provenance so a peer-filled entry answers clients with exactly
// the metadata the owner's entry does — byte-identical responses from
// any replica.
type ArtifactResponse struct {
	Fingerprint   string          `json:"fingerprint"`
	Target        string          `json:"target"`
	Cache         string          `json:"cache"`
	Partial       bool            `json:"partial"`
	Rules         int             `json:"rules"`
	Stats         core.StageStats `json:"stats"`
	Reused        int             `json:"reused_rules,omitempty"`
	Resynthesized int             `json:"resynthesized_rules,omitempty"`
	Library       string          `json:"library"`
}

// handleArtifact is the peer-fill endpoint. A cache_only request
// answers exclusively from the in-memory layer (404 on a miss) and never
// starts work. A full request runs the whole local cache protocol
// (memory, disk, incremental, synthesis) with peer-filling disabled, so
// two replicas can never fill from each other in a cycle; cross-node
// singleflight falls out of the local store's flight, because every
// replica sends its fill for a fingerprint to the same ring owner.
func (sv *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	var req FillRequest
	if !sv.decode(w, r, maxBodyBytes, &req) {
		return
	}
	if req.CacheOnly {
		e := sv.store.Peek(req.Fingerprint)
		if e == nil {
			sv.fail(w, http.StatusNotFound, fmt.Errorf("artifact %s not cached here", req.Fingerprint))
			return
		}
		sv.serveArtifact(w, e, "hit")
		return
	}
	def, err := sv.resolveTarget(req.Target, req.Spec)
	if err != nil {
		sv.fail(w, http.StatusBadRequest, err)
		return
	}
	if req.Fingerprint != "" && req.Fingerprint != def.fp {
		// Config skew between replicas: refusing keeps a mismatched
		// artifact out of the requester's cache; it will fill locally.
		sv.fail(w, http.StatusConflict,
			fmt.Errorf("fingerprint mismatch: requester %s, here %s (replica config skew?)", req.Fingerprint, def.fp))
		return
	}
	e, cache, status, err := sv.entryFor(r.Context(), def, sv.timeout(req.TimeoutMS), false)
	if err != nil {
		sv.fail(w, status, err)
		return
	}
	sv.serveArtifact(w, e, cache)
}

// serveArtifact answers POST /v1/artifact with an entry's serialized
// library, acquired along the given cache path.
func (sv *Server) serveArtifact(w http.ResponseWriter, e *Entry, cache string) {
	sv.metrics.ArtifactServed.Add(1)
	writeJSON(w, http.StatusOK, ArtifactResponse{
		Fingerprint:   e.Fingerprint,
		Target:        e.TargetName,
		Cache:         cache,
		Partial:       e.Partial,
		Rules:         e.Lib.Len(),
		Stats:         e.Stats,
		Reused:        e.Reused,
		Resynthesized: e.Resynth,
		Library:       isel.SaveLibraryFor(e.Lib, e.Target),
	})
}
