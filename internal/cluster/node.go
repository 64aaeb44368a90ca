package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"time"

	"iselgen/internal/obs"
	"iselgen/internal/service"
)

// Config configures a cluster node. Every replica serves every request
// locally; on a library cache miss it fetches the artifact from the
// fingerprint's ring owner and verifies it into its own cache, so only
// the expensive synthesis is deduplicated fleet-wide.
type Config struct {
	// Self is this replica's base URL as it appears in Peers.
	Self string
	// Peers are the base URLs of every replica, self included.
	Peers []string
	// VNodes is the virtual-node count per member (0 = default 64).
	VNodes int
	// HedgeDelay is how long the primary artifact fetch runs alone
	// before a cache-only probe is hedged to the next replica in ring
	// order (0 = default 150ms; negative disables hedging).
	HedgeDelay time.Duration
	// FetchTimeout bounds one artifact fetch attempt, synthesis at the
	// owner included (0 = default 120s).
	FetchTimeout time.Duration
	// BreakerThreshold is the consecutive-failure count that opens a
	// peer's circuit (0 = default 3).
	BreakerThreshold int
	// BreakerCooldown is how long an open circuit rejects before
	// admitting a half-open probe (0 = default 5s).
	BreakerCooldown time.Duration
	// Obs receives cluster metrics and spans; share it with the wrapped
	// service so /metrics exposes both.
	Obs *obs.Obs
	// Logger, when set, receives peer-failure and degradation events.
	Logger *slog.Logger
	// Client is the HTTP client for peer calls (nil = a default client;
	// timeouts come from per-request contexts).
	Client *http.Client
}

// Node is one replica's cluster layer: the ring and the peer set with
// breakers. It implements service.RemoteFiller, and serves
// GET /v1/cluster from the local service's mux.
type Node struct {
	cfg  Config
	ring *Ring
	peer map[string]*peerState
}

// peerState is one remote replica as seen from this node.
type peerState struct {
	url     string
	breaker *breaker
}

// New builds the cluster layer around a local service, attaches it as
// the service's remote filler and trace collector, and mounts
// GET /v1/cluster on the service's routes. Serve sv.Handler().
func New(sv *service.Server, cfg Config) (*Node, error) {
	if cfg.Self == "" {
		return nil, errors.New("cluster: config needs Self")
	}
	if cfg.HedgeDelay == 0 {
		cfg.HedgeDelay = 150 * time.Millisecond
	}
	if cfg.FetchTimeout <= 0 {
		cfg.FetchTimeout = 120 * time.Second
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{}
	}
	members := append([]string(nil), cfg.Peers...)
	selfListed := false
	for _, m := range members {
		if m == cfg.Self {
			selfListed = true
		}
	}
	if !selfListed {
		members = append(members, cfg.Self)
	}
	n := &Node{
		cfg:  cfg,
		ring: NewRing(members, cfg.VNodes),
		peer: map[string]*peerState{},
	}
	for _, m := range n.ring.Members() {
		if m == cfg.Self {
			continue
		}
		ps := &peerState{url: m, breaker: newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown)}
		n.peer[m] = ps
		if reg := cfg.Obs.MetricsOrNil(); reg != nil {
			b := ps.breaker
			reg.GaugeFunc("cluster_breaker_state",
				"peer circuit state (0 closed, 1 half-open, 2 open)",
				func() int64 { return int64(b.State()) }, "peer", m)
		}
	}
	sv.SetFiller(n)
	sv.SetTraceCollector(n)
	sv.HandleFunc("GET /v1/cluster", n.handleStatus)
	return n, nil
}

// count bumps a cluster counter if a registry is attached.
func (n *Node) count(name, help string, labels ...string) {
	if reg := n.cfg.Obs.MetricsOrNil(); reg != nil {
		reg.Counter(name, help, labels...).Add(1)
	}
}

// peerFailed records a failed exchange with a peer: a transport error,
// a 5xx, or a 200 whose body does not decode to what was asked for.
func (n *Node) peerFailed(ps *peerState) {
	ps.breaker.Failure()
	n.count("cluster_peer_errors", "failed peer exchanges", "peer", ps.url)
}

// OwnerOf returns the replica URL owning a fingerprint.
func (n *Node) OwnerOf(fp string) string { return n.ring.Owner(fp) }

// Self returns this replica's base URL.
func (n *Node) Self() string { return n.cfg.Self }

// fetchResult is one peer fetch outcome on the hedge race.
type fetchResult struct {
	fill *service.RemoteFill
	err  error
	peer string
}

// FetchArtifact implements service.RemoteFiller: resolve the
// fingerprint's ring owner, fetch the artifact from it, and hedge a
// cache-only probe to the next replica if the owner is slow. Only the
// owner's fetch may trigger synthesis — the hedge can answer from its
// cache but never start work, which is what keeps a cold key's
// synthesis at exactly one fleet-wide.
func (n *Node) FetchArtifact(ctx context.Context, req service.FillRequest) (*service.RemoteFill, error) {
	owners := n.ring.Owners(req.Fingerprint, 2)
	if len(owners) == 0 || owners[0] == n.cfg.Self {
		// We own the key (or there is no fleet): synthesize locally.
		return nil, service.ErrLocalFill
	}
	primary := n.peer[owners[0]]
	if primary == nil {
		return nil, service.ErrLocalFill
	}
	if !primary.breaker.Allow() {
		n.count("cluster_breaker_rejects", "peer calls rejected by an open circuit", "peer", primary.url)
		n.logf("peer circuit open, filling locally", "peer", primary.url, "fingerprint", req.Fingerprint)
		return nil, fmt.Errorf("cluster: circuit open for owner %s", primary.url)
	}

	ctx, cancel := context.WithTimeout(ctx, n.cfg.FetchTimeout)
	defer cancel()
	results := make(chan fetchResult, 2)
	n.count("cluster_fills_remote", "artifact fills requested from remote owners")
	go func() {
		fill, err := n.fetchFrom(ctx, primary, req, false)
		results <- fetchResult{fill, err, primary.url}
	}()

	// Hedge: after the delay, probe the next distinct replica's cache.
	// A miss there is a clean "no", never a second synthesis.
	var hedgeTimer *time.Timer
	inflight := 1
	if n.cfg.HedgeDelay > 0 && len(owners) > 1 && owners[1] != n.cfg.Self {
		if hedge := n.peer[owners[1]]; hedge != nil {
			hedgeTimer = time.AfterFunc(n.cfg.HedgeDelay, func() {
				if !hedge.breaker.Allow() {
					results <- fetchResult{nil, fmt.Errorf("cluster: circuit open for hedge %s", hedge.url), hedge.url}
					return
				}
				n.count("cluster_hedges", "hedged cache-only probes issued")
				hreq := req
				hreq.CacheOnly = true
				fill, err := n.fetchFrom(ctx, hedge, hreq, true)
				results <- fetchResult{fill, err, hedge.url}
			})
			inflight = 2
		}
	}
	defer func() {
		if hedgeTimer != nil && hedgeTimer.Stop() {
			inflight-- // the probe never launched; don't wait for it
		}
	}()

	var firstErr error
	for i := 0; i < inflight; i++ {
		select {
		case res := <-results:
			if res.err == nil {
				if res.peer != primary.url {
					n.count("cluster_hedge_wins", "hedged probes that answered first")
				}
				return res.fill, nil
			}
			if firstErr == nil {
				firstErr = res.err
			}
			if hedgeTimer != nil && res.peer == primary.url && hedgeTimer.Stop() {
				inflight-- // primary already failed; no point launching the probe late
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return nil, firstErr
}

// fetchFrom performs one POST /v1/artifact exchange with a peer,
// recording the outcome on its breaker. cacheOnly misses (404) are a
// healthy "not cached", not a peer failure.
func (n *Node) fetchFrom(ctx context.Context, ps *peerState, req service.FillRequest, cacheOnly bool) (*service.RemoteFill, error) {
	req.CacheOnly = cacheOnly
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, ps.url+"/v1/artifact", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hr.Header.Set("Content-Type", "application/json")
	if req.RequestID != "" {
		hr.Header.Set("X-Request-Id", req.RequestID)
	}
	if req.TraceParent != "" {
		// Both legs of the hedge carry the fill span's context: whichever
		// peer answers, its request span lands in the same fleet trace.
		hr.Header.Set(obs.TraceHeader, req.TraceParent)
	}
	resp, err := n.cfg.Client.Do(hr)
	if err != nil {
		n.peerFailed(ps)
		n.logf("peer fetch failed", "peer", ps.url, "err", err.Error())
		return nil, fmt.Errorf("cluster: fetch from %s: %w", ps.url, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(io.LimitReader(resp.Body, maxArtifactBytes))
	if err != nil {
		n.peerFailed(ps)
		return nil, fmt.Errorf("cluster: fetch from %s: %w", ps.url, err)
	}
	switch {
	case resp.StatusCode == http.StatusOK:
		// A 200 counts as healthy only once its body is the artifact that
		// was asked for; garbage or a wrong fingerprint is a peer failure.
		var art service.ArtifactResponse
		if err := json.Unmarshal(out, &art); err != nil {
			n.peerFailed(ps)
			return nil, fmt.Errorf("cluster: bad artifact from %s: %w", ps.url, err)
		}
		if art.Fingerprint != req.Fingerprint {
			n.peerFailed(ps)
			return nil, fmt.Errorf("cluster: %s answered fingerprint %s for %s", ps.url, art.Fingerprint, req.Fingerprint)
		}
		ps.breaker.Success()
		n.count("cluster_peer_hits", "cache misses answered by a peer artifact")
		return &service.RemoteFill{
			Text:          art.Library,
			Partial:       art.Partial,
			Stats:         art.Stats,
			Reused:        art.Reused,
			Resynthesized: art.Resynthesized,
			Peer:          ps.url,
		}, nil
	case resp.StatusCode >= 500:
		n.peerFailed(ps)
		return nil, fmt.Errorf("cluster: %s answered %d", ps.url, resp.StatusCode)
	default:
		// 4xx: the peer is healthy but cannot help (cache-only miss,
		// config-skew conflict). Not a breaker event.
		ps.breaker.Success()
		return nil, fmt.Errorf("cluster: %s answered %d: %s", ps.url, resp.StatusCode, bytes.TrimSpace(out))
	}
}

// maxArtifactBytes bounds an artifact response read from a peer.
const maxArtifactBytes = 64 << 20

// traceCollectTimeout bounds one peer span-ring read: a bounded-ring
// export plus JSON, so anything slower is a peer problem and trace
// assembly proceeds with whatever the healthy replicas returned.
const traceCollectTimeout = 2 * time.Second

// maxTraceBytes bounds a trace-spans response read from a peer.
const maxTraceBytes = 8 << 20

// CollectTraceSpans implements service.TraceCollector: ask every peer
// for its locally recorded spans of one trace. Each query carries the
// forwarded marker, so peers answer strictly from their own span rings
// (cache-only, loop-free) and a missing or broken peer just contributes
// nothing — assembly is best-effort by design, exactly like the
// degradation story everywhere else in this layer.
func (n *Node) CollectTraceSpans(ctx context.Context, traceID string) []obs.TraceSpan {
	var out []obs.TraceSpan
	ctx, cancel := context.WithTimeout(ctx, traceCollectTimeout)
	defer cancel()
	type peerSpans struct {
		spans []obs.TraceSpan
		err   error
		peer  string
	}
	results := make(chan peerSpans, len(n.peer))
	queried := 0
	for _, ps := range n.peer {
		if !ps.breaker.Allow() {
			continue
		}
		queried++
		go func(ps *peerState) {
			spans, err := n.collectFrom(ctx, ps, traceID)
			results <- peerSpans{spans, err, ps.url}
		}(ps)
	}
	n.count("cluster_trace_collects", "fleet trace-assembly fan-outs")
	for i := 0; i < queried; i++ {
		select {
		case res := <-results:
			if res.err != nil {
				n.logf("trace collect failed", "peer", res.peer, "err", res.err.Error())
				continue
			}
			out = append(out, res.spans...)
		case <-ctx.Done():
			return out
		}
	}
	return out
}

// collectFrom performs one GET /v1/trace/{id} exchange with a peer,
// recording the outcome on its breaker. An empty span set is a healthy
// "nothing recorded here", not a peer failure.
func (n *Node) collectFrom(ctx context.Context, ps *peerState, traceID string) ([]obs.TraceSpan, error) {
	hr, err := http.NewRequestWithContext(ctx, http.MethodGet, ps.url+"/v1/trace/"+traceID, nil)
	if err != nil {
		return nil, err
	}
	hr.Header.Set(service.ForwardedHeader, n.cfg.Self)
	resp, err := n.cfg.Client.Do(hr)
	if err != nil {
		n.peerFailed(ps)
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(io.LimitReader(resp.Body, maxTraceBytes))
	if err != nil {
		n.peerFailed(ps)
		return nil, err
	}
	switch {
	case resp.StatusCode == http.StatusOK:
		var tr service.TraceSpansResponse
		if err := json.Unmarshal(out, &tr); err != nil {
			n.peerFailed(ps)
			return nil, fmt.Errorf("cluster: bad trace spans from %s: %w", ps.url, err)
		}
		ps.breaker.Success()
		return tr.Spans, nil
	case resp.StatusCode >= 500:
		n.peerFailed(ps)
		return nil, fmt.Errorf("cluster: %s answered %d", ps.url, resp.StatusCode)
	default:
		// 4xx: the peer is healthy but has no tracer (or no such trace).
		ps.breaker.Success()
		return nil, nil
	}
}

func (n *Node) logf(msg string, args ...any) {
	if n.cfg.Logger != nil {
		n.cfg.Logger.Info(msg, args...)
	}
}

// ClusterStatus is the JSON shape of GET /v1/cluster.
type ClusterStatus struct {
	Self   string       `json:"self"`
	VNodes int          `json:"vnodes"`
	Peers  []PeerStatus `json:"peers"`
}

// PeerStatus is one replica's health as seen from this node.
type PeerStatus struct {
	URL          string `json:"url"`
	Self         bool   `json:"self,omitempty"`
	BreakerState int    `json:"breaker_state"`
	Failures     int    `json:"failures,omitempty"`
}

func (n *Node) handleStatus(w http.ResponseWriter, r *http.Request) {
	st := ClusterStatus{Self: n.cfg.Self, VNodes: n.ring.vnodes}
	for _, m := range n.ring.Members() {
		ps := PeerStatus{URL: m, Self: m == n.cfg.Self}
		if p := n.peer[m]; p != nil {
			ps.BreakerState = p.breaker.State()
			ps.Failures = p.breaker.Failures()
		}
		st.Peers = append(st.Peers, ps)
	}
	sort.Slice(st.Peers, func(i, j int) bool { return st.Peers[i].URL < st.Peers[j].URL })
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(st)
}
