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
	// Obs receives cluster metrics and spans; share it with the wrapped
	// service so /metrics exposes both.
	Obs *obs.Obs
	// Logger, when set, receives peer-failure and degradation events.
	Logger *slog.Logger
}

// fetchTimeout bounds one artifact fetch, synthesis at the owner
// included.
const fetchTimeout = 120 * time.Second

// A peer's circuit opens after breakerThreshold consecutive failures and
// admits a half-open probe after breakerCooldown.
const (
	breakerThreshold = 3
	breakerCooldown  = 5 * time.Second
)

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
	n := &Node{
		cfg: cfg,
		// NewRing drops duplicates, so Self may or may not be in Peers.
		ring: NewRing(append([]string{cfg.Self}, cfg.Peers...)),
		peer: map[string]*peerState{},
	}
	for _, m := range n.ring.Members() {
		if m == cfg.Self {
			continue
		}
		ps := &peerState{url: m, breaker: newBreaker(breakerThreshold, breakerCooldown)}
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

// Self returns this replica's base URL.
func (n *Node) Self() string { return n.cfg.Self }

// FetchArtifact implements service.RemoteFiller: fetch the artifact
// from the fingerprint's ring owner, behind the owner's breaker. The
// owner's local singleflight collapses every replica's concurrent fill,
// which is what keeps a cold key's synthesis at exactly one fleet-wide.
func (n *Node) FetchArtifact(ctx context.Context, req service.FillRequest) (*service.ArtifactResponse, string, error) {
	owner := n.peer[n.ring.Owner(req.Fingerprint)]
	if owner == nil {
		// We own the key (or there is no fleet): synthesize locally.
		return nil, "", service.ErrLocalFill
	}
	if !owner.breaker.Allow() {
		n.count("cluster_breaker_rejects", "peer calls rejected by an open circuit", "peer", owner.url)
		n.logf("peer circuit open, filling locally", "peer", owner.url, "fingerprint", req.Fingerprint)
		return nil, "", fmt.Errorf("cluster: circuit open for owner %s", owner.url)
	}
	ctx, cancel := context.WithTimeout(ctx, fetchTimeout)
	defer cancel()
	n.count("cluster_fills_remote", "artifact fills requested from remote owners")
	art, err := n.fetchFrom(ctx, owner, req)
	return art, owner.url, err
}

// fetchFrom performs one POST /v1/artifact exchange with a peer,
// recording the outcome on its breaker.
func (n *Node) fetchFrom(ctx context.Context, ps *peerState, req service.FillRequest) (*service.ArtifactResponse, error) {
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
		// The fill span's context: the owner's request span lands in the
		// same fleet trace.
		hr.Header.Set(obs.TraceHeader, req.TraceParent)
	}
	resp, err := http.DefaultClient.Do(hr)
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
		return &art, nil
	case resp.StatusCode >= 500:
		n.peerFailed(ps)
		return nil, fmt.Errorf("cluster: %s answered %d", ps.url, resp.StatusCode)
	default:
		// 4xx: the peer is healthy but cannot help (a config-skew
		// conflict). Not a breaker event.
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
	resp, err := http.DefaultClient.Do(hr)
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
	st := ClusterStatus{Self: n.cfg.Self, VNodes: vnodes}
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
