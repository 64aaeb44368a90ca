package cluster

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"iselgen/internal/obs"
	"iselgen/internal/service"
)

// ReplicaFactory builds one replica's service (and the observability
// sink shared between the service and its cluster layer). Each replica
// must get its own Server and its own Obs — sharing either would let
// one replica answer from another's memory and defeat the point of an
// in-process cluster.
type ReplicaFactory func(i int) (*service.Server, *obs.Obs, error)

// Replica is one running member of a Local cluster.
type Replica struct {
	URL  string
	SV   *service.Server
	Node *Node

	hs     *http.Server
	killed bool
}

// Local is an in-process cluster: n full iseld replicas on loopback
// ports, cross-wired through real HTTP. The cluster tests use it — it
// exercises the exact serialization, peer-fill, and degradation paths a
// deployed fleet does, minus only the real network.
type Local struct {
	replicas []*Replica
}

// StartLocal boots n replicas. Listeners are bound first so every
// replica's ring can be built over the full set of final URLs; tmpl
// supplies the cluster knobs (HedgeDelay, breaker settings) while
// Self, Peers, and Obs are filled in per replica.
func StartLocal(n int, mk ReplicaFactory, tmpl Config) (*Local, error) {
	if n < 1 {
		return nil, fmt.Errorf("cluster: need at least 1 replica, got %d", n)
	}
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for j := 0; j < i; j++ {
				lns[j].Close()
			}
			return nil, fmt.Errorf("cluster: listen replica %d: %w", i, err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	lc := &Local{}
	fail := func(err error) (*Local, error) {
		lc.Close()
		for i, ln := range lns {
			if i >= len(lc.replicas) {
				ln.Close()
			}
		}
		return nil, err
	}
	for i := 0; i < n; i++ {
		sv, ob, err := mk(i)
		if err != nil {
			return fail(fmt.Errorf("cluster: build replica %d: %w", i, err))
		}
		cfg := tmpl
		cfg.Self = urls[i]
		cfg.Peers = urls
		cfg.Obs = ob
		node, err := New(sv, cfg)
		if err != nil {
			sv.Close()
			return fail(fmt.Errorf("cluster: replica %d: %w", i, err))
		}
		rep := &Replica{
			URL:  urls[i],
			SV:   sv,
			Node: node,
			hs:   &http.Server{Handler: sv.Handler()},
		}
		lc.replicas = append(lc.replicas, rep)
		go rep.hs.Serve(lns[i])
	}
	return lc, nil
}

// Replica returns replica i.
func (lc *Local) Replica(i int) *Replica { return lc.replicas[i] }

// Len returns the replica count.
func (lc *Local) Len() int { return len(lc.replicas) }

// Kill abruptly stops replica i: its listener and connections close,
// so peers see connection errors — the unreachable-peer case, not a
// graceful drain.
func (lc *Local) Kill(i int) {
	r := lc.replicas[i]
	if r.killed {
		return
	}
	r.killed = true
	r.hs.Close()
	r.SV.Close()
}

// Close shuts every live replica down gracefully.
func (lc *Local) Close() {
	for _, r := range lc.replicas {
		if r.killed {
			continue
		}
		r.killed = true
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		r.hs.Shutdown(ctx)
		r.SV.Shutdown(ctx)
		r.SV.Close()
		cancel()
	}
}
