// Command iseld is the selection-as-a-service daemon: it synthesizes
// rule libraries on demand (once per spec + config fingerprint), caches
// them in memory and on disk, and serves selection and metrics over
// HTTP/JSON. Its service owns the SMT verdict memo; with -cache-dir the
// memo persists to <cache-dir>/solver.journal, so a restart stays warm.
//
// Endpoints:
//
//	POST /v1/synthesize   synthesize (or fetch) a library for a builtin
//	                      target or an inline DSL spec
//	POST /v1/select       lower a benchmark gMIR program (or an inline
//	                      "program") with a target's synthesized backend
//	                      and the greedy largest-pattern-first matcher,
//	                      then simulate it; the answer reports the static
//	                      cost and simulated cycles from the spec's
//	                      per-instruction metadata
//	POST /v1/select/batch lower many inline programs in one request
//	                      against one library acquisition
//	POST /v1/artifact     serve (or produce) a serialized library for a
//	                      peer replica's cache fill
//	GET  /v1/solver/query look up one memoized SMT verdict in this
//	                      replica's memo by its content-addressed key
//	                      (?key=...); misses answer 404 — the endpoint
//	                      never solves and never asks a peer
//	GET  /v1/rules/{fingerprint}/why
//	                      a rule's provenance joined with the memoized
//	                      solver queries its synthesis ran
//	GET  /v1/cluster      ring membership and per-peer breaker state
//	                      (clustered mode only)
//	GET  /v1/metrics      cache/queue counters, per-stage timings, build
//	                      info, and uptime (JSON)
//	GET  /metrics         the same counters plus latency histograms in
//	                      Prometheus text format (strict 0.0.4;
//	                      ?exemplars=1 adds OpenMetrics-style trace
//	                      exemplar annotations)
//	GET  /v1/trace        recent pipeline spans as Chrome trace-event
//	                      JSON (open in chrome://tracing or Perfetto)
//	GET  /v1/trace/{traceId}
//	                      one distributed trace assembled fleet-wide:
//	                      every replica's spans for the trace ID, merged
//	                      with clock-offset normalization into a single
//	                      Chrome trace (?format=spans for the raw span
//	                      set); trace IDs come from the X-Iseld-Trace
//	                      response header, access-log lines, and the
//	                      latency-histogram exemplars on
//	                      /metrics?exemplars=1
//	GET  /debug/pprof/    Go runtime profiles
//	GET  /healthz         liveness
//
// Every response carries an X-Request-Id header that also appears in
// the structured access log on stderr.
//
// Usage: iseld [-addr :8791] [-cache-dir DIR] [-cache-entries N]
//
//	[-workers N] [-synth-workers N] [-queue N] [-patterns N] [-timeout D]
//	[-inputs N] [-trace-spans N] [-trace-sample F] [-no-obs]
//	[-peers URL,URL,...] [-self URL] [-drain-timeout D]
//
// With -peers set, replicas form a consistent-hash ring over cache
// fingerprints: a miss is filled from its ring owner over HTTP (so a
// cold key is synthesized once fleet-wide), per-peer circuit breakers
// isolate dead replicas, and everything degrades to local-only service
// when the fleet is unreachable. Peers exchange only
// persisted library artifacts and trace spans. A spec edit is
// resynthesized from its lineage's cached revision, and replaces it in
// the cache. On SIGTERM the daemon stops accepting, drains in-flight
// work under -drain-timeout, and flushes the disk cache before exiting.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"iselgen/internal/cluster"
	"iselgen/internal/core"
	"iselgen/internal/obs"
	"iselgen/internal/service"
)

func main() {
	addr := flag.String("addr", ":8791", "listen address")
	cacheDir := flag.String("cache-dir", "", "disk cache directory: one <lineage>.rules artifact per lineage, plus the solver journal (empty = memory only)")
	cacheEntries := flag.Int("cache-entries", 0, "LRU cap on in-memory cached libraries, one revision per lineage (0 = unbounded)")
	workers := flag.Int("workers", 2, "synthesis jobs running at once")
	synthWorkers := flag.Int("synth-workers", 0, "matcher threads per synthesis job (0 = NumCPU)")
	queue := flag.Int("queue", 8, "waiting-job queue depth (full queue answers 429)")
	patterns := flag.Int("patterns", 0, "limit corpus patterns per synthesis (0 = all)")
	timeout := flag.Duration("timeout", 0, "default per-job synthesis deadline (0 = none)")
	inputs := flag.Int("inputs", 0, "test inputs per sequence (0 = default)")
	traceSpans := flag.Int("trace-spans", 0, "span ring capacity for /v1/trace (0 = default)")
	traceSample := flag.Float64("trace-sample", 0, "fraction of requests starting a distributed trace (0 = all, <0 = none; valid incoming X-Iseld-Trace contexts are always honored)")
	noObs := flag.Bool("no-obs", false, "disable tracing, histograms, and SMT query provenance")
	peers := flag.String("peers", "", "comma-separated base URLs of every replica, self included (empty = standalone)")
	self := flag.String("self", "", "this replica's base URL as it appears in -peers")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown budget: drain in-flight work and flush the disk cache")
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	var o *obs.Obs
	if !*noObs {
		o = obs.New()
		if *traceSpans > 0 {
			o.Trace = obs.NewTracer(*traceSpans)
		}
	}

	cfg := core.DefaultConfig()
	cfg.Workers = core.ResolveWorkers(*synthWorkers)
	if *inputs > 0 {
		cfg.TestInputs = *inputs
	}

	sv, err := service.New(service.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		CacheDir:       *cacheDir,
		CacheEntries:   *cacheEntries,
		Synth:          cfg,
		MaxPatterns:    *patterns,
		DefaultTimeout: *timeout,
		Obs:            o,
		TraceSample:    *traceSample,
		Logger:         logger,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "iseld:", err)
		os.Exit(1)
	}

	// With peers configured, attach the cluster layer: the ring routes
	// cache-fill ownership, and the service gains GET /v1/cluster.
	if *peers != "" {
		var peerList []string
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peerList = append(peerList, strings.TrimRight(p, "/"))
			}
		}
		if *self == "" {
			fmt.Fprintln(os.Stderr, "iseld: -peers requires -self (this replica's URL in the peer list)")
			os.Exit(1)
		}
		if _, err := cluster.New(sv, cluster.Config{
			Self:   strings.TrimRight(*self, "/"),
			Peers:  peerList,
			Obs:    o,
			Logger: logger,
		}); err != nil {
			fmt.Fprintln(os.Stderr, "iseld:", err)
			os.Exit(1)
		}
		logger.Info("iseld clustered",
			"self", *self, "peers", len(peerList))
	}

	hs := &http.Server{Addr: *addr, Handler: sv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	logger.Info("iseld listening",
		"addr", *addr, "workers", *workers, "queue", *queue,
		"cache_dir", *cacheDir, "observability", !*noObs)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		logger.Info("iseld shutting down", "signal", sig.String())
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "iseld:", err)
		os.Exit(1)
	}

	// Graceful drain under one budget: stop accepting connections, let
	// in-flight requests and the synthesis flights they started finish,
	// then flush the disk-cache persist queue — so a SIGTERM'd replica
	// leaves nothing half-answered and nothing uncached.
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		logger.Error("iseld shutdown", "err", err)
	}
	if err := sv.Shutdown(ctx); err != nil {
		logger.Error("iseld drain", "err", err)
	}
	sv.Close()
	logger.Info("iseld stopped")
}
