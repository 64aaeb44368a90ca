package service

import (
	"context"
	"fmt"
	"net/http"

	"iselgen/internal/obs"
)

// ForwardedHeader marks a peer-originated request: a trace-span read
// carrying it is answered strictly from the local ring.
const ForwardedHeader = "X-Iseld-Forwarded"

// TraceCollector gathers one trace's spans from ring peers — the
// cluster layer's hook into fleet trace assembly. Implementations must
// be cache-only end to end (peers answer from their span rings, never
// create work) and loop-guarded: the peer request carries
// ForwardedHeader, so a queried peer answers strictly locally and two
// replicas can never chase a trace around the ring. Self names this
// replica in assembled traces.
type TraceCollector interface {
	CollectTraceSpans(ctx context.Context, traceID string) []obs.TraceSpan
	Self() string
}

// SetTraceCollector attaches the cluster's trace-collection hook. Call
// it after New and before the handler serves traffic, like SetFiller.
func (sv *Server) SetTraceCollector(c TraceCollector) { sv.collector = c }

// nodeName is how this replica labels its spans in fleet traces.
func (sv *Server) nodeName() string {
	if sv.collector != nil {
		return sv.collector.Self()
	}
	return "local"
}

// TraceSpansResponse answers GET /v1/trace/{traceId}?format=spans and
// the loop-guarded peer form: the raw merged (or, for peers, local)
// span set before Chrome assembly.
type TraceSpansResponse struct {
	TraceID string          `json:"trace_id"`
	Node    string          `json:"node"`
	Spans   []obs.TraceSpan `json:"spans"`
}

// handleTraceByID assembles one trace fleet-wide: this replica's span
// ring plus — unless the request already crossed the fleet — every ring
// peer's, merged with clock-offset normalization into a single
// Chrome/Perfetto trace. Peer queries are cache-only reads of bounded
// rings; a request carrying ForwardedHeader is answered strictly from
// the local ring (200 with possibly-empty spans, so the collecting
// replica can merge without treating "no spans here" as failure).
func (sv *Server) handleTraceByID(w http.ResponseWriter, r *http.Request) {
	tr := sv.obsv.TracerOrNil()
	if tr == nil {
		sv.fail(w, http.StatusNotFound, errNoTracer)
		return
	}
	tid, err := obs.ParseTraceID(r.PathValue("traceId"))
	if err != nil {
		sv.fail(w, http.StatusBadRequest, err)
		return
	}
	node := sv.nodeName()
	spans := tr.ExportTraceSpans(tid, node)
	if r.Header.Get(ForwardedHeader) != "" {
		writeJSON(w, http.StatusOK, TraceSpansResponse{TraceID: tid.String(), Node: node, Spans: spans})
		return
	}
	if sv.collector != nil {
		spans = append(spans, sv.collector.CollectTraceSpans(r.Context(), tid.String())...)
	}
	if len(spans) == 0 {
		sv.fail(w, http.StatusNotFound,
			fmt.Errorf("no spans recorded for trace %s (sampled? aged out of the rings?)", tid))
		return
	}
	if r.URL.Query().Get("format") == "spans" {
		writeJSON(w, http.StatusOK, TraceSpansResponse{TraceID: tid.String(), Node: node, Spans: spans})
		return
	}
	f, _ := obs.AssembleTrace(spans)
	writeJSON(w, http.StatusOK, f)
}
