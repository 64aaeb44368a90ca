package obstest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"

	"iselgen/internal/obs"
)

// ValidateTraceSpans checks the structural invariants a merged fleet
// trace must satisfy: non-empty, one trace ID throughout, unique span
// IDs, exactly one root (a span whose parent is 0 or absent from the
// set — absent covers a client-minted root context), and every other
// span reachable from the root (no orphans, no cycles).
func ValidateTraceSpans(spans []obs.TraceSpan) error {
	if len(spans) == 0 {
		return fmt.Errorf("obstest: empty trace")
	}
	tid := spans[0].TraceID
	byID := map[uint64]*obs.TraceSpan{}
	for i := range spans {
		s := &spans[i]
		if s.TraceID != tid {
			return fmt.Errorf("obstest: mixed trace IDs %s and %s", tid, s.TraceID)
		}
		if s.SpanID == 0 {
			return fmt.Errorf("obstest: span %q has zero ID", s.Name)
		}
		if byID[s.SpanID] != nil {
			return fmt.Errorf("obstest: duplicate span ID %016x (%q and %q)", s.SpanID, byID[s.SpanID].Name, s.Name)
		}
		byID[s.SpanID] = s
	}
	var root *obs.TraceSpan
	for i := range spans {
		s := &spans[i]
		if s.Parent == 0 || byID[s.Parent] == nil {
			if root != nil {
				return fmt.Errorf("obstest: multiple roots: %q on %s and %q on %s",
					root.Name, root.Node, s.Name, s.Node)
			}
			root = s
		}
	}
	if root == nil {
		return fmt.Errorf("obstest: no root span (parent cycle)")
	}
	children := map[uint64][]uint64{}
	for i := range spans {
		if s := &spans[i]; s != root {
			children[s.Parent] = append(children[s.Parent], s.SpanID)
		}
	}
	reached := map[uint64]bool{root.SpanID: true}
	queue := []uint64{root.SpanID}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		for _, c := range children[id] {
			if !reached[c] {
				reached[c] = true
				queue = append(queue, c)
			}
		}
	}
	if len(reached) != len(spans) {
		for i := range spans {
			if !reached[spans[i].SpanID] {
				return fmt.Errorf("obstest: orphan span %q on %s (parent %016x unreachable from root)",
					spans[i].Name, spans[i].Node, spans[i].Parent)
			}
		}
	}
	return nil
}

// ParsedTrace summarizes a strictly parsed assembled trace file.
type ParsedTrace struct {
	Spans int // "X" span events
	Nodes int // distinct pids among span events
	Roots int // spans with no in-file parent
}

// ParseTraceFile is the strict validator for assembled fleet traces
// (the service and cluster trace tests run fetched traces through it):
// well-formed Chrome JSON object format, known event phases, every
// span event carrying a span_id, no duplicate span IDs, span-link
// integrity (every parent resolves in-file, except the single root's),
// and non-negative timestamps/durations.
func ParseTraceFile(data []byte) (*ParsedTrace, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	// UseNumber keeps span/parent IDs in Args as decimal strings:
	// decoding them to float64 would round IDs above 2^53, letting
	// distinct IDs collide into spurious duplicate-span failures.
	dec.UseNumber()
	var f obs.TraceFile
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("obstest: trace file: %w", err)
	}
	if f.DisplayTimeUnit != "ms" {
		return nil, fmt.Errorf("obstest: displayTimeUnit %q, want \"ms\"", f.DisplayTimeUnit)
	}
	argID := func(args map[string]any, key string) (uint64, bool) {
		v, ok := args[key]
		if !ok {
			return 0, false
		}
		switch n := v.(type) {
		case float64:
			return uint64(n), true
		case json.Number:
			u, err := strconv.ParseUint(n.String(), 10, 64)
			if err != nil {
				return 0, false
			}
			return u, true
		}
		return 0, false
	}
	pt := &ParsedTrace{}
	ids := map[uint64]bool{}
	parents := map[uint64]uint64{}
	pids := map[int64]bool{}
	for i, ev := range f.TraceEvents {
		switch ev.Ph {
		case "M":
			continue
		case "X":
		default:
			return nil, fmt.Errorf("obstest: event %d: phase %q (want X or M)", i, ev.Ph)
		}
		if ev.Name == "" {
			return nil, fmt.Errorf("obstest: event %d: empty name", i)
		}
		if ev.Ts < 0 || ev.Dur < 0 {
			return nil, fmt.Errorf("obstest: event %d (%s): negative ts/dur", i, ev.Name)
		}
		if ev.Pid < 1 {
			return nil, fmt.Errorf("obstest: event %d (%s): pid %d", i, ev.Name, ev.Pid)
		}
		id, ok := argID(ev.Args, "span_id")
		if !ok || id == 0 {
			return nil, fmt.Errorf("obstest: event %d (%s): missing span_id arg", i, ev.Name)
		}
		if ids[id] {
			return nil, fmt.Errorf("obstest: duplicate span ID %016x", id)
		}
		ids[id] = true
		if p, ok := argID(ev.Args, "parent"); ok && p != 0 {
			parents[id] = p
		}
		pids[ev.Pid] = true
		pt.Spans++
	}
	if pt.Spans == 0 {
		return nil, fmt.Errorf("obstest: trace file has no span events")
	}
	for id := range ids {
		if p, ok := parents[id]; !ok || !ids[p] {
			pt.Roots++
		}
	}
	if pt.Roots != 1 {
		return nil, fmt.Errorf("obstest: %d root spans, want exactly 1", pt.Roots)
	}
	pt.Nodes = len(pids)
	return pt, nil
}
