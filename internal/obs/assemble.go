package obs

import "sort"

// SpanAttr is one span attribute in the cross-node wire form (the JSON
// twin of Attr).
type SpanAttr struct {
	Key   string `json:"key"`
	Str   string `json:"str,omitempty"`
	Int   int64  `json:"int,omitempty"`
	IsInt bool   `json:"is_int,omitempty"`
}

// TraceSpan is one completed span in the form nodes exchange when
// assembling a fleet trace: identified by globally-unique span IDs,
// stamped with the node that recorded it, and timed in that node's
// absolute wall clock (normalized at merge time — see AssembleTrace).
type TraceSpan struct {
	TraceID     string     `json:"trace_id"`
	SpanID      uint64     `json:"span_id"`
	Parent      uint64     `json:"parent_id,omitempty"`
	Lane        uint64     `json:"lane,omitempty"`
	Name        string     `json:"name"`
	Node        string     `json:"node"`
	StartUnixNS int64      `json:"start_unix_ns"`
	DurNS       int64      `json:"dur_ns"`
	Attrs       []SpanAttr `json:"attrs,omitempty"`
}

// ExportTraceSpans returns every completed span in tid's trace, stamped
// with node and converted to absolute wall-clock nanoseconds. Nil-safe;
// returns nil when the trace left no spans in the ring.
func (t *Tracer) ExportTraceSpans(tid TraceID, node string) []TraceSpan {
	if t == nil || tid.IsZero() {
		return nil
	}
	var out []TraceSpan
	for _, r := range t.Snapshot() {
		if r.Trace != tid {
			continue
		}
		ts := TraceSpan{
			TraceID:     tid.String(),
			SpanID:      r.ID,
			Parent:      r.Parent,
			Lane:        r.Lane,
			Name:        r.Name,
			Node:        node,
			StartUnixNS: t.wall.Add(r.Start).UnixNano(),
			DurNS:       r.Dur.Nanoseconds(),
		}
		for _, a := range r.Attrs {
			ts.Attrs = append(ts.Attrs, SpanAttr(a))
		}
		out = append(out, ts)
	}
	return out
}

// AssembleReport summarizes what AssembleTrace merged.
type AssembleReport struct {
	TraceID string `json:"trace_id"`
	Spans   int    `json:"spans"`
	Nodes   int    `json:"nodes"`
	Roots   int    `json:"roots"`
	Orphans int    `json:"orphans"`
}

// AssembleTrace merges spans collected from the whole fleet into one
// Chrome/Perfetto trace file. Each node reports absolute wall-clock
// times from its own clock; the merge normalizes cross-node skew by
// shifting every node's spans so no child starts before the parent it
// hangs under (BFS outward from the root's node — the only causal
// ordering the spans themselves certify). Spans are deduplicated by ID;
// each node becomes one pid with a process_name metadata record.
func AssembleTrace(spans []TraceSpan) (*TraceFile, *AssembleReport) {
	rep := &AssembleReport{}
	byID := map[uint64]int{}
	var uniq []TraceSpan
	for _, s := range spans {
		if _, dup := byID[s.SpanID]; dup || s.SpanID == 0 {
			continue
		}
		byID[s.SpanID] = len(uniq)
		uniq = append(uniq, s)
	}
	rep.Spans = len(uniq)
	if len(uniq) == 0 {
		return &TraceFile{TraceEvents: []TraceEvent{}, DisplayTimeUnit: "ms"}, rep
	}
	rep.TraceID = uniq[0].TraceID

	// A root is a span whose parent is 0 or absent from the set.
	// Malformed input (multiple roots, orphans) is tolerated: assembly is
	// best-effort, with the defects counted in the report.
	rootIdx := -1
	for i := range uniq {
		if uniq[i].Parent == 0 || func() bool { _, ok := byID[uniq[i].Parent]; return !ok }() {
			rep.Roots++
			if rootIdx < 0 || uniq[i].StartUnixNS < uniq[rootIdx].StartUnixNS {
				rootIdx = i
			}
		}
	}
	if rootIdx < 0 {
		// Every span's parent resolves in-set: a parent cycle, which a
		// buggy or hostile peer can hand us. Anchor on the earliest-
		// starting span instead; Roots stays 0 in the report to flag the
		// defect.
		for i := range uniq {
			if rootIdx < 0 || uniq[i].StartUnixNS < uniq[rootIdx].StartUnixNS {
				rootIdx = i
			}
		}
	}

	// Per-node clock offsets: the root's node anchors at zero; every
	// other node is shifted so its first cross-node child never starts
	// before its parent.
	offset := map[string]int64{uniq[rootIdx].Node: 0}
	children := map[uint64][]int{}
	for i := range uniq {
		children[uniq[i].Parent] = append(children[uniq[i].Parent], i)
	}
	queue := []int{rootIdx}
	visited := map[int]bool{rootIdx: true}
	for len(queue) > 0 {
		pi := queue[0]
		queue = queue[1:]
		p := &uniq[pi]
		pStart := p.StartUnixNS + offset[p.Node]
		for _, ci := range children[p.SpanID] {
			if visited[ci] {
				continue
			}
			visited[ci] = true
			c := &uniq[ci]
			if _, seen := offset[c.Node]; !seen {
				off := int64(0)
				if c.StartUnixNS < pStart {
					off = pStart - c.StartUnixNS
				}
				offset[c.Node] = off
			}
			queue = append(queue, ci)
		}
	}
	rep.Orphans = len(uniq) - len(visited)

	// Stable pid assignment: the root's node is pid 1, the rest follow
	// in name order.
	var nodes []string
	seen := map[string]bool{}
	add := func(n string) {
		if !seen[n] {
			seen[n] = true
			nodes = append(nodes, n)
		}
	}
	add(uniq[rootIdx].Node)
	rest := make([]string, 0, len(uniq))
	for i := range uniq {
		rest = append(rest, uniq[i].Node)
	}
	sort.Strings(rest)
	for _, n := range rest {
		add(n)
	}
	rep.Nodes = len(nodes)
	pid := map[string]int64{}
	for i, n := range nodes {
		pid[n] = int64(i + 1)
	}

	base := int64(0)
	first := true
	for i := range uniq {
		t := uniq[i].StartUnixNS + offset[uniq[i].Node]
		if first || t < base {
			base, first = t, false
		}
	}

	f := &TraceFile{DisplayTimeUnit: "ms", OtherData: map[string]any{
		"trace_id": rep.TraceID, "nodes": len(nodes), "spans": rep.Spans,
	}}
	for _, n := range nodes {
		f.TraceEvents = append(f.TraceEvents, TraceEvent{
			Name: "process_name", Ph: "M", Pid: pid[n],
			Args: map[string]any{"name": n},
		})
	}
	evs := make([]TraceEvent, 0, len(uniq))
	for i := range uniq {
		s := &uniq[i]
		ev := TraceEvent{
			Name: s.Name,
			Ph:   "X",
			Ts:   float64(s.StartUnixNS+offset[s.Node]-base) / 1e3,
			Dur:  float64(s.DurNS) / 1e3,
			Pid:  pid[s.Node],
			Tid:  int64(s.Lane),
			Args: map[string]any{
				"span_id":  s.SpanID,
				"trace_id": s.TraceID,
				"node":     s.Node,
			},
		}
		if s.Parent != 0 {
			ev.Args["parent"] = s.Parent
		}
		for _, a := range s.Attrs {
			if a.IsInt {
				ev.Args[a.Key] = a.Int
			} else {
				ev.Args[a.Key] = a.Str
			}
		}
		evs = append(evs, ev)
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Ts < evs[j].Ts })
	f.TraceEvents = append(f.TraceEvents, evs...)
	return f, rep
}
