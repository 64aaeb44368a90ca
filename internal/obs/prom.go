package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteProm writes every registered metric in Prometheus text
// exposition format (version 0.0.4). Histograms emit cumulative
// le-buckets at their power-of-two upper bounds (non-empty prefix only)
// plus +Inf, _sum, and _count, and additionally pre-computed
// p50/p90/p99 estimates as a companion gauge family <name>_quantile.
// The output is strictly 0.0.4: no exemplar annotations, so any classic
// text-format scraper can consume it. Exemplars are opt-in via
// WritePromExemplars.
func (r *Registry) WriteProm(w io.Writer) error {
	return r.writeProm(w, false)
}

// WritePromExemplars is WriteProm plus OpenMetrics-style exemplar
// annotations (` # {trace_id="..."} value ts`) on populated histogram
// bucket lines. Exemplars are NOT part of the 0.0.4 text format — a
// classic Prometheus text parser rejects lines carrying them — so this
// form must only be served to clients that asked for it (the /metrics
// handler gates it behind ?exemplars=1).
func (r *Registry) WritePromExemplars(w io.Writer) error {
	return r.writeProm(w, true)
}

func (r *Registry) writeProm(w io.Writer, exemplars bool) error {
	bw := bufio.NewWriter(w)
	for _, f := range r.families() {
		help := f.help
		if help == "" {
			help = f.name
		}
		fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(help))
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind)
		for _, k := range f.order {
			labels := strings.Split(k, "\x00")
			if k == "" {
				labels = nil
			}
			switch m := f.vars[k].(type) {
			case *Counter:
				fmt.Fprintf(bw, "%s%s %d\n", f.name, renderLabels(labels), m.Value())
			case *Gauge:
				fmt.Fprintf(bw, "%s%s %d\n", f.name, renderLabels(labels), m.Value())
			case *Histogram:
				writeHist(bw, f.name, labels, m, exemplars)
			}
		}
	}
	return bw.Flush()
}

func writeHist(w io.Writer, name string, labels []string, h *Histogram, exemplars bool) {
	buckets, count, sum := h.Snapshot()
	last := -1
	for i, n := range buckets {
		if n > 0 {
			last = i
		}
	}
	var cum int64
	for i := 0; i <= last; i++ {
		cum += buckets[i]
		le := strconv.FormatInt(BucketUpper(i), 10)
		fmt.Fprintf(w, "%s_bucket%s %d", name,
			renderLabels(append(append([]string(nil), labels...), "le", le)), cum)
		// OpenMetrics-style exemplar: the bucket's most recent sampled
		// trace, appended as `# {trace_id="..."} value ts`.
		if ex := h.Exemplar(i); exemplars && ex != nil {
			fmt.Fprintf(w, " # {trace_id=\"%s\"} %d %.3f",
				escapeLabel(ex.TraceID), ex.Value, float64(ex.UnixNS)/1e9)
		}
		fmt.Fprintf(w, "\n")
	}
	fmt.Fprintf(w, "%s_bucket%s %d\n", name,
		renderLabels(append(append([]string(nil), labels...), "le", "+Inf")), count)
	fmt.Fprintf(w, "%s_sum%s %d\n", name, renderLabels(labels), sum)
	fmt.Fprintf(w, "%s_count%s %d\n", name, renderLabels(labels), count)
}

// WritePromQuantiles appends gauge families <name>_p50/_p90/_p99 for
// every histogram — precomputed latency quantiles for scrapers that do
// not aggregate buckets server-side.
func (r *Registry) WritePromQuantiles(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, f := range r.families() {
		if f.kind != "histogram" {
			continue
		}
		for _, q := range []struct {
			suffix string
			q      float64
		}{{"p50", 0.50}, {"p90", 0.90}, {"p99", 0.99}} {
			fmt.Fprintf(bw, "# HELP %s_%s %s (%s estimate)\n", f.name, q.suffix, escapeHelp(f.help), q.suffix)
			fmt.Fprintf(bw, "# TYPE %s_%s gauge\n", f.name, q.suffix)
			for _, k := range f.order {
				labels := strings.Split(k, "\x00")
				if k == "" {
					labels = nil
				}
				h := f.vars[k].(*Histogram)
				fmt.Fprintf(bw, "%s_%s%s %d\n", f.name, q.suffix, renderLabels(labels), h.Quantile(q.q))
			}
		}
	}
	return bw.Flush()
}

func renderLabels(pairs []string) string {
	if len(pairs) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i := 0; i+1 < len(pairs); i += 2 {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(pairs[i])
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(pairs[i+1]))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
