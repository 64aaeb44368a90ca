package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
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

// --- exposition-format validation ---
//
// ParseProm is a strict parser for the subset of the Prometheus text
// format this package emits, used by the unit tests and the CI guard to
// prove /metrics output is well-formed. It checks line syntax, metric
// and label name grammar, TYPE declarations preceding samples,
// histogram bucket monotonicity, and that +Inf equals _count.

var (
	promNameRe  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	promLabelRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// PromExemplar is a parsed OpenMetrics-style exemplar annotation on a
// bucket sample: `# {labels} value [ts]`.
type PromExemplar struct {
	Labels map[string]string
	Value  float64
	Ts     float64 // seconds; 0 when absent
}

// PromSample is one parsed sample line.
type PromSample struct {
	Name     string
	Labels   map[string]string
	Value    float64
	Exemplar *PromExemplar
}

// PromFamily is one parsed metric family.
type PromFamily struct {
	Name    string
	Type    string
	Help    string
	Samples []PromSample
}

// ParseProm parses (and validates) Prometheus text exposition. It
// returns families keyed by declared name and an error describing the
// first violation found.
func ParseProm(text string) (map[string]*PromFamily, error) {
	fams := map[string]*PromFamily{}
	declared := map[string]string{} // base name -> type
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			// OpenMetrics terminator (emitted by the exemplar-bearing
			// form): ends the exposition.
			if strings.TrimSpace(line) == "# EOF" {
				break
			}
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 4 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				return nil, fmt.Errorf("line %d: malformed comment %q", lineNo, line)
			}
			name := fields[2]
			if !promNameRe.MatchString(name) {
				return nil, fmt.Errorf("line %d: bad metric name %q", lineNo, name)
			}
			if fields[1] == "TYPE" {
				ty := fields[3]
				switch ty {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return nil, fmt.Errorf("line %d: bad type %q", lineNo, ty)
				}
				if _, dup := declared[name]; dup {
					return nil, fmt.Errorf("line %d: duplicate TYPE for %q", lineNo, name)
				}
				declared[name] = ty
				if fams[name] == nil {
					fams[name] = &PromFamily{Name: name}
				}
				fams[name].Type = ty
			} else if fams[name] == nil {
				fams[name] = &PromFamily{Name: name, Help: fields[3]}
			} else {
				fams[name].Help = fields[3]
			}
			continue
		}
		s, err := parsePromSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		base := s.Name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			trimmed := strings.TrimSuffix(s.Name, suf)
			if trimmed != s.Name && declared[trimmed] == "histogram" {
				base = trimmed
				break
			}
		}
		fam := fams[base]
		if fam == nil || fam.Type == "" {
			return nil, fmt.Errorf("line %d: sample %q precedes its TYPE declaration", lineNo, s.Name)
		}
		fam.Samples = append(fam.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, fam := range fams {
		if fam.Type == "histogram" {
			if err := validateHistFamily(fam); err != nil {
				return nil, fmt.Errorf("histogram %s: %w", fam.Name, err)
			}
		}
	}
	return fams, nil
}

func parsePromSample(line string) (PromSample, error) {
	s := PromSample{Labels: map[string]string{}}
	rest := line
	brace := strings.IndexByte(rest, '{')
	sp := strings.IndexByte(rest, ' ')
	if brace >= 0 && (sp < 0 || brace < sp) {
		s.Name = rest[:brace]
		end := labelSetEnd(rest, brace)
		if end < 0 {
			return s, fmt.Errorf("unterminated label set in %q", line)
		}
		body := rest[brace+1 : end]
		rest = strings.TrimSpace(rest[end+1:])
		for _, pair := range splitLabels(body) {
			eq := strings.IndexByte(pair, '=')
			if eq < 0 {
				return s, fmt.Errorf("malformed label %q", pair)
			}
			k := pair[:eq]
			v := pair[eq+1:]
			if !promLabelRe.MatchString(k) {
				return s, fmt.Errorf("bad label name %q", k)
			}
			if len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
				return s, fmt.Errorf("unquoted label value %q", v)
			}
			s.Labels[k] = strings.NewReplacer(`\\`, `\`, `\"`, `"`, `\n`, "\n").Replace(v[1 : len(v)-1])
		}
	} else {
		if sp < 0 {
			return s, fmt.Errorf("no value in %q", line)
		}
		s.Name = rest[:sp]
		rest = strings.TrimSpace(rest[sp:])
	}
	if !promNameRe.MatchString(s.Name) {
		return s, fmt.Errorf("bad metric name %q", s.Name)
	}
	if idx := strings.Index(rest, " # "); idx >= 0 {
		ex, err := parsePromExemplar(strings.TrimSpace(rest[idx+3:]))
		if err != nil {
			return s, err
		}
		s.Exemplar = ex
		rest = strings.TrimSpace(rest[:idx])
	}
	valStr := strings.Fields(rest)
	if len(valStr) < 1 || len(valStr) > 2 {
		return s, fmt.Errorf("bad sample value %q", rest)
	}
	v, err := parsePromValue(valStr[0])
	if err != nil {
		return s, err
	}
	s.Value = v
	return s, nil
}

// parsePromExemplar parses the OpenMetrics-style exemplar body
// `{labels} value [ts]` appended to a bucket sample after ` # `.
func parsePromExemplar(body string) (*PromExemplar, error) {
	if len(body) == 0 || body[0] != '{' {
		return nil, fmt.Errorf("exemplar must start with a label set, got %q", body)
	}
	end := labelSetEnd(body, 0)
	if end < 0 {
		return nil, fmt.Errorf("unterminated exemplar label set in %q", body)
	}
	ex := &PromExemplar{Labels: map[string]string{}}
	for _, pair := range splitLabels(body[1:end]) {
		eq := strings.IndexByte(pair, '=')
		if eq < 0 {
			return nil, fmt.Errorf("malformed exemplar label %q", pair)
		}
		k, v := pair[:eq], pair[eq+1:]
		if !promLabelRe.MatchString(k) {
			return nil, fmt.Errorf("bad exemplar label name %q", k)
		}
		if len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
			return nil, fmt.Errorf("unquoted exemplar label value %q", v)
		}
		ex.Labels[k] = strings.NewReplacer(`\\`, `\`, `\"`, `"`, `\n`, "\n").Replace(v[1 : len(v)-1])
	}
	fields := strings.Fields(strings.TrimSpace(body[end+1:]))
	if len(fields) < 1 || len(fields) > 2 {
		return nil, fmt.Errorf("bad exemplar value in %q", body)
	}
	v, err := parsePromValue(fields[0])
	if err != nil {
		return nil, err
	}
	ex.Value = v
	if len(fields) == 2 {
		ts, err := parsePromValue(fields[1])
		if err != nil {
			return nil, err
		}
		ex.Ts = ts
	}
	return ex, nil
}

// ExemplarCoverage reports, for a parsed histogram family, how many
// populated finite buckets exist and how many of those carry an
// exemplar — the exemplar_coverage ratio the benches gate on. Bucket
// population is recovered by de-accumulating the cumulative counts per
// label series.
func ExemplarCoverage(fam *PromFamily) (withExemplar, populated int) {
	if fam == nil {
		return 0, 0
	}
	type bucketRow struct {
		le    float64
		count float64
		ex    bool
	}
	bySeries := map[string][]bucketRow{}
	for _, s := range fam.Samples {
		if !strings.HasSuffix(s.Name, "_bucket") {
			continue
		}
		le, err := parsePromValue(s.Labels["le"])
		if err != nil || math.IsInf(le, 1) {
			continue
		}
		var ks []string
		for k, v := range s.Labels {
			if k != "le" {
				ks = append(ks, k+"="+v)
			}
		}
		sort.Strings(ks)
		key := strings.Join(ks, ",")
		bySeries[key] = append(bySeries[key], bucketRow{le: le, count: s.Value, ex: s.Exemplar != nil})
	}
	for _, rows := range bySeries {
		sort.Slice(rows, func(i, j int) bool { return rows[i].le < rows[j].le })
		prev := 0.0
		for _, r := range rows {
			if r.count > prev {
				populated++
				if r.ex {
					withExemplar++
				}
			}
			prev = r.count
		}
	}
	return withExemplar, populated
}

func parsePromValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

// labelSetEnd returns the index of the '}' closing the label set that
// opens at s[open], skipping braces inside quoted label values (a route
// label such as "/v1/jobs/{id}" carries them), or -1.
func labelSetEnd(s string, open int) int {
	quoted := false
	for i := open + 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++ // an escaped byte never opens, closes or ends anything
		case '"':
			quoted = !quoted
		case '}':
			if !quoted {
				return i
			}
		}
	}
	return -1
}

// splitLabels splits a label body on commas outside quotes.
func splitLabels(body string) []string {
	var out []string
	depth := false
	start := 0
	for i := 0; i < len(body); i++ {
		switch body[i] {
		case '"':
			if i == 0 || body[i-1] != '\\' {
				depth = !depth
			}
		case ',':
			if !depth {
				out = append(out, body[start:i])
				start = i + 1
			}
		}
	}
	if start < len(body) {
		out = append(out, body[start:])
	}
	return out
}

// validateHistFamily checks the histogram invariants: per label set,
// buckets are cumulative (monotone non-decreasing with le), a +Inf
// bucket exists, and it equals _count.
func validateHistFamily(fam *PromFamily) error {
	type series struct {
		les     []float64
		counts  []float64
		inf     float64
		hasInf  bool
		count   float64
		hasCnt  bool
		hasSum  bool
		samples int
	}
	bySet := map[string]*series{}
	keyOf := func(labels map[string]string) string {
		var ks []string
		for k, v := range labels {
			if k == "le" {
				continue
			}
			ks = append(ks, k+"="+v)
		}
		sort.Strings(ks)
		return strings.Join(ks, ",")
	}
	for _, s := range fam.Samples {
		sr := bySet[keyOf(s.Labels)]
		if sr == nil {
			sr = &series{}
			bySet[keyOf(s.Labels)] = sr
		}
		sr.samples++
		switch {
		case strings.HasSuffix(s.Name, "_bucket"):
			le, ok := s.Labels["le"]
			if !ok {
				return fmt.Errorf("bucket sample without le label")
			}
			v, err := parsePromValue(le)
			if err != nil {
				return fmt.Errorf("bad le %q", le)
			}
			if math.IsInf(v, 1) {
				sr.inf, sr.hasInf = s.Value, true
			} else {
				sr.les = append(sr.les, v)
				sr.counts = append(sr.counts, s.Value)
			}
		case strings.HasSuffix(s.Name, "_sum"):
			sr.hasSum = true
		case strings.HasSuffix(s.Name, "_count"):
			sr.count, sr.hasCnt = s.Value, true
		}
	}
	for set, sr := range bySet {
		if !sr.hasInf || !sr.hasCnt || !sr.hasSum {
			return fmt.Errorf("series {%s}: missing +Inf bucket, _count, or _sum", set)
		}
		if sr.inf != sr.count {
			return fmt.Errorf("series {%s}: +Inf bucket %v != count %v", set, sr.inf, sr.count)
		}
		for i := 1; i < len(sr.les); i++ {
			if sr.les[i] <= sr.les[i-1] {
				return fmt.Errorf("series {%s}: le not increasing", set)
			}
			if sr.counts[i] < sr.counts[i-1] {
				return fmt.Errorf("series {%s}: bucket counts not cumulative", set)
			}
		}
		if n := len(sr.counts); n > 0 && sr.counts[n-1] > sr.inf {
			return fmt.Errorf("series {%s}: finite bucket exceeds +Inf", set)
		}
	}
	return nil
}
