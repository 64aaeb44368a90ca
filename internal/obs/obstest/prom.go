// Package obstest holds the strict validators the obs, service and
// cluster tests run observability output through: the Prometheus text
// parser and the fleet trace checks. Only _test.go files import it.
package obstest

import (
	"bufio"
	"fmt"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

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

// ParseProm is a strict parser for the subset of the Prometheus text
// format obs.Registry emits; tests run /metrics output through it to
// prove it well-formed. It checks line syntax, metric and label name
// grammar, TYPE declarations preceding samples, histogram bucket
// monotonicity, and that +Inf equals _count. It returns families keyed
// by declared name and an error describing the first violation found.
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
// exemplar. Bucket
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

// labelSetEnd returns the index of the '}' that ends the label set
// opening at s[open], skipping braces inside quoted label values (a
// route label such as "/v1/trace/{traceId}" carries them), or -1.
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
