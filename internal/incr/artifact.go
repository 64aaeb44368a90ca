package incr

import (
	"bufio"
	"fmt"
	"strings"
)

// Artifact is a parsed persisted rule library (the isel.SaveLibraryFor
// format) viewed through its provenance: the instruction fingerprints
// recorded at synthesis time plus, per rule, the supporting instruction
// names the planner needs for reuse classification. Rules are kept as raw
// lines — they are only materialized (and re-verified) once classified
// reusable, against the *new* target.
type Artifact struct {
	// InstFPs maps instruction names to the content fingerprint they had
	// when the artifact was synthesized ("#%inst" header lines). Empty for
	// pre-provenance artifacts, which makes every rule stale.
	InstFPs map[string]string
	Rules   []ArtifactRule
}

// ArtifactRule is one rule line plus the fields the planner reads without
// loading the rule.
type ArtifactRule struct {
	Line       string   // the raw persisted line, replayable via isel.LoadRule
	PatternKey string   // the IR pattern the rule covers
	Insts      []string // supporting instruction names, in sequence order
	Source     string   // proof origin: "index", "smt", "manual", "loaded"
}

// ParseArtifact reads a persisted library into its provenance view. It
// accepts both the provenance-extended format and pre-provenance
// artifacts (no "#%inst" lines, no source field).
func ParseArtifact(text string) (*Artifact, error) {
	art := &Artifact{InstFPs: map[string]string{}}
	sc := bufio.NewScanner(strings.NewReader(text))
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
			continue
		case strings.HasPrefix(line, "#%inst"):
			f := strings.Fields(line)
			if len(f) != 3 {
				return nil, fmt.Errorf("incr: line %d: malformed provenance header %q", lineNo, line)
			}
			art.InstFPs[f[1]] = f[2]
		case strings.HasPrefix(line, "#"):
			continue
		default:
			ar, err := parseRuleLine(line)
			if err != nil {
				return nil, fmt.Errorf("incr: line %d: %w", lineNo, err)
			}
			art.Rules = append(art.Rules, ar)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return art, nil
}

// parseRuleLine extracts the planner-relevant fields from one persisted
// rule line without loading the rule: the pattern key, the supporting
// instruction names (from the sequence spec), and the proof origin.
func parseRuleLine(line string) (ArtifactRule, error) {
	fields := strings.Split(line, "\t")
	if len(fields) < 3 {
		return ArtifactRule{}, fmt.Errorf("need at least 3 fields")
	}
	ar := ArtifactRule{Line: line, PatternKey: fields[0], Source: "loaded"}
	for _, part := range strings.Split(fields[1], ";") {
		name := strings.TrimSpace(part)
		if k := strings.IndexByte(name, '['); k >= 0 {
			name = name[:k]
		}
		if name == "" {
			return ArtifactRule{}, fmt.Errorf("empty instruction in sequence spec %q", fields[1])
		}
		ar.Insts = append(ar.Insts, name)
	}
	// Trailing fields mirror isel.LoadRule: leaf-consts contain '=', the
	// source field does not.
	for _, f := range fields[3:] {
		if !strings.Contains(f, "=") && f != "" {
			ar.Source = f
		}
	}
	return ar, nil
}
