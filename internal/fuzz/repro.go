package fuzz

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
)

// Repro is a self-contained failure reproducer in the corpus format.
// Select-diff and encode entries carry the shrunk
// program text; spec entries carry the mutated specification verbatim;
// smt entries are regenerated deterministically from (seed, iter),
// since random terms have no stable text form worth inventing.
type Repro struct {
	Oracle string // "select-diff", "encode", "spec", or "smt"
	Target string // pipeline name (select-diff only)
	Seed   uint64 // driver seed that produced the failure
	Iter   int    // iteration within the seed (smt only)
	Note   string // first line of the failure message
	Prog   string // corpus program text (select-diff)
	Spec   string // specification source (spec)
}

// Format renders the reproducer. Header lines are `key: value`; the
// `prog:` / `spec:` marker line starts the verbatim body.
func (r *Repro) Format() string {
	var sb strings.Builder
	sb.WriteString("# iselfuzz reproducer\n")
	fmt.Fprintf(&sb, "oracle: %s\n", r.Oracle)
	if r.Target != "" {
		fmt.Fprintf(&sb, "target: %s\n", r.Target)
	}
	fmt.Fprintf(&sb, "seed: %d\n", r.Seed)
	if r.Oracle == "smt" {
		fmt.Fprintf(&sb, "iter: %d\n", r.Iter)
	}
	if r.Note != "" {
		fmt.Fprintf(&sb, "note: %s\n", strings.SplitN(r.Note, "\n", 2)[0])
	}
	switch r.Oracle {
	case "spec":
		sb.WriteString("spec:\n")
		sb.WriteString(strings.TrimRight(r.Spec, "\n"))
		sb.WriteByte('\n')
	case "smt":
		// body-less: (seed, iter) regenerate the term pair
	default:
		sb.WriteString("prog:\n")
		sb.WriteString(strings.TrimRight(r.Prog, "\n"))
		sb.WriteByte('\n')
	}
	return sb.String()
}

// SaveRepro writes the reproducer into dir under a content-addressed
// name, creating the directory if needed, and returns the path.
func SaveRepro(dir string, r *Repro) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	text := r.Format()
	h := fnv.New64a()
	h.Write([]byte(text))
	path := filepath.Join(dir, fmt.Sprintf("%s-%016x.repro", r.Oracle, h.Sum64()))
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		return "", err
	}
	return path, nil
}
