package fuzz

import (
	"fmt"
	"strconv"
	"strings"

	"iselgen/internal/solver"
)

// ParseRepro parses the corpus format. Like ParseProg it returns errors,
// never panics, so corpus directories can hold hand-edited files.
func ParseRepro(src string) (*Repro, error) {
	r := &Repro{}
	lines := strings.Split(src, "\n")
	i := 0
	for ; i < len(lines); i++ {
		line := strings.TrimSpace(lines[i])
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if line == "prog:" || line == "spec:" {
			break
		}
		k, v, ok := strings.Cut(line, ":")
		if !ok {
			return nil, fmt.Errorf("repro:%d: expected `key: value`, got %q", i+1, line)
		}
		v = strings.TrimSpace(v)
		switch k {
		case "oracle":
			r.Oracle = v
		case "target":
			r.Target = v
		case "seed":
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("repro:%d: bad seed %q", i+1, v)
			}
			r.Seed = n
		case "iter":
			n, err := strconv.Atoi(v)
			if err != nil {
				return nil, fmt.Errorf("repro:%d: bad iter %q", i+1, v)
			}
			r.Iter = n
		case "note":
			r.Note = v
		default:
			return nil, fmt.Errorf("repro:%d: unknown header %q", i+1, k)
		}
	}
	if r.Oracle == "" {
		return nil, fmt.Errorf("repro: missing oracle header")
	}
	if i < len(lines) {
		marker := strings.TrimSpace(lines[i])
		body := strings.Join(lines[i+1:], "\n")
		if marker == "spec:" {
			r.Spec = body
		} else {
			r.Prog = body
		}
	}
	switch r.Oracle {
	case "select-diff", "encode":
		if strings.TrimSpace(r.Prog) == "" {
			return nil, fmt.Errorf("repro: %s entry has no program body", r.Oracle)
		}
		if _, err := ParseProg(r.Prog); err != nil {
			return nil, err
		}
	case "spec":
		if strings.TrimSpace(r.Spec) == "" {
			return nil, fmt.Errorf("repro: spec entry has no specification body")
		}
	case "smt":
		// nothing further to validate
	default:
		return nil, fmt.Errorf("repro: unknown oracle %q", r.Oracle)
	}
	return r, nil
}

// ReplayRepro re-runs one corpus entry against its oracle. The pipelines
// map provides a select-diff pipeline per target name; missing targets
// are an error. ErrSkip outcomes count as passing (a skip is a healthy
// verdict, and a rejected spec mutant is the contract working).
func ReplayRepro(r *Repro, pipelines map[string]*Pipeline) error {
	switch r.Oracle {
	case "select-diff", "encode":
		p, err := ParseProg(r.Prog)
		if err != nil {
			return err
		}
		pl := pipelines[r.Target]
		if pl == nil {
			return fmt.Errorf("fuzz: no pipeline for target %q", r.Target)
		}
		check := CheckProg
		if r.Oracle == "encode" {
			check = CheckEncode
		}
		if cerr := check(pl, p, VectorsFor(r.Seed, p, 5)); IsFailure(cerr) {
			return cerr
		}
		return nil
	case "spec":
		if cerr := checkSpecSrc(r.Spec, r.Seed, SpecOptions{Synth: true}); IsFailure(cerr) {
			return cerr
		}
		return nil
	case "smt":
		return CheckSMT(solver.New(0), r.Seed, r.Iter, 0)
	default:
		return fmt.Errorf("fuzz: unknown oracle %q", r.Oracle)
	}
}
