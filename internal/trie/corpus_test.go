package trie_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"iselgen/internal/canon"
	"iselgen/internal/core"
	"iselgen/internal/harness"
	"iselgen/internal/targets"
	"iselgen/internal/term"
	"iselgen/internal/trie"
)

// targetQueries builds a target's synthesis index the way iselgen does
// and canonicalizes every corpus pattern into its lookup query, each in
// a context of its own as the matcher workers do.
func targetQueries(t *testing.T, name string) (*trie.Index, []*canon.CTerm) {
	t.Helper()
	bt, err := targets.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	b := term.NewBuilder()
	tgt, err := bt.Load(b)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.ExtraSequences = bt.Extra
	s := core.New(b, tgt, cfg)
	s.BuildPool()
	wb, wcx := term.NewBuilder(), canon.NewCtx()
	var qs []*canon.CTerm
	for _, p := range harness.CorpusPatterns(name, 0) {
		tp, err := p.Compile(wb)
		if err != nil {
			continue
		}
		qs = append(qs, wcx.Canon(tp))
	}
	return s.Index, qs
}

// sameMatches reports how got differs from want: the same matches in
// the same order, each with the same term, payloads and binding.
func sameMatches(got, want []trie.Match) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d matches, reference has %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Term != w.Term || !reflect.DeepEqual(g.Payloads, w.Payloads) ||
			!reflect.DeepEqual(g.Binding.Regs, w.Binding.Regs) || !reflect.DeepEqual(g.Binding.Imms, w.Binding.Imms) {
			return fmt.Errorf("match %d differs from the reference", i)
		}
	}
	return nil
}

// TestHeadBucketsMatchLinearScan checks the head-bucketed walk against
// the reference that visits every edge, on every corpus query of the
// builtin targets' real indexes.
func TestHeadBucketsMatchLinearScan(t *testing.T) {
	names := []string{"riscv", "x86", "aarch64"}
	if testing.Short() {
		names = names[:2]
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			ix, qs := targetQueries(t, name)
			matched := 0
			for i, q := range qs {
				got, want := ix.Lookup(q), trie.RefLookup(ix, q)
				if err := sameMatches(got, want); err != nil {
					t.Errorf("query %d (%d addends): %v", i, len(q.Addends), err)
				}
				if len(want) > 0 {
					matched++
				}
			}
			if matched == 0 {
				t.Fatalf("none of %d queries matched: the comparison checked nothing", len(qs))
			}
			t.Logf("%d queries, %d with matches", len(qs), matched)
		})
	}
}

// TestConcurrentLookups runs lookups of one built index from several
// goroutines, as the matcher workers share it, and checks each against
// a sequential lookup of the same query.
func TestConcurrentLookups(t *testing.T) {
	ix, qs := targetQueries(t, "riscv")
	want := make([][]trie.Match, len(qs))
	for i, q := range qs {
		want[i] = ix.Lookup(q)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range qs {
				i := (i + g*len(qs)/4) % len(qs)
				if err := sameMatches(ix.Lookup(qs[i]), want[i]); err != nil {
					t.Errorf("goroutine %d, query %d: %v", g, i, err)
				}
			}
		}(g)
	}
	wg.Wait()
}
