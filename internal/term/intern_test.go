package term

import (
	"sync"
	"testing"

	"iselgen/internal/bv"
)

// TestInternHitAllocatesNothing pins that a constructor asked for a term
// the builder already holds returns it without allocating: the hash-cons
// key is looked up before any term or Args slice is built.
func TestInternHitAllocatesNothing(t *testing.T) {
	b := NewBuilder()
	x, y, c := b.Reg("x", 64), b.Reg("y", 64), b.Reg("c", 1)
	addr := b.Reg("a", 64)
	v := bv.New(64, 0x1234)
	families := []struct {
		name  string
		build func() *Term
	}{
		{"binary", func() *Term { return b.Sub(x, y) }},
		{"commutative", func() *Term { return b.Add(y, x) }},
		{"unary", func() *Term { return b.Not(x) }},
		{"extract", func() *Term { return b.Extract(40, 8, x) }},
		{"concat", func() *Term { return b.Concat(b.Extract(31, 0, x), b.Extract(31, 0, y)) }},
		{"ite", func() *Term { return b.Ite(c, x, y) }},
		{"load", func() *Term { return b.Load(32, addr) }},
		{"store", func() *Term { return b.Store(addr, x) }},
		{"const", func() *Term { return b.ConstBV(v) }},
	}
	for _, f := range families {
		first := f.build()
		n := b.NumTerms()
		allocs := testing.AllocsPerRun(100, func() {
			if f.build() != first {
				t.Fatalf("%s: rebuilt term is not the interned one", f.name)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocations per existing term, want 0", f.name, allocs)
		}
		if b.NumTerms() != n {
			t.Errorf("%s: rebuilding interned %d new terms", f.name, b.NumTerms()-n)
		}
	}
}

// TestInternIDsFollowMisses pins that IDs count first constructions only:
// a hit between two misses leaves no gap.
func TestInternIDsFollowMisses(t *testing.T) {
	b := NewBuilder()
	x, y := b.Reg("x", 32), b.Reg("y", 32)
	s := b.Add(x, y)
	if again := b.Add(x, y); again != s {
		t.Fatal("second Add is not the interned term")
	}
	m := b.Mul(x, y)
	if m.ID != s.ID+1 {
		t.Errorf("IDs %d then %d: a hit consumed an ID", s.ID, m.ID)
	}
	if len(s.Args) != 2 || s.Args[0] != x || s.Args[1] != y {
		t.Errorf("Args = %v", s.Args)
	}
}

// TestConcurrentVarsLoads has goroutines read the memoized variable and
// load sets of shared terms at once, as the matcher's workers do on pool
// entries; run it under -race.
func TestConcurrentVarsLoads(t *testing.T) {
	b := NewBuilder()
	x, y := b.Reg("x", 64), b.Reg("y", 64)
	base := b.Add(x, b.Load(64, b.Add(y, b.Const(64, 8))))
	var terms []*Term
	for i := 0; i < 32; i++ {
		terms = append(terms, b.Xor(base, b.Load(64, b.Add(x, b.Const(64, uint64(i))))))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, u := range terms {
				if len(u.Vars()) != 2 {
					t.Errorf("%s: vars %v", u, u.Vars())
				}
				if len(u.Loads()) != 2 {
					t.Errorf("%s: loads %v", u, u.Loads())
				}
			}
		}()
	}
	wg.Wait()
}
