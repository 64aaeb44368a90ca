package cluster

import (
	"fmt"
	"testing"
)

func TestRingDeterministicAcrossOrder(t *testing.T) {
	a := NewRing([]string{"http://a", "http://b", "http://c"})
	b := NewRing([]string{"http://c", "http://a", "http://b"})
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("fp-%d", i)
		if a.Owner(key) != b.Owner(key) {
			t.Fatalf("key %s: owner depends on member order (%s vs %s)",
				key, a.Owner(key), b.Owner(key))
		}
	}
}

// TestRingOwnerWrapsAround: a key hashing past the last ring point is
// owned by the member of the first point.
func TestRingOwnerWrapsAround(t *testing.T) {
	r := NewRing([]string{"http://a", "http://b", "http://c"})
	last, first := r.points[len(r.points)-1].hash, r.points[0].member
	wrapped := 0
	for i := 0; i < 20000; i++ {
		key := fmt.Sprintf("fp-%d", i)
		if fnv64a(key) > last {
			wrapped++
			if got := r.Owner(key); got != first {
				t.Fatalf("key %s hashes past the last point but is owned by %s, want %s", key, got, first)
			}
		}
	}
	if wrapped == 0 {
		t.Fatal("no key hashed past the last ring point")
	}
}

func TestRingBalance(t *testing.T) {
	members := []string{"http://a", "http://b", "http://c", "http://d"}
	r := NewRing(members)
	counts := map[string]int{}
	const n = 10000
	for i := 0; i < n; i++ {
		counts[r.Owner(fmt.Sprintf("sha256:%064d", i))]++
	}
	for _, m := range members {
		share := float64(counts[m]) / n
		// 64 vnodes keeps a 4-member split well inside [10%, 45%].
		if share < 0.10 || share > 0.45 {
			t.Fatalf("member %s owns %.1f%% of keys — ring badly unbalanced (%v)",
				m, share*100, counts)
		}
	}
}

func TestRingRemovalRemapsOnlyVictimKeys(t *testing.T) {
	full := NewRing([]string{"http://a", "http://b", "http://c"})
	reduced := NewRing([]string{"http://a", "http://b"})
	moved := 0
	const n = 5000
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("fp-%d", i)
		before, after := full.Owner(key), reduced.Owner(key)
		if before != "http://c" && before != after {
			t.Fatalf("key %s moved from surviving member %s to %s", key, before, after)
		}
		if before == "http://c" {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("expected some keys owned by the removed member")
	}
}

func TestRingEmptyAndSingle(t *testing.T) {
	if got := NewRing(nil).Owner("k"); got != "" {
		t.Fatalf("empty ring owner = %q, want empty", got)
	}
	one := NewRing([]string{"http://only"})
	if got := one.Owner("k"); got != "http://only" {
		t.Fatalf("single-member owner = %q", got)
	}
}
