// Package cluster scales the selection service horizontally: a
// consistent-hash ring routes ownership of content-addressed cache
// fingerprints across iseld replicas, cache misses are filled from the
// fingerprint's owner over HTTP (so a cold key is synthesized exactly
// once fleet-wide — the owner's local singleflight collapses every
// replica's concurrent fill), per-peer circuit breakers stop hammering
// dead peers, and everything degrades to local-only operation when the fleet
// is unreachable: a cluster of one is just iseld.
package cluster

import (
	"fmt"
	"sort"
)

// vnodes is the virtual-node count per member: enough that the
// keyspace split between a handful of replicas stays within a few
// percent of even.
const vnodes = 64

// Ring is an immutable consistent-hash ring over replica base URLs.
// Every member is hashed onto the ring at vnodes points; a key is owned
// by the first member clockwise of the key's hash. Adding or removing
// one member remaps only the keys that member owned — the property that
// keeps a rolling restart from stampeding the whole fleet into
// resynthesis.
type Ring struct {
	members []string
	points  []ringPoint // sorted by hash
}

type ringPoint struct {
	hash   uint64
	member string
}

// NewRing builds a ring over members (deduplicated; order-insensitive
// by construction, since placement depends only on member identity).
func NewRing(members []string) *Ring {
	seen := map[string]bool{}
	r := &Ring{}
	for _, m := range members {
		if m == "" || seen[m] {
			continue
		}
		seen[m] = true
		r.members = append(r.members, m)
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{
				hash:   fnv64a(fmt.Sprintf("%s#%d", m, i)),
				member: m,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash ties (vanishingly rare) break by member so placement
		// stays deterministic across replicas.
		return r.points[i].member < r.points[j].member
	})
	sort.Strings(r.members)
	return r
}

// Members returns the distinct members, sorted.
func (r *Ring) Members() []string { return append([]string(nil), r.members...) }

// Owner returns the member owning a key: the first one clockwise of
// the key's hash ("" on an empty ring).
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := fnv64a(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	return r.points[i%len(r.points)].member
}

// fnv64a is the FNV-1a 64-bit hash with a splitmix64 finalizer. Bare
// FNV-1a barely avalanches its last input bytes — keys differing only
// in a trailing character land a few primes apart and cluster into one
// ring arc — so the finalizer mixes every output bit before the value
// is used for placement.
func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}
