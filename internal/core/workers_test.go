package core

import (
	"runtime"
	"testing"
)

// TestDefaultWorkersDerivation pins the Workers default contract: the
// machine's CPU count, overridable by a positive flag value through
// ResolveWorkers.
func TestDefaultWorkersDerivation(t *testing.T) {
	if got := DefaultWorkers(); got != runtime.NumCPU() {
		t.Errorf("DefaultWorkers() = %d, want NumCPU = %d", got, runtime.NumCPU())
	}
	if got := DefaultConfig().Workers; got != runtime.NumCPU() {
		t.Errorf("DefaultConfig().Workers = %d, want NumCPU = %d", got, runtime.NumCPU())
	}
	if got := ResolveWorkers(0); got != runtime.NumCPU() {
		t.Errorf("ResolveWorkers(0) = %d, want NumCPU = %d", got, runtime.NumCPU())
	}
	if got := ResolveWorkers(3); got != 3 {
		t.Errorf("a positive flag must win: ResolveWorkers(3) = %d", got)
	}
}

// TestCacheKeyExcludesWorkers pins that the worker count is purely a
// scheduling knob: two configurations differing only in Workers must
// share an artifact cache key, because they produce identical libraries.
func TestCacheKeyExcludesWorkers(t *testing.T) {
	a := DefaultConfig()
	a.Workers = 1
	b := DefaultConfig()
	b.Workers = 64
	if a.CacheKey() != b.CacheKey() {
		t.Errorf("CacheKey depends on Workers:\n  %s\n  %s", a.CacheKey(), b.CacheKey())
	}
	c := DefaultConfig()
	c.TestInputs = a.TestInputs * 2
	if a.CacheKey() == c.CacheKey() {
		t.Error("CacheKey ignores TestInputs, which does change the library")
	}
	d := DefaultConfig()
	d.SMTMaxConflicts = a.SMTMaxConflicts * 2
	if a.CacheKey() == d.CacheKey() {
		t.Error("CacheKey ignores SMTMaxConflicts, which does change the library")
	}
}
