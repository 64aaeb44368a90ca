package core

import (
	"runtime"
	"testing"
)

// TestDefaultWorkersDerivation pins the Workers default contract: the
// machine's CPU count, overridable by ISEL_WORKERS, overridable in turn
// by a positive flag value through ResolveWorkers.
func TestDefaultWorkersDerivation(t *testing.T) {
	t.Setenv("ISEL_WORKERS", "")
	if got := DefaultWorkers(); got != runtime.NumCPU() {
		t.Errorf("DefaultWorkers() = %d, want NumCPU = %d", got, runtime.NumCPU())
	}
	if got := DefaultConfig().Workers; got != runtime.NumCPU() {
		t.Errorf("DefaultConfig().Workers = %d, want NumCPU = %d", got, runtime.NumCPU())
	}

	t.Setenv("ISEL_WORKERS", "5")
	if got := DefaultWorkers(); got != 5 {
		t.Errorf("with ISEL_WORKERS=5, DefaultWorkers() = %d", got)
	}
	if got := ResolveWorkers(0); got != 5 {
		t.Errorf("with ISEL_WORKERS=5, ResolveWorkers(0) = %d", got)
	}
	if got := ResolveWorkers(3); got != 3 {
		t.Errorf("flag must beat env: ResolveWorkers(3) = %d", got)
	}

	t.Setenv("ISEL_WORKERS", "not-a-number")
	if got := DefaultWorkers(); got != runtime.NumCPU() {
		t.Errorf("malformed ISEL_WORKERS must fall back to NumCPU, got %d", got)
	}
	t.Setenv("ISEL_WORKERS", "-2")
	if got := DefaultWorkers(); got != runtime.NumCPU() {
		t.Errorf("non-positive ISEL_WORKERS must fall back to NumCPU, got %d", got)
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
