package service

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"iselgen/internal/isa"
	"iselgen/internal/term"
)

// TestDiskArtifactQuarantine pins the crash-tolerant disk-load contract:
// an artifact that no longer parses or verifies is never served — it is
// moved aside to a .quarantine file (evidence for post-mortems), a
// warning is logged, and the load reports a miss so the slot
// re-synthesizes cleanly. A slot that holds another revision is a plain
// miss: it is neither verified nor moved.
func TestDiskArtifactQuarantine(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var warnings []string
	s.SetLogger(func(format string, args ...any) {
		warnings = append(warnings, fmt.Sprintf(format, args...))
	})

	const fp, lineage = "deadbeef", "mini"
	artifact := filepath.Join(dir, lineage+".rules")
	if err := os.WriteFile(artifact, []byte(fpHeader+fp+"\nrule ADDrr <- garbage that does not parse\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	mat := func() (*term.Builder, *isa.Target, error) {
		b := term.NewBuilder()
		tgt, err := isa.LoadTarget(b, "mini", svcSpec, nil, 4)
		return b, tgt, err
	}
	if _, ok := s.LoadDisk("cafef00d", lineage, mat); ok || len(warnings) != 0 {
		t.Fatalf("a slot holding another revision hit or warned: %v", warnings)
	}
	if e, ok := s.LoadDisk(fp, lineage, mat); ok {
		t.Fatalf("corrupt artifact served: %+v", e)
	}
	if _, err := os.Stat(artifact); !os.IsNotExist(err) {
		t.Fatal("corrupt artifact left in place; a future load would re-trust it")
	}
	if _, err := os.Stat(artifact + ".quarantine"); err != nil {
		t.Fatalf("quarantine file missing: %v", err)
	}
	if len(warnings) != 1 || !strings.Contains(warnings[0], "quarantined") {
		t.Fatalf("expected one quarantine warning, got %v", warnings)
	}

	// The quarantined slot behaves as a plain miss from here on.
	if _, ok := s.LoadDisk(fp, lineage, mat); ok {
		t.Fatal("second load of a quarantined fingerprint still hit")
	}
	if len(warnings) != 1 {
		t.Fatalf("a plain miss must not log: %v", warnings)
	}
}
