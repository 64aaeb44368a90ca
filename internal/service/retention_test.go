package service

import (
	"net/http"
	"runtime"
	"testing"
	"time"

	"iselgen/internal/isa"
	"iselgen/internal/term"
)

// TestSynthesisBuilderIsCollectable pins that a cached library does not
// keep its synthesis alive: once the server has synthesized and cached
// a target, the term builder that synthesis loaded the target into —
// with every pool term it built — is garbage, though the entry stays
// resident.
func TestSynthesisBuilderIsCollectable(t *testing.T) {
	sv, ts := newTestServer(t, testConfig())
	def, err := sv.resolveTarget("riscv", "")
	if err != nil {
		t.Fatal(err)
	}
	collected := make(chan struct{})
	load := def.load
	def.load = func(b *term.Builder) (*isa.Target, error) {
		runtime.SetFinalizer(b, func(*term.Builder) { close(collected) })
		return load(b)
	}
	if status, body := postJSON(t, ts.URL+"/v1/synthesize", SynthesizeRequest{Target: "riscv"}); status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	ent := sv.store.Peek(def.fp)
	if ent == nil {
		t.Fatal("the synthesized library is not cached")
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		select {
		case <-collected:
			runtime.KeepAlive(ent)
			return
		case <-time.After(20 * time.Millisecond):
		}
	}
	t.Fatal("the synthesis builder stayed reachable from the cached entry")
}
