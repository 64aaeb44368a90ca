package service

import (
	"net/http"
	"strings"
	"sync"
	"testing"

	"iselgen/internal/isa"
	"iselgen/internal/isa/riscv"
	"iselgen/internal/targets"
	"iselgen/internal/term"
)

// A builtin target is resolved once per server: every request shares one
// definition, concurrent first requests included, and a second server
// resolves its own under its own config.
func TestBuiltinResolvedOncePerServer(t *testing.T) {
	sv, _ := newTestServer(t, testConfig())
	defs := make([]*targetDef, 8)
	var wg sync.WaitGroup
	for i := range defs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defs[i], _ = sv.resolveTarget("riscv", "")
		}()
	}
	wg.Wait()
	for _, d := range defs {
		if d == nil || d != defs[0] {
			t.Fatalf("concurrent resolutions returned different definitions: %p vs %p", d, defs[0])
		}
	}
	def := defs[0]
	if def.backend == nil || def.minWidth != 64 || def.cfg.ExtraSequences == nil {
		t.Errorf("riscv definition incomplete: %+v", def)
	}
	if strings.Contains(def.cfg.CacheKey(), "cost=") {
		t.Errorf("cache key %s names a cost table", def.cfg.CacheKey())
	}

	// The fingerprint derivation is unchanged by resolving it once: the
	// scheme, the target name, the spec text, the config's cache key and
	// the pattern cap, so replicas of either vintage agree.
	want := isa.Fingerprint(fingerprintScheme, "riscv", riscv.Spec(), def.cfg.CacheKey(), "maxpat=10")
	if def.fp != want {
		t.Errorf("fingerprint %s, want %s", def.fp, want)
	}

	other := testConfig()
	other.MaxPatterns = 11
	sv2, _ := newTestServer(t, other)
	def2, err := sv2.resolveTarget("riscv", "")
	if err != nil {
		t.Fatal(err)
	}
	if def2 == def || def2.fp == def.fp {
		t.Error("a second server with another config shares the first one's definition")
	}

	x86, err := sv.resolveTarget("x86", "")
	if err != nil {
		t.Fatal(err)
	}
	if x86.backend != nil {
		t.Errorf("x86 has a backend: %+v", x86)
	}
	if _, err := sv.resolveSelecting("x86"); err == nil {
		t.Error("x86 resolved as a selection target")
	}
}

// An inline spec may not take any builtin's name, and is resolved afresh
// on every request.
func TestInlineSpecResolution(t *testing.T) {
	sv, _ := newTestServer(t, testConfig())
	for _, name := range targets.Names(false) {
		if _, err := sv.resolveTarget(name, svcSpec); err == nil {
			t.Errorf("inline spec shadowed builtin %q", name)
		}
	}
	a, err := sv.resolveTarget("", svcSpec)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := sv.resolveTarget("", svcSpec)
	if a == b || a.fp != b.fp || a.name != "inline" || !a.inline || a.backend != nil {
		t.Errorf("inline resolutions: %+v vs %+v", a, b)
	}
	edited, _ := sv.resolveTarget("", svcSpec+"inst NEGr(rm: reg64) { rd = -rm; }\n")
	if edited.fp == a.fp || edited.lineage != a.lineage {
		t.Errorf("a spec edit must change the fingerprint (%t) but keep the lineage (%t)",
			edited.fp != a.fp, edited.lineage == a.lineage)
	}
}

// Every builtin spec text synthesizes inline, loading with the builtin
// loader's sizes wherever an encoding exists and 4 bytes elsewhere.
func TestInlineBuiltinSpecs(t *testing.T) {
	cfg := testConfig()
	cfg.MaxPatterns = 1
	sv, ts := newTestServer(t, cfg)
	for _, bt := range targets.All() {
		t.Run(bt.Name, func(t *testing.T) {
			status, body := postJSON(t, ts.URL+"/v1/synthesize",
				SynthesizeRequest{Target: bt.Name + "-inline", Spec: bt.Spec()})
			if status != http.StatusOK {
				t.Fatalf("status %d: %s", status, body)
			}
			e := sv.store.Peek(decodeSynth(t, body).Fingerprint)
			if e == nil {
				t.Fatal("inline library not cached")
			}
			want, err := bt.Load(term.NewBuilder())
			if err != nil {
				t.Fatal(err)
			}
			if len(e.Target.Insts) != len(want.Insts) {
				t.Fatalf("%d instructions, builtin has %d", len(e.Target.Insts), len(want.Insts))
			}
			for i, in := range e.Target.Insts {
				if in.Enc != nil && in.Size != want.Insts[i].Size {
					t.Errorf("%s: size %d, builtin %d", in.Name, in.Size, want.Insts[i].Size)
				}
				if in.Enc == nil && in.Size != 4 {
					t.Errorf("%s has no encoding but size %d", in.Name, in.Size)
				}
			}
		})
	}
}
