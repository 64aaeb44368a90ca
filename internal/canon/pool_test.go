package canon_test

import (
	"testing"

	"iselgen/internal/canon"
	"iselgen/internal/core"
	"iselgen/internal/targets"
	"iselgen/internal/term"
)

// TestPoolInterningMatchesReference canonicalizes every pool term of the
// builtin targets through the content-hash tables and through the
// key-string reference, in pool order, and requires the same interned
// terms: the same IDs, hashes, operands and addend order. The one-bucket
// tables file every term under a single hash, so each lookup resolves
// its candidates by comparison alone. They scan every term per lookup,
// so they run on the two small targets only.
func TestPoolInterningMatchesReference(t *testing.T) {
	for _, name := range []string{"riscv", "x86", "aarch64"} {
		t.Run(name, func(t *testing.T) {
			if name == "aarch64" && testing.Short() {
				t.Skip("aarch64 pool in -short mode")
			}
			bt, err := targets.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			b := term.NewBuilder()
			tgt, err := bt.Load(b)
			if err != nil {
				t.Fatal(err)
			}
			cfg := core.Config{TestInputs: 8, Workers: 1, ExtraSequences: bt.Extra}
			s := core.New(b, tgt, cfg)
			s.BuildPool()
			ctxs := map[string]*canon.Ctx{"key-string": canon.NewKeyStringCtx()}
			if name != "aarch64" {
				ctxs["one-bucket"] = canon.NewOneBucketCtx()
			}
			for _, e := range s.Pool {
				for _, cx := range ctxs {
					cx.Canon(e.Effect.T)
				}
			}
			for which, cx := range ctxs {
				if err := canon.SameTerms(s.CX, cx); err != nil {
					t.Errorf("%s interning: %v", which, err)
				}
			}
			for _, e := range s.Pool {
				if got := ctxs["key-string"].Canon(e.Effect.T); got.ID != e.CT.ID || got.Hash != e.CT.Hash {
					t.Fatalf("%s: pool term %d/%x, reference %d/%x", e.Seq, e.CT.ID, e.CT.Hash, got.ID, got.Hash)
				}
			}
			t.Logf("%d pool terms, %d canonical terms", len(s.Pool), s.CX.NumTerms())
		})
	}
}
