// SMT verdict memoization: the session-persistent layer in front of the
// counterexample screen, and the store the screen draws its witnesses
// from. Every settled equivalence query — proved, refuted, or
// budget-exhausted — is content-addressed by a canonical digest of its
// goal pairs and can be replayed on the next identical query without
// building a single clause. The store itself lives in
// internal/solver (in-memory tiers plus a disk journal); this file owns
// the key derivation and the trust policy, because only the checker
// knows when a stored verdict may be believed:
//
//   - Equal is trusted only when the stored proof fingerprint matches
//     the checker's current spec fingerprint. The digest already
//     identifies the query content, so the fingerprint guard is
//     defense in depth against key collisions and serialization drift —
//     a stale Equal could silently admit an unsound rule, which no
//     later stage would catch.
//   - NotEqual under a matching fingerprint is trusted directly; under
//     a mismatch it degrades to a counterexample screen: the stored
//     separating assignment is replayed concretely against the current
//     goals, and the verdict is used only if it still refutes them —
//     sound for any spec, exactly like a screen hit.
//   - Unknown (budget exhaustion) is trusted only under a matching
//     fingerprint and a stored budget at least as large as the current
//     one: CDCL search is deterministic, so exhausting N conflicts
//     implies exhausting any M <= N.
//
// Anything a hit cannot preserve exactly falls through to the normal
// screen-then-solve path, so attaching a memo never changes which rules
// synthesis produces for a given spec — only how much solver work it
// costs.
package smt

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"

	"iselgen/internal/bv"
	"iselgen/internal/canon"
	"iselgen/internal/term"
)

// MemoEntry is one stored verdict with enough context to decide trust
// and to answer provenance queries ("why is this rule in the library").
type MemoEntry struct {
	// Verdict is the settled result (Equal, NotEqual, or Unknown for a
	// budget exhaustion; Unknown from an unsupported operator is stored
	// with Budget = UnsupportedBudget, since it holds for any budget).
	Verdict Result `json:"verdict"`
	// SpecFP is the spec fingerprint the verdict was proved under.
	SpecFP string `json:"spec_fp,omitempty"`
	// Budget is the conflict budget the verdict was settled under.
	Budget int64 `json:"budget,omitempty"`
	// Cex is the separating assignment for NotEqual verdicts (when one
	// was extracted); the store publishes it through Witnesses for the
	// screen, and it lets a fingerprint-mismatched NotEqual degrade to a
	// concrete replay.
	Cex map[string]bv.BV `json:"cex,omitempty"`
	// Context labels the query's purpose (e.g. "synthesis:<pattern>"),
	// joining memo entries to rule provenance.
	Context string `json:"context,omitempty"`
	// Conflicts and SolveTimeNS record the original solver effort.
	Conflicts   int64 `json:"conflicts,omitempty"`
	SolveTimeNS int64 `json:"solve_time_ns,omitempty"`
}

// UnsupportedBudget marks verdicts that hold under any conflict budget
// (structural Unknowns from unsupported operators, not search timeouts).
const UnsupportedBudget = int64(1) << 62

// Memo is the verdict store the checker consults before the
// counterexample screen. Implementations must be safe for concurrent
// use; internal/solver provides the canonical two-tier one.
type Memo interface {
	// Lookup returns the stored entry for a query key, if any. It must
	// never trigger solving or other expensive work.
	Lookup(key string) (MemoEntry, bool)
	// Store records a settled verdict under the key, overwriting any
	// previous entry.
	Store(key string, e MemoEntry)
	// Witnesses returns stored NotEqual counterexamples for the screen.
	// Callers must not modify the slice or its maps.
	Witnesses() []map[string]bv.BV
}

// memoDomain versions the key derivation: bump it when the digest
// serialization changes so old journals go cold instead of colliding.
const memoDomain = "iselgen-smt-memo-v1"

// memoKey content-addresses an equivalence query: the SHA-256 over the
// canonical (Merkle) digests of every goal pair, in order. The digest is
// builder- and run-independent — canonicalization orders commutative
// operands and linear addends by content, goal construction derives all
// fresh names ("!loadN_W", "eKwW") deterministically — so the same query
// hashes identically across workers, processes, and cluster peers.
func (c *Checker) memoKey(goals [][2]*term.Term) string {
	if c.memoCtx == nil {
		c.memoCtx = canon.NewCtx()
		c.memoDig = make(map[*canon.CTerm][32]byte)
	}
	h := sha256.New()
	h.Write([]byte(memoDomain))
	for _, g := range goals {
		for _, side := range g {
			d := c.ctermDigest(c.memoCtx.Canon(side))
			h.Write(d[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ctermDigest computes a collision-resistant structural digest of a
// canonical term, memoized per interned pointer (CTerms are immutable
// and interned per Ctx, so pointer identity implies content identity).
// Unlike canon's 64-bit FNV Hash — good enough for ordering, where a
// collision only costs a deeper comparison — the memo digest guards
// verdict reuse, so it is SHA-256 and includes every field the FNV hash
// mixes plus the bitvector widths of constants and coefficients.
func (c *Checker) ctermDigest(t *canon.CTerm) [32]byte {
	if d, ok := c.memoDig[t]; ok {
		return d
	}
	var buf []byte
	u64 := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		buf = append(buf, b[:]...)
	}
	bvv := func(v bv.BV) {
		u64(v.Lo)
		u64(v.Hi)
		buf = append(buf, byte(v.Width))
	}
	buf = append(buf, byte(t.Kind))
	u64(uint64(t.Width))
	switch t.Kind {
	case canon.Atom:
		u64(uint64(len(t.Var.Name)))
		buf = append(buf, t.Var.Name...)
		buf = append(buf, byte(t.Var.Kind))
	case canon.OpNode:
		u64(uint64(t.Op))
		u64(uint64(uint32(t.Aux0)))
		u64(uint64(uint32(t.Aux1)))
		u64(uint64(len(t.Args)))
		for _, a := range t.Args {
			d := c.ctermDigest(a)
			buf = append(buf, d[:]...)
		}
	case canon.Lin:
		bvv(t.K)
		u64(uint64(len(t.Addends)))
		for _, a := range t.Addends {
			bvv(a.Coef)
			d := c.ctermDigest(a.T)
			buf = append(buf, d[:]...)
		}
	}
	d := sha256.Sum256(buf)
	c.memoDig[t] = d
	return d
}

// memoTrusted applies the trust policy to a stored entry, returning the
// verdict to replay and whether the hit may be used at all.
func (c *Checker) memoTrusted(e MemoEntry, budget int64, goals [][2]*term.Term) (Result, bool) {
	if e.SpecFP != "" && e.SpecFP == c.SpecFP {
		if e.Verdict == Unknown {
			// Deterministic search: exhausting e.Budget conflicts
			// without an answer implies exhausting any smaller budget.
			if e.Budget >= budget {
				return Unknown, true
			}
			return Unknown, false
		}
		return e.Verdict, true
	}
	// Fingerprint mismatch: only a refutation with a stored witness can
	// be salvaged, by degrading to a concrete counterexample screen.
	if e.Verdict == NotEqual && len(e.Cex) > 0 {
		if _, ok := refuting([]map[string]bv.BV{e.Cex}, goals); ok {
			return NotEqual, true
		}
	}
	return Unknown, false
}

// memoStore records a settled verdict (never Unknown-from-timeout under
// a smaller budget than configured — the caller passes the effective
// budget the verdict was settled under).
func (c *Checker) memoStore(key string, e MemoEntry) {
	if c.Memo == nil || key == "" {
		return
	}
	e.SpecFP = c.SpecFP
	e.Context = c.Context
	c.Memo.Store(key, e)
}
