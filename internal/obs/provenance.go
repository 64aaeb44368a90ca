package obs

import "sync"

// SMTQuery is the decision-provenance record of one solver query: what
// was asked, what came back, how long it took, and how hard the SAT
// core worked (the per-query cost distribution Daly et al. identify as
// the tuning signal synthesis needs).
type SMTQuery struct {
	// Context names the caller's purpose (e.g. "verify" or "fallback")
	// plus any pattern identification the caller attaches.
	Context string `json:"context,omitempty"`
	// Result is the verdict: "equal", "not-equal", or "unknown".
	Result string `json:"result"`
	DurNS  int64  `json:"dur_ns"`
	// SAT-core work counters for this query alone.
	Decisions    int64 `json:"decisions"`
	Conflicts    int64 `json:"conflicts"`
	Propagations int64 `json:"propagations"`
	Restarts     int64 `json:"restarts"`
}

// ProvLog is a bounded ring of SMT query provenance records. A nil
// *ProvLog disables recording.
type ProvLog struct {
	mu   sync.Mutex
	smt  []SMTQuery
	head int
}

// DefaultProvCap bounds the ring when NewProvLog is given 0.
const DefaultProvCap = 4096

// NewProvLog returns an enabled provenance log holding up to n SMT
// query records (0 = DefaultProvCap).
func NewProvLog(n int) *ProvLog {
	if n <= 0 {
		n = DefaultProvCap
	}
	return &ProvLog{smt: make([]SMTQuery, 0, n)}
}

// AddSMT records one solver query (nil-safe).
func (p *ProvLog) AddSMT(q SMTQuery) {
	if p == nil {
		return
	}
	p.mu.Lock()
	if len(p.smt) < cap(p.smt) {
		p.smt = append(p.smt, q)
	} else {
		p.smt[p.head] = q
		p.head = (p.head + 1) % cap(p.smt)
	}
	p.mu.Unlock()
}

// SMTQueries returns the recorded SMT query events, oldest first.
func (p *ProvLog) SMTQueries() []SMTQuery {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]SMTQuery, 0, len(p.smt))
	out = append(out, p.smt[p.head:]...)
	out = append(out, p.smt[:p.head]...)
	return out
}
