package obs

import (
	"sync"
	"testing"
	"time"
)

func TestProvLogRecordsAndOrders(t *testing.T) {
	p := NewProvLog(8)
	p.AddSMT(SMTQuery{Context: "synthesis", Result: "equal", DurNS: 100, Decisions: 5})
	p.AddSMT(SMTQuery{Context: "synthesis", Result: "not-equal", DurNS: 200, Conflicts: 2})

	qs := p.SMTQueries()
	if len(qs) != 2 || qs[0].Result != "equal" || qs[1].Result != "not-equal" {
		t.Fatalf("SMT queries wrong: %+v", qs)
	}
	if qs[0].Decisions != 5 || qs[1].Conflicts != 2 {
		t.Errorf("SAT counters lost: %+v", qs)
	}
	if n := p.Totals(); n != 2 {
		t.Errorf("Totals = %d, want 2", n)
	}
}

// TestProvLogRingWrap: the ring overwrites oldest-first and Totals
// keeps counting past the cap.
func TestProvLogRingWrap(t *testing.T) {
	p := NewProvLog(4)
	for i := 0; i < 10; i++ {
		p.AddSMT(SMTQuery{DurNS: int64(i)})
	}
	qs := p.SMTQueries()
	if len(qs) != 4 {
		t.Fatalf("got %d SMT records, want ring cap 4", len(qs))
	}
	for i, want := range []int64{6, 7, 8, 9} {
		if qs[i].DurNS != want {
			t.Errorf("qs[%d].DurNS = %d, want %d (oldest-first, newest kept)", i, qs[i].DurNS, want)
		}
	}
	if n := p.Totals(); n != 10 {
		t.Errorf("Totals = %d, want 10", n)
	}
}

func TestNilProvLogSafe(t *testing.T) {
	var p *ProvLog
	p.AddSMT(SMTQuery{})
	if p.SMTQueries() != nil {
		t.Errorf("nil ProvLog queries must be nil")
	}
	if p.Totals() != 0 {
		t.Errorf("nil ProvLog totals must be 0")
	}
	ObserveDur(nil, time.Second) // must not panic
}

func TestObserveDur(t *testing.T) {
	h := &Histogram{}
	ObserveDur(h, 1500*time.Nanosecond)
	if h.Count() != 1 || h.Sum() != 1500 {
		t.Fatalf("ObserveDur recorded count=%d sum=%d", h.Count(), h.Sum())
	}
}

// TestProvLogConcurrent exercises the ring from many goroutines under
// -race (synthesis workers record SMT provenance concurrently).
func TestProvLogConcurrent(t *testing.T) {
	p := NewProvLog(32)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				p.AddSMT(SMTQuery{DurNS: int64(i)})
				if i%100 == 0 {
					p.SMTQueries()
				}
			}
		}()
	}
	wg.Wait()
	if n := p.Totals(); n != 4000 {
		t.Fatalf("Totals = %d, want 4000", n)
	}
	if len(p.SMTQueries()) != 32 {
		t.Fatalf("ring should be full at cap 32")
	}
}
