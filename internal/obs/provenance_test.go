package obs

import (
	"sync"
	"testing"
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
}

// TestProvLogRingWrap: the ring overwrites oldest-first.
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
}

func TestNilProvLogSafe(t *testing.T) {
	var p *ProvLog
	p.AddSMT(SMTQuery{})
	if p.SMTQueries() != nil {
		t.Errorf("nil ProvLog queries must be nil")
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
	if len(p.SMTQueries()) != 32 {
		t.Fatalf("ring should be full at cap 32")
	}
}
