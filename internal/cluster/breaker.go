package cluster

import (
	"sync"
	"time"
)

// Breaker states, exposed as a gauge per peer.
const (
	BreakerClosed   = 0 // healthy: requests flow
	BreakerHalfOpen = 1 // cooldown elapsed: one probe in flight
	BreakerOpen     = 2 // tripped: requests rejected locally
)

// breaker is a per-peer circuit breaker: threshold consecutive failures
// open it; while open every Allow is an instant local rejection (the
// caller degrades to a local fill instead of waiting out another
// timeout against a dead peer); after cooldown one probe is admitted
// (half-open) and its outcome closes or re-opens the circuit.
type breaker struct {
	threshold int
	cooldown  time.Duration

	mu       sync.Mutex
	state    int
	failures int       // consecutive failures while closed
	openedAt time.Time // when the circuit last opened
	probing  bool      // a half-open probe is in flight
}

func newBreaker(threshold int, cooldown time.Duration) *breaker {
	return &breaker{threshold: threshold, cooldown: cooldown}
}

// Allow reports whether a request may be sent to the peer now. In the
// open state it flips to half-open once the cooldown has elapsed and
// admits exactly one probe.
func (b *breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerHalfOpen:
		return false // a probe is already in flight
	default: // open
		if time.Since(b.openedAt) < b.cooldown {
			return false
		}
		b.state = BreakerHalfOpen
		b.probing = true
		return true
	}
}

// Success records a successful exchange with the peer; it closes the
// circuit from any state.
func (b *breaker) Success() {
	b.mu.Lock()
	b.state = BreakerClosed
	b.failures = 0
	b.probing = false
	b.mu.Unlock()
}

// Failure records a failed exchange. A failed half-open probe re-opens
// immediately; threshold consecutive failures open a closed circuit.
func (b *breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerHalfOpen {
		b.state = BreakerOpen
		b.openedAt = time.Now()
		b.probing = false
		return
	}
	b.failures++
	if b.failures >= b.threshold {
		b.state = BreakerOpen
		b.openedAt = time.Now()
	}
}

// State returns the current state constant.
func (b *breaker) State() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Failures returns the consecutive-failure count.
func (b *breaker) Failures() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.failures
}
