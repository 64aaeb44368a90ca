package main

import (
	"math"
	"slices"
	"time"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile; fewer and the percentile is one or two outliers, not a tail.
const minBeyond = 10

// median returns the middle of xs (the mean of the two middle values for
// an even count), or NaN for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs, interpolated
// exactly as Python's statistics.quantiles(xs, n=4) does (its default
// "exclusive" method), so spreads printed here match the ones a run-set
// is judged by. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64, ok bool) {
	n := len(xs)
	if n < 2 {
		return 0, 0, false
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := n + 1
	cut := func(i int) float64 {
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3), true
}

// iqr is the distance between the quartiles of xs (false below two values).
func iqr(xs []float64) (float64, bool) {
	q1, q3, ok := quartiles(xs)
	return q3 - q1, ok
}

// percentile returns the nearest-rank p-quantile of sorted (ascending)
// and how many samples lie strictly after it in rank order.
func percentile(sorted []float64, p float64) (v float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), 0
	}
	r := rank(p, n)
	return sorted[r-1], n - r
}

// rank is the 1-based nearest rank of the p-quantile of n samples; the
// tolerance keeps 0.99*1000 at rank 990 despite binary rounding.
func rank(p float64, n int) int {
	return max(1, min(n, int(math.Ceil(p*float64(n)-1e-9))))
}

// tailLadder is the set of tail percentiles a timing may be reported at,
// highest first.
var tailLadder = []float64{0.999, 0.99, 0.95, 0.90, 0.50}

// highestTail returns the highest percentile on tailLadder that leaves at
// least minBeyond of n samples beyond it (0 when even the median does not).
func highestTail(n int) float64 {
	for _, p := range tailLadder {
		if n-rank(p, n) >= minBeyond {
			return p
		}
	}
	return 0
}

// dueAt is the open-loop send time of request i at a fixed rate: the
// schedule never adapts to how fast answers come back.
func dueAt(i int, rate float64) time.Duration {
	return time.Duration(float64(i) * float64(time.Second) / rate)
}

// scheduled is how many requests an open loop at rate sends in d.
func scheduled(rate float64, d time.Duration) int {
	return int(rate * d.Seconds())
}

// lateness is how far behind its schedule the generator sent a request;
// an early start (the sleep overshooting backwards) counts as on time.
func lateness(start, due time.Duration) time.Duration {
	return max(0, start-due)
}

// tally accumulates one phase's request outcomes. A failed or refused
// request has no answer time: it counts as infinitely slow, so it lies
// beyond every percentile and misses every latency limit.
type tally struct {
	ms     []float64
	failed int
}

func (t *tally) ok(d time.Duration) { t.ms = append(t.ms, msOf(d)) }

func (t *tally) fail() {
	t.failed++
	t.ms = append(t.ms, math.Inf(1))
}

func (t *tally) attempted() int { return len(t.ms) }

// errorRatio is failed over attempted (0 when nothing was attempted).
func (t *tally) errorRatio() float64 {
	if len(t.ms) == 0 {
		return 0
	}
	return float64(t.failed) / float64(len(t.ms))
}

// percentile is the nearest-rank p-quantile over every attempt, failures
// included as +Inf, with the count of samples beyond it.
func (t *tally) percentile(p float64) (float64, int) {
	s := slices.Clone(t.ms)
	slices.Sort(s)
	return percentile(s, p)
}

// median is the median answer time over every attempt, failures included.
func (t *tally) median() float64 { return median(t.ms) }

func msOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
