package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// maxConns is the most connections the load generator opens to one
// daemon: one per core of the 2-core machine the bounds were set on, so
// the generator cannot out-parallelize the daemon it measures.
const maxConns = 2

// newClient returns the load generator's HTTP client. Each daemon gets at
// most maxConns connections, kept alive across requests.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     maxConns,
		MaxIdleConnsPerHost: maxConns,
		DisableCompression:  true,
	}}
}

// post sends one JSON body and returns the response body of a 200 answer;
// any other status is an error carrying the answer's text.
func post(ctx context.Context, c *http.Client, url string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return do(c, req)
}

func get(ctx context.Context, c *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	return do(c, req)
}

func do(c *http.Client, req *http.Request) ([]byte, error) {
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: HTTP %d: %s", req.Method, req.URL.Path, resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, nil
}

// sample is one open-loop request. Offsets are from the phase start.
type sample struct {
	idx   int // position in the run's request stream
	due   time.Duration
	start time.Duration
	end   time.Duration
	err   error
	body  []byte // the answer, checked after the run
}

// latency is answer time minus due time: a request that waited for a
// free connection behind a stalled one is charged for the wait.
func (s sample) latency() time.Duration { return s.end - s.due }

// openLoop sends request i at dueAt(i, rate) for d, over conns
// connections, whatever the answers' pace. Request i is request first+i
// of the run's stream and carries bodies[(first+i)%len(bodies)].
func openLoop(ctx context.Context, c *http.Client, url string, bodies [][]byte, first int, rate float64, d time.Duration, conns int) []sample {
	n := scheduled(rate, d)
	out := make([]sample, n)
	var next atomic.Int64
	t0 := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || ctx.Err() != nil {
					return
				}
				due := dueAt(i, rate)
				if wait := due - time.Since(t0); wait > 0 {
					time.Sleep(wait)
				}
				s := sample{idx: first + i, due: due, start: time.Since(t0)}
				s.body, s.err = post(ctx, c, url, bodies[s.idx%len(bodies)])
				s.end = time.Since(t0)
				out[i] = s
			}
		}()
	}
	wg.Wait()
	return out
}

// closedLoop keeps conns requests in flight for d, each connection sending
// its next body as soon as the previous answer arrives. It returns the
// answers per second up to the last answer that arrived within d, the
// failures, and the requests sent.
func closedLoop(ctx context.Context, c *http.Client, url string, bodies [][]byte, d time.Duration, conns int) (rate float64, failed, sent int) {
	var next, nDone, nFailed atomic.Int64
	last := make([]time.Duration, conns) // per worker: its last answer within d
	t0 := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(t0) < d && ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				_, err := post(ctx, c, url, bodies[i%len(bodies)])
				at := time.Since(t0)
				switch {
				case err != nil:
					nFailed.Add(1)
				case at <= d:
					nDone.Add(1)
					last[w] = at
				}
			}
		}()
	}
	wg.Wait()
	if end := slices.Max(last); end > 0 {
		rate = float64(nDone.Load()) / end.Seconds()
	}
	return rate, int(nFailed.Load()), int(next.Load())
}
