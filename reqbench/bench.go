package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// opStats counts the operations of a run by outcome. Every request sent
// to the measured child is one attempted operation.
type opStats struct {
	attempted atomic.Int64
	non200    atomic.Int64 // includes 503 sheds
	transport atomic.Int64
	unclean   atomic.Int64 // watch stream without a clean summary
	mismatch  atomic.Int64 // response differs from the library path
}

func (s *opStats) failed() int64 {
	return s.non200.Load() + s.transport.Load() + s.unclean.Load() + s.mismatch.Load()
}

// bench drives one workload against fepiad children.
type bench struct {
	w      *workload
	cfg    config
	nproc  int
	hc     *http.Client
	ops    opStats
	cursor atomic.Int64 // round-robin position in the pool, shared by every phase

	// expected[i] is the library path's answer to pool[i]; nil until the
	// correctness gate has run.
	expected [][]byte
	// loopbackP50 is the single-client loopback median of a traced run.
	loopbackP50 time.Duration
}

func newBench(w *workload, cfg config) *bench {
	nproc := runtime.NumCPU()
	return &bench{w: w, cfg: cfg, nproc: nproc, hc: &http.Client{
		Timeout: time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost:     nproc,
			MaxIdleConnsPerHost: nproc,
			DisableCompression:  true,
		},
	}}
}

// conn is one client goroutine's reusable state.
type conn struct {
	body  bytes.Buffer
	strip []byte
}

// outcome classifies one finished request.
type outcome int

const (
	okay outcome = iota
	failNon200
	failTransport
	failUnclean
	failMismatch
)

// send posts pool[idx] to the child and classifies the answer. With
// keep set, the response body is returned (a copy) for later checks.
func (b *bench) send(ctx context.Context, c *conn, base string, idx int, keep bool) (outcome, []byte) {
	b.ops.attempted.Add(1)
	o := b.exchange(ctx, c, base, idx)
	switch o {
	case failNon200:
		b.ops.non200.Add(1)
	case failTransport:
		b.ops.transport.Add(1)
	case failUnclean:
		b.ops.unclean.Add(1)
	case failMismatch:
		b.ops.mismatch.Add(1)
	}
	if keep {
		return o, bytes.Clone(c.body.Bytes())
	}
	return o, nil
}

func (b *bench) exchange(ctx context.Context, c *conn, base string, idx int) outcome {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+b.w.endpoint, bytes.NewReader(b.w.pool[idx]))
	if err != nil {
		return failTransport
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := b.hc.Do(req)
	if err != nil {
		return failTransport
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return failTransport
	}
	if resp.StatusCode != http.StatusOK {
		return failNon200
	}
	if b.w.endpoint == "/v1/watch" && !cleanSummary(c.body.Bytes()) {
		return failUnclean
	}
	if b.expected != nil {
		c.strip = stripMeta(c.strip[:0], c.body.Bytes())
		if !bytes.Equal(c.strip, b.expected[idx]) {
			return failMismatch
		}
	}
	return okay
}

// next returns the pool index of the next request: the pool is cycled
// round-robin across all phases, so the batch workload's LRU access
// pattern stays cyclic and misses on every radius.
func (b *bench) next() int {
	return int((b.cursor.Add(1) - 1) % int64(len(b.w.pool)))
}

// setup boots one child and warms it: the returned duration runs from
// process start until /healthz answers plus one pass over the pool. The
// warm-up responses are returned for the correctness gate.
func (b *bench) setup(ctx context.Context) (*child, time.Duration, [][]byte, error) {
	start := time.Now()
	ch, err := startChild(b.cfg.fepiad, filepath.Join(b.cfg.outDir, b.w.name+"-fepiad.log"))
	if err != nil {
		return nil, 0, nil, err
	}
	if err := ch.waitReady(ctx, b.hc); err != nil {
		_ = ch.stop()
		return nil, 0, nil, err
	}
	b.cursor.Store(0)
	responses := make([][]byte, len(b.w.pool))
	var failed atomic.Int64
	b.parallel(func(c *conn) {
		for {
			k := b.cursor.Add(1) - 1
			if k >= int64(len(b.w.pool)) {
				return
			}
			o, body := b.send(ctx, c, ch.base, int(k), true)
			if o != okay {
				failed.Add(1)
			}
			responses[k] = body
		}
	})
	b.cursor.Store(int64(len(b.w.pool)))
	took := time.Since(start)
	if n := failed.Load(); n > 0 {
		_ = ch.stop()
		return nil, 0, nil, fmt.Errorf("%d of %d warm-up requests failed (log %s)", n, len(b.w.pool), ch.logPath)
	}
	return ch, took, responses, nil
}

// parallel runs fn on nproc client goroutines and waits for them.
func (b *bench) parallel(fn func(c *conn)) {
	var wg sync.WaitGroup
	for g := 0; g < b.nproc; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(&conn{})
		}()
	}
	wg.Wait()
}

// gate is the correctness gate: it computes the library path's answer
// to every pool entry and compares the child's warm-up responses with
// it; watch streams also get their sampled frames checked against cold
// analyses. Mismatches count as failed operations.
func (b *bench) gate(ctx context.Context, responses [][]byte) error {
	b.expected = make([][]byte, len(b.w.pool))
	errs := make([]error, len(b.w.pool))
	var next atomic.Int64
	b.parallel(func(c *conn) {
		for {
			i := int(next.Add(1) - 1)
			if i >= len(b.w.pool) {
				return
			}
			want, err := libraryBytes(ctx, b.w.endpoint, b.w.pool[i])
			if err != nil {
				errs[i] = fmt.Errorf("library path for request %d: %w", i, err)
				continue
			}
			b.expected[i] = want
			c.strip = stripMeta(c.strip[:0], responses[i])
			if !bytes.Equal(c.strip, want) {
				b.ops.mismatch.Add(1)
				printf("# MISMATCH: request %d of %s differs from the library path", i, b.w.name)
				continue
			}
			if b.w.endpoint == "/v1/watch" {
				if err := checkWatchFrames(ctx, i, b.w.pool[i], responses[i]); err != nil {
					b.ops.mismatch.Add(1)
					printf("# MISMATCH: %v", err)
				}
			}
		}
	})
	return errors.Join(errs...)
}

// failedLatency is the latency recorded for a failed request: it misses
// any latency limit.
const failedLatency = time.Duration(math.MaxInt64)

// openResult is what one open-loop phase measured.
type openResult struct {
	latencies []time.Duration // from due time to completion; failures are +Inf
	lateness  []time.Duration // send minus due, for requests the generator had to wait for
	backlog   int             // requests due before the phase ended but not yet sent then
}

// openLoop sends requests at the workload's fixed rate for d, each
// timed from when it was due, on nproc connections. A request due while
// every connection is busy waits for one, and that wait is part of its
// latency.
func (b *bench) openLoop(ctx context.Context, base string, d time.Duration) openResult {
	interval := time.Duration(float64(time.Second) / b.w.rate)
	start := time.Now().Add(5 * time.Millisecond)
	end := start.Add(d)
	var k atomic.Int64
	var mu sync.Mutex
	var res openResult
	b.parallel(func(c *conn) {
		var lat, late []time.Duration
		backlog := 0
		for {
			due := start.Add(time.Duration(k.Add(1)-1) * interval)
			if !due.Before(end) {
				break
			}
			if now := time.Now(); now.Before(due) {
				time.Sleep(due.Sub(now))
				late = append(late, time.Since(due))
			} else if now.After(end) {
				backlog++
			}
			o, _ := b.send(ctx, c, base, b.next(), false)
			l := time.Since(due)
			if o != okay {
				l = failedLatency
			}
			lat = append(lat, l)
		}
		mu.Lock()
		res.latencies = append(res.latencies, lat...)
		res.lateness = append(res.lateness, late...)
		res.backlog += backlog
		mu.Unlock()
	})
	return res
}

// closedLoop keeps nproc clients busy for d and returns the number of
// successful requests and the time until the last one finished.
func (b *bench) closedLoop(ctx context.Context, base string, d time.Duration) (int64, time.Duration) {
	start := time.Now()
	end := start.Add(d)
	var done atomic.Int64
	b.parallel(func(c *conn) {
		for time.Now().Before(end) {
			if o, _ := b.send(ctx, c, base, b.next(), false); o == okay {
				done.Add(1)
			}
		}
	})
	return done.Load(), time.Since(start)
}

// singleClient sends n requests one at a time and returns their
// latencies, for the loopback overhead of the traced run.
func (b *bench) singleClient(ctx context.Context, base string, n int) []time.Duration {
	c := &conn{}
	lat := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if o, _ := b.send(ctx, c, base, b.next(), false); o == okay {
			lat = append(lat, time.Since(t0))
		}
	}
	return lat
}

// quantile returns the q-quantile of sorted durations by the nearest-rank
// rule.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
