package main

import (
	"context"
	"fmt"
	"math"
	"slices"
	"time"
)

// The measured time is split into rounds, each an open-loop window at
// the workload's fixed rate followed by a closed-loop window. Latency
// and throughput are the medians over the rounds, so one stall of a
// shared machine moves one round, not the run.
const (
	rounds    = 10
	settle    = time.Second
	openShare = 0.6 // of each round; the rest is the closed loop
	minSetups = 3
	maxSetups = 11
)

// Validity limits of the open loop. The generator sleeps until each
// request is due; a wake-up later than lateLimitP99 at the 99th
// percentile means the generator, not the child, set the pace. A backlog
// at the end of an open-loop window of more than backlogLimit worth of
// arrivals means the child did not keep up with the rate.
const (
	lateLimitP99 = 20 * time.Millisecond
	backlogLimit = 100 * time.Millisecond
)

// runEndToEnd performs the set-ups, the correctness gate and the
// measured rounds, filling rep.endToEnd; with traced set it also fills
// the server-counter and load-generator part of rep.perLayer and
// measures the single-client loopback latency for the replay.
func (b *bench) runEndToEnd(ctx context.Context, rep *report, traced bool) (err error) {
	var (
		ch        *child
		responses [][]byte
	)
	// Set-up repeats at least minSetups times, and while set-ups have
	// used less than a tenth of -seconds, up to maxSetups: cheap set-ups
	// get a median over more samples.
	spent := 0.0
	for i := 0; i < minSetups || (spent < b.cfg.seconds/10 && i < maxSetups); i++ {
		if ch != nil {
			if err := ch.stop(); err != nil {
				return err
			}
		}
		var took time.Duration
		ch, took, responses, err = b.setup(ctx)
		if err != nil {
			return err
		}
		rep.setups = append(rep.setups, took.Seconds())
		spent += took.Seconds()
	}
	defer func() {
		if serr := ch.stop(); serr != nil && err == nil {
			err = serr
		}
	}()
	printf("# setup: %d boots, median %.4fs of %v", len(rep.setups), median(rep.setups), rep.setups)

	if err := b.gate(ctx, responses); err != nil {
		return err
	}
	printf("# correctness gate: %d distinct requests checked against the library path, %d mismatches",
		len(b.w.pool), b.ops.mismatch.Load())

	round := time.Duration(b.cfg.seconds / rounds * float64(time.Second))
	openD := time.Duration(openShare * float64(round))
	var (
		p50s, p99s, rps []float64
		lateness        []time.Duration
		backlog         int
	)
	// An unmeasured open-loop window first, so the child's heap and the
	// connections reach their steady state before round 1.
	b.openLoop(ctx, ch.base, settle)
	for r := 1; r <= rounds; r++ {
		open, err := b.phase(ctx, ch, rep, fmt.Sprintf("round %d open loop %.0f req/s", r, b.w.rate), func() map[string]float64 {
			o := b.openLoop(ctx, ch.base, openD)
			slices.Sort(o.latencies)
			lateness = append(lateness, o.lateness...)
			backlog = max(backlog, o.backlog)
			return map[string]float64{"latency_p50_ms": ms(quantile(o.latencies, 0.50)),
				"latency_p99_ms": ms(quantile(o.latencies, 0.99)), "backlog": float64(o.backlog)}
		})
		if err != nil {
			return err
		}
		closed, err := b.phase(ctx, ch, rep, fmt.Sprintf("round %d closed loop %d clients", r, b.nproc), func() map[string]float64 {
			done, elapsed := b.closedLoop(ctx, ch.base, round-openD)
			return map[string]float64{"throughput_rps": float64(done) / elapsed.Seconds()}
		})
		if err != nil {
			return err
		}
		p50s = append(p50s, open["latency_p50_ms"])
		p99s = append(p99s, open["latency_p99_ms"])
		rps = append(rps, closed["throughput_rps"])
	}
	rss, err := ch.peakRSSMB()
	if err != nil {
		return err
	}

	slices.Sort(lateness)
	lateP99, lateMax := quantile(lateness, 0.99), quantile(lateness, 1)
	limit := max(int(math.Ceil(b.w.rate*backlogLimit.Seconds())), b.nproc)
	printf("# load generator: lateness p99 %.3f ms, max %.3f ms; largest end-of-window backlog %d", ms(lateP99), ms(lateMax), backlog)
	switch {
	case lateP99 > lateLimitP99:
		return fmt.Errorf("%w: load generator woke %v late at p99 (limit %v)", errInvalid, lateP99, lateLimitP99)
	case backlog > limit:
		return fmt.Errorf("%w: %d requests still queued at the end of an open-loop window (limit %d)", errInvalid, backlog, limit)
	}

	attempted := b.ops.attempted.Load()
	rep.endToEnd = map[string]float64{
		"setup_s":        median(rep.setups),
		"latency_p50_ms": median(p50s),
		"throughput_rps": median(rps),
		"success_rate":   1 - float64(b.ops.failed())/float64(attempted),
		"server_rss_mb":  rss,
	}
	if !traced {
		return nil
	}

	counters := rep.counters
	hitRatio := 0.0
	if n := counters["fepiad_cache_hits"] + counters["fepiad_cache_misses"]; n > 0 {
		hitRatio = counters["fepiad_cache_hits"] / n
	}
	for k, v := range map[string]float64{
		"fepiad.cache_hits":          counters["fepiad_cache_hits"],
		"fepiad.cache_misses":        counters["fepiad_cache_misses"],
		"fepiad.cache_hit_ratio":     hitRatio,
		"fepiad.rejected":            counters["fepiad_rejected_total"],
		"fepiad.analyses":            counters["fepiad_analyses_total"],
		"fepiad.watch_changed_radii": counters["fepiad_watch_changed_radii_total"],
		"loadgen.error_rate":         float64(b.ops.failed()) / float64(attempted),
		"loadgen.latency_p99_ms":     median(p99s),
		"loadgen.lateness_p99_ms":    ms(lateP99),
		"loadgen.lateness_max_ms":    ms(lateMax),
		"loadgen.backlog":            float64(backlog),
	} {
		rep.perLayer[k] = v
	}

	// Single-client loopback latency, for http.overhead_us.
	lat := b.singleClient(ctx, ch.base, min(4*len(b.w.pool), 500))
	slices.Sort(lat)
	b.loopbackP50 = quantile(lat, 0.5)
	printf("# single-client loopback: %d requests, p50 %.3f ms", len(lat), ms(b.loopbackP50))
	return nil
}

// phase runs one measured phase between two /metrics scrapes, prints
// it and adds the server's counter deltas to rep.counters.
func (b *bench) phase(ctx context.Context, ch *child, rep *report, name string, fn func() map[string]float64) (map[string]float64, error) {
	before, err := ch.scrape(ctx, b.hc)
	if err != nil {
		return nil, err
	}
	att, fail := b.ops.attempted.Load(), b.ops.failed()
	start := time.Now()
	extra := fn()
	took := time.Since(start)
	after, err := ch.scrape(ctx, b.hc)
	if err != nil {
		return nil, err
	}
	deltas := make(map[string]float64, len(after))
	for k, v := range after {
		deltas[k] = v - before[k]
		rep.counters[k] += deltas[k]
	}
	printf("# %s: %.2fs, %d attempted, %d failed, %v, server counter deltas %v",
		name, took.Seconds(), b.ops.attempted.Load()-att, b.ops.failed()-fail, extra, deltas)
	return extra, nil
}
