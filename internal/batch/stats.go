package batch

import (
	"context"
	"sync/atomic"
)

// RequestStats accumulates the cache provenance of one served request:
// how many radii came from warm hits, fresh solves (per-feature or
// kernel sweep), and coalesced waits on another caller's in-flight
// solve. The fepiad server attaches one per request with
// WithRequestStats and folds it into the ResponseMeta "cache" field; the
// engine records into it wherever the radius cache is consulted. All
// fields are atomic, so one collector can span every worker of a batch
// request.
type RequestStats struct {
	// Hits counts radii served from the warm cache (scalar or kernel
	// path).
	Hits atomic.Uint64
	// Misses counts radii solved fresh: singleflight leaders, anytime
	// solves, and cold features of a kernel sweep.
	Misses atomic.Uint64
	// Coalesced counts radii obtained by parking on an identical
	// in-flight solve.
	Coalesced atomic.Uint64
}

// Source folds the counters into the request's coldest provenance
// label — "miss" beats "coalesced" beats "hit", matching the spec.Cache*
// wire constants — or "" when the request never touched the radius
// cache.
func (rs *RequestStats) Source() string {
	switch {
	case rs == nil:
		return ""
	case rs.Misses.Load() > 0:
		return "miss"
	case rs.Coalesced.Load() > 0:
		return "coalesced"
	case rs.Hits.Load() > 0:
		return "hit"
	}
	return ""
}

// reqStatsKey carries the collector through the engine's contexts.
type reqStatsKey struct{}

// WithRequestStats returns a context whose engine calls record their
// cache provenance into rs.
func WithRequestStats(ctx context.Context, rs *RequestStats) context.Context {
	return context.WithValue(ctx, reqStatsKey{}, rs)
}

// requestStats extracts the request's collector; nil when none is
// attached (library callers, CLIs).
func requestStats(ctx context.Context) *RequestStats {
	rs, _ := ctx.Value(reqStatsKey{}).(*RequestStats)
	return rs
}
