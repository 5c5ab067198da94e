package spec

// This file defines the serving-metadata block of the fepiad wire
// protocol, introduced with cluster serving (docs/CLUSTER.md). Every
// fepiad 2xx answer embeds a ResponseMeta — per result on /v1/analyze,
// per result AND at the top level on /v1/batch — so clients can see
// which node answered, whether the cluster forwarded, and how fresh the
// radii are, without parsing headers.

// Cache provenance values of ResponseMeta.Cache, ordered coldest first.
// A batch's top-level meta reports the coldest source any of its systems
// needed.
const (
	// CacheMiss: at least one radius was solved fresh for this request,
	// per feature or in a kernel sweep.
	CacheMiss = "miss"
	// CacheCoalesced: at least one radius was obtained by waiting on an
	// identical in-flight solve (singleflight), none solved fresh.
	CacheCoalesced = "coalesced"
	// CacheHit: every radius was served from the warm radius cache.
	CacheHit = "hit"
)

// ResponseMeta is the serving envelope attached to fepiad results. It
// describes how the answer was produced, never what the answer is: two
// responses for the same spec are byte-identical outside their meta
// blocks regardless of which node solved, forwarded, or degraded.
type ResponseMeta struct {
	// Node is the ID of the fepiad node that produced the result (the
	// ring owner on a forwarded request). Empty on a solo node with no
	// -node-id configured.
	Node string `json:"node,omitempty"`
	// Forwarded reports that the result crossed the cluster: the node
	// that accepted the request did not own the spec's ring arc and
	// relayed it to Node.
	Forwarded bool `json:"forwarded,omitempty"`
	// Degraded marks an answer produced while the preferred path was
	// unavailable — served from the radius cache behind an open breaker,
	// or solved locally because the owning peer was unreachable. The
	// values are exact; only their freshness guarantee is weaker.
	Degraded bool `json:"degraded,omitempty"`
	// Cache is the radii's provenance: "hit", "miss", or "coalesced"
	// (see the Cache* constants). Empty when the engine did not
	// consult the radius cache at all.
	Cache string `json:"cache,omitempty"`
	// Anytime marks a partial answer: the request deadline expired
	// before every boundary solve converged, and at least one radius is
	// a certified lower bound ("bound": "lower" on the radius) rather
	// than a converged value. Only set when anytime serving was opted
	// into (-anytime or the spec's "anytime" field); a batch's top-level
	// meta sets it when any of its systems is partial.
	Anytime bool `json:"anytime,omitempty"`
}

// WorstCache returns the colder of two cache-provenance values, using
// the miss < coalesced < hit order; empty strings lose to any
// named source. Batch handlers fold per-system sources with it.
func WorstCache(a, b string) string {
	rank := func(s string) int {
		switch s {
		case CacheMiss:
			return 1
		case CacheCoalesced:
			return 2
		case CacheHit:
			return 3
		}
		return 4
	}
	if a == "" {
		return b
	}
	if b == "" {
		return a
	}
	if rank(b) < rank(a) {
		return b
	}
	return a
}
