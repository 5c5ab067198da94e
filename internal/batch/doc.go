// Package batch is the concurrent batch-analysis engine: it evaluates
// many robustness analyses (N mappings × M perturbation parameters) over
// a bounded worker pool with deterministic result ordering and context
// cancellation, and memoises individual robustness radii in an LRU cache
// so repeated evaluations of identical subproblems — the same impact
// function against the same bounds at the same operating point — are
// solved once.
//
// The paper's evaluation (§4) is embarrassingly parallel: every radius
// r_μ(φ_i, π_j) of Eq. 1 is an independent minimum-norm problem, and the
// §4.2/§4.3 experiments evaluate 1000 random mappings whose feature sets
// overlap heavily (two mappings that place the same applications on some
// machine induce the identical hyperplane for that machine). This package
// exploits both facts. It underlies robustness.AnalyzeBatch on the public
// facade, the experiment harness in internal/experiments, the Monte-Carlo
// certifier's CertifyAll, and the population evaluation inside the
// robustness-aware heuristics.
//
// Determinism: Analyze returns results indexed exactly like its input —
// result i is byte-identical to what core.Analyze would have produced for
// job i — regardless of worker count, cache state, or scheduling order.
// All engine state (the worker pool, the cache) is safe for concurrent
// use from multiple goroutines.
//
// The engine routes every kernel-eligible linear feature of a job
// through the vectorized struct-of-arrays sweep in internal/kernel (one
// pack, one dot-product sweep, one amortised boundary allocation) while
// convex and non-convex impacts keep the per-feature internal/optimize
// path. Routing never changes results: the kernel is bit-identical to
// core.ComputeRadius by contract, and fault-injected requests skip it
// wholesale so chaos semantics are preserved. docs/PERFORMANCE.md
// documents the routing table and the measured speedups.
package batch
