// Package kernel is the vectorized analytic radius kernel: a
// struct-of-arrays (SoA) evaluation path for the Eq. 6 closed form that
// computes every linear feature's robustness radius in one cache-friendly
// sweep instead of one interface-dispatched core.ComputeRadius call per
// feature.
//
// The paper's closed form for an affine impact f(π) = a·π + b against a
// boundary level β is a dot product and a scalar divide:
//
//	r = |β − f(π^orig)| / ‖a‖_*
//
// where ‖a‖_* is the dual of the perturbation norm (ℓ₂↔ℓ₂, ℓ₁↔ℓ∞,
// ℓ∞↔ℓ₁, weighted-ℓ₂ ↔ its reciprocal-weighted dual). Everything in that
// formula except the dot product a·π^orig is a function of the mapping
// alone, so Pack hoists it: the coefficient rows of all features are laid
// out in one flat []float64 block next to per-feature offset, bound,
// dual-norm, and ‖a‖₂² arrays, built once per mapping and reusable across
// operating points. Compute then evaluates all dot products in a single
// sweep — four features at a time, each with its own register-resident
// Kahan–Babuška accumulator, so the compensation arithmetic of the scalar
// path is preserved term for term while the four independent carry chains
// give the CPU instruction-level parallelism the one-at-a-time path
// cannot.
//
// Byte-identical results are the contract, not an aspiration: for every
// feature the kernel performs the exact floating-point operations of
// core.ComputeRadius in the exact order (the same compensated dot
// product, the same dual-norm factor via core.DualNorm, the same
// projection arithmetic for the boundary witness, the same
// strictly-smaller tie-breaking between the β^max and β^min sides), so
// the kernel and core.ComputeRadius produce bit-equal RadiusResults. The
// property tests in kernel_test.go pin this across seeded random
// mappings, every supported norm, one- and two-sided bounds,
// already-violated and unreachable features.
//
// Eligibility is decided per feature by the batch engine, which routes
// every eligible feature here unconditionally: linear impacts under a supported norm route
// here; convex and non-convex impacts keep the internal/optimize
// numeric path, and fault-injected requests keep the per-feature path
// wholesale so chaos injection semantics are never silently lost.
// Traced requests use the kernel and record one "kernel" span for the
// sweep. docs/PERFORMANCE.md documents the routing rules and the
// measured speedups (BENCH_6.json, `make bench`).
package kernel
