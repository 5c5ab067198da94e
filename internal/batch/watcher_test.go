package batch

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"fepia/internal/core"
	"fepia/internal/faults"
)

// watcherWalk drives a Watcher along a seeded trajectory under ctx and
// asserts every frame byte-identical to a one-shot AnalyzeOneContext of
// the same job at the same point, under the given engine options.
func watcherWalk(t *testing.T, ctx context.Context, job Job, opts Options, steps int, seed int64) {
	t.Helper()
	w, err := NewWatcher(job, opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	point := append([]float64(nil), job.Perturbation.Orig...)
	// Reference engine with its own cache so watch-path cache traffic
	// cannot mask a divergence.
	refOpts := opts
	refOpts.Cache = NewCache(0)
	for s := 0; s < steps; s++ {
		res, err := w.Step(ctx, point)
		if err != nil {
			t.Fatalf("step %d: %v", s, err)
		}
		refJob := job
		refJob.Perturbation.Orig = point
		want, err := AnalyzeOneContext(context.Background(), refJob, refOpts)
		if err != nil {
			t.Fatalf("step %d: reference: %v", s, err)
		}
		if !resultsMatch(res.Analysis, want) {
			t.Fatalf("step %d: watcher diverged from one-shot engine\n got: %+v\nwant: %+v",
				s, res.Analysis, want)
		}
		if s == 0 && len(res.Changed) != len(job.Features) {
			t.Fatalf("first step changed = %v, want all %d features", res.Changed, len(job.Features))
		}
		// Move 1..3 coordinates.
		next := append([]float64(nil), point...)
		for m := 0; m < 1+rng.Intn(3); m++ {
			j := rng.Intn(len(next))
			next[j] = math.Abs(next[j]*(0.9+0.2*rng.Float64())) + 0.01
		}
		point = next
	}
}

// resultsMatch compares two analyses bitwise (radius, kind, method,
// boundary witness, robustness, critical index).
func resultsMatch(got, want core.Analysis) bool {
	if math.Float64bits(got.Robustness) != math.Float64bits(want.Robustness) || got.Critical != want.Critical {
		return false
	}
	if len(got.Radii) != len(want.Radii) {
		return false
	}
	for i := range want.Radii {
		g, w := got.Radii[i], want.Radii[i]
		if g.Feature != w.Feature || math.Float64bits(g.Radius) != math.Float64bits(w.Radius) ||
			g.Kind != w.Kind || g.Method != w.Method || (g.Boundary == nil) != (w.Boundary == nil) {
			return false
		}
		for j := range w.Boundary {
			if math.Float64bits(g.Boundary[j]) != math.Float64bits(w.Boundary[j]) {
				return false
			}
		}
	}
	return true
}

// TestWatcherMatchesOneShot: a watch session over paper-shaped HCS jobs
// must reproduce the one-shot engine bit for bit at every point, both on
// the kernel delta path and on the per-feature path a fault-injected
// session takes.
func TestWatcherMatchesOneShot(t *testing.T) {
	job := paperJobs(t, 1, 404)[0]
	for _, kernelOn := range []bool{true, false} {
		t.Run(fmt.Sprintf("kernel=%v", kernelOn), func(t *testing.T) {
			ctx := context.Background()
			if !kernelOn {
				ctx = faults.With(ctx, noopInjector{})
			}
			watcherWalk(t, ctx, job, Options{Cache: NewCache(0)}, 20, 17)
		})
	}
}

// TestWatcherMixedFeatures: non-kernel features (a convex FuncImpact)
// ride the scalar path every step while linear ones take the delta; the
// assembled frame still matches the one-shot engine bitwise.
func TestWatcherMixedFeatures(t *testing.T) {
	job := paperJobs(t, 1, 405)[0]
	dim := len(job.Perturbation.Orig)
	job.Features = append(job.Features, core.Feature{
		Name: "quad",
		Impact: &core.FuncImpact{
			N: dim,
			F: func(pi []float64) float64 {
				var s float64
				for _, x := range pi {
					s += x * x
				}
				return s / float64(dim)
			},
			Convex:      true,
			Fingerprint: []byte("watcher-test-quad"),
		},
		Bounds: core.NoMin(1e6),
	})
	watcherWalk(t, context.Background(), job, Options{Cache: NewCache(0)}, 10, 23)
}

// TestWatcherChangedSet: moving one machine's ETC coordinate changes
// only that machine's finishing-time radius (plus any features whose
// radius value genuinely moved).
func TestWatcherChangedSet(t *testing.T) {
	job := paperJobs(t, 1, 406)[0]
	w, err := NewWatcher(job, Options{Cache: NewCache(0)})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	point := append([]float64(nil), job.Perturbation.Orig...)
	if _, err := w.Step(ctx, point); err != nil {
		t.Fatal(err)
	}
	// Identical point: nothing changes.
	res, err := w.Step(ctx, point)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Changed) != 0 {
		t.Fatalf("no-op step changed = %v, want none", res.Changed)
	}
	// One coordinate: the indalloc features are 0/1 indicator rows, so
	// exactly the owning machine's feature can change.
	next := append([]float64(nil), point...)
	next[0] *= 1.25
	res, err = w.Step(ctx, next)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Changed) != 1 {
		t.Fatalf("single-coordinate step changed = %v, want exactly one feature", res.Changed)
	}
}

// TestWatcherFaultInjectedStep: a step carrying a fault injector keeps
// the per-feature path (injection points fire), and the session recovers
// byte-identically on the next clean step.
func TestWatcherFaultInjectedStep(t *testing.T) {
	job := paperJobs(t, 1, 407)[0]
	retry := &faults.Policy{
		MaxAttempts: 3,
		Sleep:       func(context.Context, time.Duration) error { return nil },
	}
	w, err := NewWatcher(job, Options{Cache: NewCache(0), Retry: retry})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	point := append([]float64(nil), job.Perturbation.Orig...)
	if _, err := w.Step(ctx, point); err != nil {
		t.Fatal(err)
	}

	// Injected step: every solve takes the scalar path; the transient
	// fault is retried away by the policy.
	inj := faults.NewScript().At(faults.Solve, 1, faults.KindError)
	next := append([]float64(nil), point...)
	next[1] *= 1.1
	ictx := faults.With(ctx, inj)
	res, err := w.Step(ictx, next)
	if err != nil {
		t.Fatalf("injected step: %v", err)
	}
	refJob := job
	refJob.Perturbation.Orig = next
	want, err := AnalyzeOneContext(ctx, refJob, Options{Cache: NewCache(0)})
	if err != nil {
		t.Fatal(err)
	}
	if !resultsMatch(res.Analysis, want) {
		t.Fatal("injected step diverged from engine")
	}

	// Next clean step: the delta session resyncs cold and stays exact.
	clean := append([]float64(nil), next...)
	clean[2] *= 1.2
	res, err = w.Step(ctx, clean)
	if err != nil {
		t.Fatal(err)
	}
	refJob.Perturbation.Orig = clean
	want, err = AnalyzeOneContext(ctx, refJob, Options{Cache: NewCache(0)})
	if err != nil {
		t.Fatal(err)
	}
	if !resultsMatch(res.Analysis, want) {
		t.Fatal("post-injection resync diverged from engine")
	}
}

// TestWatcherErrors pins construction and step validation.
func TestWatcherErrors(t *testing.T) {
	if _, err := NewWatcher(Job{}, Options{}); err == nil {
		t.Fatal("NewWatcher accepted an empty job")
	}
	job := paperJobs(t, 1, 408)[0]
	w, err := NewWatcher(job, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Step(context.Background(), []float64{1}); err == nil {
		t.Fatal("Step accepted a mis-dimensioned point")
	}
	// A non-finite point surfaces the scalar path's validation error.
	bad := append([]float64(nil), job.Perturbation.Orig...)
	bad[0] = math.NaN()
	if _, err := w.Step(context.Background(), bad); err == nil {
		t.Fatal("Step accepted a non-finite point")
	}
}

// TestWatcherStepAllocs pins the steady-state kernel-delta step: with
// every feature on the delta path, a single-coordinate step performs no
// per-step heap allocation beyond the fallback map (bounded small).
func TestWatcherStepAllocs(t *testing.T) {
	job := paperJobs(t, 1, 409)[0]
	w, err := NewWatcher(job, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	point := append([]float64(nil), job.Perturbation.Orig...)
	if _, err := w.Step(ctx, point); err != nil {
		t.Fatal(err)
	}
	next := append([]float64(nil), point...)
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		j := i % len(next)
		i++
		next[j] += 0.001
		if _, err := w.Step(ctx, next); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("Watcher.Step allocs/op = %g, want ≤ 1", allocs)
	}
}
