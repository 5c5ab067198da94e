package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"fepia/internal/batch"
	"fepia/internal/spec"
)

// Workload names, as BENCHMARK.json lists them.
const (
	wlAnalyze = "analyze-wide-warm"
	wlBatch   = "batch-convex-cold"
	wlWatch   = "watch-drift"
)

// workload is one traffic mix: the endpoint it drives, the pool of
// distinct request bodies it cycles through, and the fixed open-loop
// arrival rate. Rates sit near a third of the closed-loop capacity
// measured on a 2-vCPU machine: at half of it, the tail latency moved by
// 20-40% between runs as neighbours on a shared host came and went,
// because queueing amplifies every stall.
type workload struct {
	name     string
	endpoint string
	rate     float64 // open-loop arrivals per second
	pool     [][]byte
}

// Pool shapes. The analyze pool (32 × 64 radii) fits the default radius
// cache, so set-up warms every radius; the batch pool holds more than
// twice the default capacity in distinct radii, so cycling it
// round-robin through an LRU misses on every radius.
const (
	analyzePool     = 32
	wideDim         = 64
	batchSystems    = 8
	batchRadiiRatio = 2.25
	watchPool       = 16
	watchSteps      = 64
)

// newWorkload builds the named workload's pool from seed. The same seed
// always yields byte-identical bodies.
func newWorkload(name string, seed int64) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case wlAnalyze:
		w := &workload{name: name, endpoint: "/v1/analyze", rate: 150}
		for i := 0; i < analyzePool; i++ {
			w.pool = append(w.pool, mustJSON(wideSystem(rng, i)))
		}
		return w, nil
	case wlBatch:
		w := &workload{name: name, endpoint: "/v1/batch", rate: 80}
		radii, id := 0, 0
		for float64(radii) <= batchRadiiRatio*batch.DefaultCacheCapacity {
			req := spec.BatchRequest{Systems: make([]spec.File, batchSystems)}
			for j := range req.Systems {
				req.Systems[j] = convexSystem(rng, id)
				radii += len(req.Systems[j].Features)
				id++
			}
			w.pool = append(w.pool, mustJSON(req))
		}
		return w, nil
	case wlWatch:
		w := &workload{name: name, endpoint: "/v1/watch", rate: 12}
		for i := 0; i < watchPool; i++ {
			f := wideSystem(rng, i)
			points := make([][]float64, watchSteps)
			cur := f.Perturbation.Orig
			for s := range points {
				next := append([]float64(nil), cur...)
				next[rng.Intn(len(next))] *= 0.95 + 0.1*rng.Float64()
				points[s] = next
				cur = next
			}
			w.pool = append(w.pool, mustJSON(spec.WatchRequest{System: f, Points: points}))
		}
		return w, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want %s, %s or %s)", name, wlAnalyze, wlBatch, wlWatch)
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // spec types always marshal
	}
	return b
}

// wideSystem is the paper's §3.1 system at width 64: 64 applications
// mapped one per machine, the machine finishing times F_j (Eq. 4) bounded
// by τ·M^orig, so every feature is a finishing-time hyperplane whose
// radius has the closed form of Eq. 6.
func wideSystem(rng *rand.Rand, id int) spec.File {
	orig := make([]float64, wideDim)
	for i := range orig {
		orig[i] = 1 + 9*rng.Float64()
	}
	assign := rng.Perm(wideDim)
	makespan := 0.0
	for _, c := range orig {
		makespan = max(makespan, c)
	}
	bound := (1.2 + 0.3*rng.Float64()) * makespan
	f := spec.File{
		Name:         fmt.Sprintf("wide-%d", id),
		Perturbation: spec.PerturbationSpec{Name: "C", Orig: orig, Units: "s"},
	}
	for m := 0; m < wideDim; m++ {
		coeffs := make([]float64, wideDim)
		for app, mach := range assign {
			if mach == m {
				coeffs[app] = 1
			}
		}
		f.Features = append(f.Features, spec.FeatureSpec{
			Name:   fmt.Sprintf("finish(m%d)", m),
			Max:    &bound,
			Impact: spec.ImpactSpec{Type: "linear", Coeffs: coeffs},
		})
	}
	return f
}

// convexSystem is a small mixed system: 12–16 applications on 2–4
// machines (§3.1 finishing-time hyperplanes) plus two queueing-style
// features built from the §3.2 convex forms, whose radii need the
// numeric convex solver.
func convexSystem(rng *rand.Rand, id int) spec.File {
	apps := 12 + rng.Intn(5)
	machines := 2 + rng.Intn(3)
	orig := make([]float64, apps)
	for i := range orig {
		orig[i] = 1 + 9*rng.Float64()
	}
	finish := make([]float64, machines)
	assign := make([]int, apps)
	for i := range assign {
		// The first applications cover every machine once, so no
		// finishing time is constant.
		assign[i] = i
		if i >= machines {
			assign[i] = rng.Intn(machines)
		}
		finish[assign[i]] += orig[i]
	}
	makespan := 0.0
	for _, t := range finish {
		makespan = max(makespan, t)
	}
	bound := (1.2 + 0.3*rng.Float64()) * makespan
	f := spec.File{
		Name:         fmt.Sprintf("mixed-%d", id),
		Perturbation: spec.PerturbationSpec{Name: "λ", Orig: orig, Units: "req/s"},
	}
	for m := 0; m < machines; m++ {
		coeffs := make([]float64, apps)
		for i, mi := range assign {
			if mi == m {
				coeffs[i] = 1
			}
		}
		f.Features = append(f.Features, spec.FeatureSpec{
			Name:   fmt.Sprintf("finish(m%d)", m),
			Max:    &bound,
			Impact: spec.ImpactSpec{Type: "linear", Coeffs: coeffs},
		})
	}
	for q := 0; q < 2; q++ {
		qmax := 100 * makespan * makespan
		base := rng.Intn(apps)
		f.Features = append(f.Features, spec.FeatureSpec{
			Name: fmt.Sprintf("queue-%d", q),
			Max:  &qmax,
			Impact: spec.ImpactSpec{Type: "terms", Terms: []spec.TermSpec{
				{Kind: "power", Index: base, Coeff: 1 + rng.Float64(), P: 2},
				{Kind: "power", Index: (base + 1) % apps, Coeff: 1 + rng.Float64(), P: 3},
				{Kind: "xlogx", Index: (base + 2) % apps, Coeff: 1 + rng.Float64()},
				{Kind: "exp", Index: (base + 3) % apps, Coeff: 0.1 + 0.1*rng.Float64(), P: 0.5},
			}},
		})
	}
	return f
}
