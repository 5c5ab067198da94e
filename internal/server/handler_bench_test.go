package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"fepia/internal/spec"
)

// wideDim is the size of the wide analyze document: 64 applications on
// 64 machines, so 64 linear features over a 64-dimensional perturbation.
const wideDim = 64

// wideDoc is a §3.1 finishing-time system of wideDim machines, shaped
// like the request benchmark's analyze-wide-warm documents: each machine
// runs one application of a random assignment and its finishing time is
// bounded by a makespan factor over the slowest application.
func wideDoc(seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	orig := make([]float64, wideDim)
	makespan := 0.0
	for i := range orig {
		orig[i] = 1 + 9*rng.Float64()
		makespan = max(makespan, orig[i])
	}
	assign := rng.Perm(wideDim)
	bound := (1.2 + 0.3*rng.Float64()) * makespan
	f := spec.File{
		Name:         fmt.Sprintf("wide-%d", seed),
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
	doc, err := json.Marshal(f)
	if err != nil {
		panic(err)
	}
	return doc
}

// discardWriter is a ResponseWriter that keeps only the status, so the
// measured allocations are the handler's, not a recorder's body buffer.
type discardWriter struct {
	hdr    http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.hdr }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }

// warmWide returns a handler whose radius cache already holds every
// radius of the wide document, and a function that serves the document
// once more and reports the status.
func warmWide(tb testing.TB) func() int {
	tb.Helper()
	h := New(quietConfig(Config{})).Handler()
	body := wideDoc(1)
	w := &discardWriter{hdr: make(http.Header)}
	serve := func() int {
		w.status = http.StatusOK
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(body)))
		return w.status
	}
	for range 2 {
		if code := serve(); code != http.StatusOK {
			tb.Fatalf("warm-up analyze: status %d", code)
		}
	}
	return serve
}

// BenchmarkHandlerAnalyzeWide measures one warm 64×64 /v1/analyze
// through the in-process handler: every radius is a cache hit, so the
// time is the request path around the engine — decode, build, the
// observability envelope and the indented encode.
func BenchmarkHandlerAnalyzeWide(b *testing.B) {
	serve := warmWide(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if code := serve(); code != http.StatusOK {
			b.Fatalf("status %d", code)
		}
	}
}

// wideAllocsBound is the allocations per warm wide analyze measured in
// this harness with encoding/json on both the decode and the encode
// side and a route key computed on every request. The fixed-schema
// codec must stay under it.
const wideAllocsBound = 1055

func TestHandlerAnalyzeWideAllocs(t *testing.T) {
	serve := warmWide(t)
	allocs := testing.AllocsPerRun(20, func() {
		if code := serve(); code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
	})
	t.Logf("warm 64×64 analyze: %.0f allocs per request", allocs)
	if allocs >= wideAllocsBound {
		t.Fatalf("warm 64×64 analyze allocates %.0f times per request, want under %d", allocs, wideAllocsBound)
	}
}
