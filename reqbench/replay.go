package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"fepia/internal/batch"
	"fepia/internal/core"
	"fepia/internal/faults"
	"fepia/internal/kernel"
	"fepia/internal/obs"
	"fepia/internal/server"
	"fepia/internal/spec"
	"fepia/internal/vecmath"
)

// The traced replay runs the workload's bodies in-process and times
// calls into each layer's public functions from the outside: the whole
// handler (server.Handler().ServeHTTP), then the calls the handler makes
// for the same request, one by one — spec parsing, the batch engine with
// the handler's default options, and the spec encoding plus the
// handler's JSON encoding — and, beside them, kernel.Pack,
// kernel.Delta.ComputeDelta and core.ComputeRadius on the same inputs.
// The handler's time that those three calls do not account for is the
// envelope, body read, admission and logging: server.self_us.

// span is one timed call of the replay.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a request's root span
	Name   string `json:"name"`
	Req    int    `json:"request_id"`
	Start  int64  `json:"start_ns"` // since the replay started
	End    int64  `json:"end_ns"`
	Attr   string `json:"attr,omitempty"`
}

// tracer keeps spans in memory; they are written out when the run ends.
// A nil tracer times nothing and records nothing.
type tracer struct {
	t0    time.Time
	spans []span
}

// do runs fn inside a span and returns the span's index.
func (t *tracer) do(name string, parent, req int, fn func()) int {
	if t == nil {
		fn()
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req, Start: int64(time.Since(t.t0))})
	fn()
	t.spans[id].End = int64(time.Since(t.t0))
	return id
}

func (t *tracer) begin(name string, req int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: -1, Name: name, Req: req, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t != nil {
		t.spans[id].End = int64(time.Since(t.t0))
	}
}

func (t *tracer) setAttr(id int, attr string) {
	if t != nil {
		t.spans[id].Attr = attr
	}
}

// sink is a reusable in-memory ResponseWriter.
type sink struct {
	hdr    http.Header
	status int
	buf    bytes.Buffer
}

func (s *sink) Header() http.Header         { return s.hdr }
func (s *sink) WriteHeader(status int)      { s.status = status }
func (s *sink) Write(p []byte) (int, error) { return s.buf.Write(p) }
func (s *sink) Flush()                      {}

func (s *sink) reset() {
	s.hdr = http.Header{}
	s.status = http.StatusOK
	s.buf.Reset()
}

// replayer holds the in-process server and the engine state the
// decomposed calls share.
type replayer struct {
	w       *workload
	handler http.Handler
	cache   *batch.Cache
	opts    batch.Options
	out     sink
	enc     bytes.Buffer
	cursor  int

	// per-call accounting of the traced pass
	responseBytes int
	watchSteps    int
	watchChanged  int
}

func newReplayer(w *workload) *replayer {
	// The handler's configuration is fepiad's with default flags: JSON
	// access logs (discarded here), degraded serving on, every trace kept.
	srv := server.New(server.Config{
		Log:         obs.NewLogger(io.Discard, "json", slog.LevelInfo),
		Degraded:    true,
		TraceSample: 1,
	})
	cache := batch.NewCache(0)
	return &replayer{w: w, handler: srv.Handler(), cache: cache,
		opts: batch.Options{Cache: cache, Retry: &faults.Policy{MaxAttempts: server.DefaultRetryAttempts}, ShareBoundaries: true}}
}

// serve runs one request through the handler.
func (r *replayer) serve(body []byte) error {
	req, err := http.NewRequest(http.MethodPost, r.w.endpoint, bytes.NewReader(body))
	if err != nil {
		return err
	}
	r.out.reset()
	r.handler.ServeHTTP(&r.out, req)
	if r.out.status != http.StatusOK {
		return fmt.Errorf("handler answered %d: %.200s", r.out.status, r.out.buf.String())
	}
	return nil
}

// request replays pool[idx]: the handler, then the decomposed calls.
func (r *replayer) request(ctx context.Context, t *tracer, rid, idx int) (err error) {
	body := r.w.pool[idx]
	root := t.begin("request", rid)
	defer t.end(root)
	t.do("server.handler", root, rid, func() { err = r.serve(body) })
	if err != nil {
		return err
	}
	r.responseBytes += r.out.buf.Len()
	switch r.w.endpoint {
	case "/v1/analyze":
		return r.analyze(ctx, t, root, rid, body)
	case "/v1/batch":
		return r.batch(ctx, t, root, rid, body)
	default:
		return r.watch(ctx, t, root, rid, body)
	}
}

func (r *replayer) analyze(ctx context.Context, t *tracer, root, rid int, body []byte) (err error) {
	var sys *spec.System
	t.do("spec.parse", root, rid, func() { sys, err = spec.Parse(body) })
	if err != nil {
		return err
	}
	rs := &batch.RequestStats{}
	var a core.Analysis
	t.do("batch.analyze", root, rid, func() {
		opts := r.opts
		opts.Core = sys.Options
		a, err = batch.AnalyzeOneContext(batch.WithRequestStats(ctx, rs),
			batch.Job{Features: sys.Features, Perturbation: sys.Perturbation}, opts)
	})
	if err != nil {
		return err
	}
	t.do("spec.encode", root, rid, func() {
		res := spec.Encode(sys.Name, a)
		res.Meta = &spec.ResponseMeta{Cache: rs.Source()}
		r.enc.Reset()
		_, err = indentJSON(&r.enc, res)
	})
	if err != nil {
		return err
	}
	return r.layersBeside(t, root, rid, sys)
}

func (r *replayer) batch(ctx context.Context, t *tracer, root, rid int, body []byte) (err error) {
	var systems []*spec.System
	t.do("spec.parse", root, rid, func() { systems, err = spec.ParseBatch(body) })
	if err != nil {
		return err
	}
	analyses := make([]core.Analysis, len(systems))
	sources := make([]string, len(systems))
	t.do("batch.analyze", root, rid, func() {
		err = batch.ForEach(ctx, len(systems), 0, func(k int) error {
			rs := &batch.RequestStats{}
			opts := r.opts
			opts.Core = systems[k].Options
			a, err := batch.AnalyzeOneContext(batch.WithRequestStats(ctx, rs),
				batch.Job{Features: systems[k].Features, Perturbation: systems[k].Perturbation}, opts)
			analyses[k], sources[k] = a, rs.Source()
			return err
		})
	})
	if err != nil {
		return err
	}
	t.do("spec.encode", root, rid, func() {
		resp := spec.BatchResponse{Results: make([]spec.ResultJSON, len(systems)), Meta: &spec.ResponseMeta{}}
		for k, sys := range systems {
			resp.Results[k] = spec.Encode(sys.Name, analyses[k])
			resp.Results[k].Meta = &spec.ResponseMeta{Cache: sources[k]}
			resp.Meta.Cache = spec.WorstCache(resp.Meta.Cache, sources[k])
		}
		r.enc.Reset()
		_, err = indentJSON(&r.enc, resp)
	})
	if err != nil {
		return err
	}
	for _, sys := range systems {
		if err := r.layersBeside(t, root, rid, sys); err != nil {
			return err
		}
	}
	return nil
}

func (r *replayer) watch(ctx context.Context, t *tracer, root, rid int, body []byte) (err error) {
	var (
		req spec.WatchRequest
		sys *spec.System
	)
	t.do("spec.parse", root, rid, func() { req, sys, err = parseWatch(body) })
	if err != nil {
		return err
	}
	var w *batch.Watcher
	t.do("batch.watch_open", root, rid, func() {
		opts := r.opts
		opts.Core = sys.Options
		w, err = batch.NewWatcher(batch.Job{Features: sys.Features, Perturbation: sys.Perturbation}, opts)
	})
	if err != nil {
		return err
	}
	r.enc.Reset()
	enc := json.NewEncoder(&r.enc)
	total := 0
	for _, pt := range req.Points {
		rs := &batch.RequestStats{}
		var st batch.StepResult
		t.do("batch.watch_step", root, rid, func() { st, err = w.Step(batch.WithRequestStats(ctx, rs), pt) })
		if err != nil {
			return err
		}
		r.watchSteps++
		r.watchChanged += len(st.Changed)
		total += len(st.Changed)
		t.do("spec.encode", root, rid, func() {
			frame := spec.EncodeWatchFrame(st.Step, pt, st.Analysis, st.Changed)
			frame.Meta = &spec.ResponseMeta{Cache: rs.Source()}
			err = enc.Encode(frame)
		})
		if err != nil {
			return err
		}
	}
	t.do("spec.encode", root, rid, func() {
		err = enc.Encode(spec.WatchSummary{Done: true, Steps: len(req.Points), TotalChanged: total})
	})
	if err != nil {
		return err
	}
	if err := r.layersBeside(t, root, rid, sys); err != nil {
		return err
	}

	// The kernel's incremental path on the same trajectory: one full
	// sweep at the first point, then one delta per nudge.
	linear, dim, norm := kernelInputs(sys)
	if len(linear) == 0 {
		return nil
	}
	pack, err := kernel.Pack(linear, dim, norm)
	if err != nil {
		return err
	}
	d := pack.Delta()
	out := make([]core.RadiusResult, len(linear))
	t.do("kernel.delta_full", root, rid, func() { _, err = d.Full(req.Points[0], out) })
	for s := 1; s < len(req.Points) && err == nil; s++ {
		t.do("kernel.delta", root, rid, func() { _, _, err = d.ComputeDelta(req.Points[s-1], req.Points[s], nil, out) })
	}
	return err
}

// layersBeside times the layers below the engine on one system:
// kernel.Pack of its linear features and core.ComputeRadius of every
// feature at the operating point, labelled with the method it used.
func (r *replayer) layersBeside(t *tracer, root, rid int, sys *spec.System) (err error) {
	if linear, dim, norm := kernelInputs(sys); len(linear) > 0 {
		t.do("kernel.pack", root, rid, func() { _, err = kernel.Pack(linear, dim, norm) })
		if err != nil {
			return err
		}
	}
	copts := sys.Options.WithDefaults()
	for _, f := range sys.Features {
		var res core.RadiusResult
		id := t.do("core.radius", root, rid, func() { res, err = core.ComputeRadius(f, sys.Perturbation, copts) })
		if err != nil {
			return err
		}
		if res.Method == core.MethodHyperplane || res.Method == core.MethodNone {
			t.setAttr(id, "analytic")
		} else {
			t.setAttr(id, "numeric")
		}
	}
	return nil
}

// kernelInputs returns the system's kernel-eligible features.
func kernelInputs(sys *spec.System) ([]core.Feature, int, vecmath.Norm) {
	copts := sys.Options.WithDefaults()
	dim := len(sys.Perturbation.Orig)
	var linear []core.Feature
	for _, f := range sys.Features {
		if kernel.Eligible(f, dim, copts.Norm) {
			linear = append(linear, f)
		}
	}
	return linear, dim, copts.Norm
}

// replayRequests is how many requests one replay pass sends: enough
// passes over the pool for steady means, one pass for the batch pool
// (which must stay cold and is already large).
func replayRequests(w *workload) int {
	switch w.endpoint {
	case "/v1/analyze":
		return 4 * len(w.pool)
	case "/v1/watch":
		return 2 * len(w.pool)
	}
	return len(w.pool)
}

// runReplay measures the per-layer metrics: a handler-only pass for
// allocations, an untraced and a traced pass of the decomposed replay
// (their difference is the tracer's own overhead), then the layer table
// from the traced pass's spans, which are written to
// <out>/<workload>-spans.jsonl.
func (b *bench) runReplay(ctx context.Context, rep *report) error {
	r := newReplayer(b.w)
	n := replayRequests(b.w)
	next := func() int {
		i := r.cursor % len(b.w.pool)
		r.cursor++
		return i
	}
	if b.w.endpoint == "/v1/analyze" {
		// The served workload is warm: fill both caches first.
		for i := range b.w.pool {
			if err := r.request(ctx, nil, -1, i); err != nil {
				return err
			}
		}
	}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		if err := r.serve(b.w.pool[next()]); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&m1)
	allocs := float64(m1.Mallocs-m0.Mallocs) / float64(n)

	// Untraced and traced replays alternate request by request, so drift
	// in the machine's speed does not show up as tracing overhead. The
	// counters below cover both halves: 2n requests.
	r.responseBytes, r.watchSteps, r.watchChanged = 0, 0, 0
	reqBytes := 0
	cs0 := r.cache.Stats()
	tr := &tracer{t0: time.Now(), spans: make([]span, 0, n*160)}
	var untraced, traced time.Duration
	for i := 0; i < n; i++ {
		for _, t := range []*tracer{nil, tr} {
			idx := next()
			reqBytes += len(b.w.pool[idx])
			t0 := time.Now()
			if err := r.request(ctx, t, i, idx); err != nil {
				return err
			}
			if t == nil {
				untraced += time.Since(t0)
			} else {
				traced += time.Since(t0)
			}
		}
	}
	cs1 := r.cache.Stats()

	if err := writeSpans(filepath.Join(b.cfg.outDir, b.w.name+"-spans.jsonl"), tr.spans); err != nil {
		return err
	}

	// Per-name totals of the traced pass.
	total := map[string]time.Duration{}
	count := map[string]int{}
	var handlers []time.Duration
	var analytic, numeric time.Duration
	numericRadii := 0
	for _, s := range tr.spans {
		d := time.Duration(s.End - s.Start)
		total[s.Name] += d
		count[s.Name]++
		switch {
		case s.Name == "server.handler":
			handlers = append(handlers, d)
		case s.Attr == "analytic":
			analytic += d
		case s.Attr == "numeric":
			numeric += d
			numericRadii++
		}
	}
	perReq := func(names ...string) float64 {
		var d time.Duration
		for _, name := range names {
			d += total[name]
		}
		return us(d) / float64(n)
	}
	perSpan := func(d time.Duration, k int) float64 {
		if k == 0 {
			return 0
		}
		return us(d) / float64(k)
	}
	handler := perReq("server.handler")
	parse := perReq("spec.parse")
	engine := perReq("batch.analyze", "batch.watch_open", "batch.watch_step")
	encode := perReq("spec.encode")
	self := handler - parse - engine - encode
	slices.Sort(handlers)
	hits, misses := float64(cs1.Hits-cs0.Hits), float64(cs1.Misses-cs0.Misses)
	hitRatio := 0.0
	if hits+misses > 0 {
		hitRatio = hits / (hits + misses)
	}
	changedPerStep := 0.0
	if r.watchSteps > 0 {
		changedPerStep = float64(r.watchChanged) / float64(r.watchSteps)
	}
	for k, v := range map[string]float64{
		"server.handler_us":            handler,
		"server.self_us":               self,
		"server.allocs_per_req":        allocs,
		"server.response_bytes":        float64(r.responseBytes) / float64(2*n),
		"http.overhead_us":             us(b.loopbackP50) - us(quantile(handlers, 0.5)),
		"spec.parse_us":                parse,
		"spec.encode_us":               encode,
		"spec.request_bytes":           float64(reqBytes) / float64(2*n),
		"batch.analyze_us":             engine,
		"batch.cache_hit_ratio":        hitRatio,
		"batch.watch_step_us":          perSpan(total["batch.watch_step"], count["batch.watch_step"]),
		"batch.watch_changed_per_step": changedPerStep,
		"kernel.pack_us":               perReq("kernel.pack"),
		"kernel.delta_us":              perSpan(total["kernel.delta"], count["kernel.delta"]),
		"core.analytic_radius_us":      perSpan(analytic, count["core.radius"]-numericRadii),
		"core.numeric_radius_us":       perSpan(numeric, numericRadii),
		"core.numeric_radii":           float64(numericRadii) / float64(n),
		"trace.uncovered_share":        self / handler,
		"trace.span_overhead_us":       us(traced-untraced) / float64(n),
	} {
		rep.perLayer[k] = v
	}

	rows := layerTable(tr.spans, n, handler)
	printf("# traced replay: %d requests, %d spans, %.1f us/request traced vs %.1f untraced", n, len(tr.spans), us(traced)/float64(n), us(untraced)/float64(n))
	printf("# %-8s %8s %14s %14s %10s", "layer", "spans", "total us/req", "self us/req", "of handler")
	for _, row := range rows {
		printf("# %-8s %8d %14.2f %14.2f %9.1f%%", row.layer, row.spans, row.totalUS, row.selfUS, 100*row.share)
	}
	printf("# share of server.handler_us no span covers (envelope, body read, admission, logging): %.1f%%", 100*self/handler)
	return nil
}

// layerTable groups the spans by layer (the name before the first dot)
// and gives each layer's total and self time per request: self is the
// span time its child spans do not cover.
func layerTable(spans []span, n int, handlerUS float64) []layerRow {
	childTime := make([]time.Duration, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			childTime[s.Parent] += time.Duration(s.End - s.Start)
		}
	}
	rows := map[string]*layerRow{}
	var order []string
	for i, s := range spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		row := rows[layer]
		if row == nil {
			row = &layerRow{layer: layer}
			rows[layer] = row
			order = append(order, layer)
		}
		d := time.Duration(s.End - s.Start)
		row.spans++
		row.totalUS += us(d) / float64(n)
		row.selfUS += us(d-childTime[i]) / float64(n)
	}
	out := make([]layerRow, 0, len(order))
	for _, layer := range order {
		row := rows[layer]
		row.share = row.totalUS / handlerUS
		out = append(out, *row)
	}
	return out
}

// writeSpans writes one JSON object per span.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
