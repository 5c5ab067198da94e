package server

// End-to-end tests of the observability surfaces: the Prometheus text
// exposition on /metrics, its agreement with the expvar document on
// /debug/vars (both read the same obs.Registry instruments), the
// per-endpoint latency split, and the per-stage request traces on
// /debug/traces — including retry-attempt counts on solve spans when the
// fault harness makes the engine stumble.

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"fepia/internal/faults"
	"fepia/internal/obs"
)

// metricLine matches one Prometheus sample line: name, optional labels,
// a float value, and an optional OpenMetrics-style exemplar suffix
// (` # {trace_id="…"} <value>`) on histogram bucket lines.
var metricLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (NaN|[+-]?Inf|[-+0-9.eE]+)( # \{trace_id="[0-9a-f]{16}"\} [-+0-9.eE]+)?$`)

// scrape fetches and parses /metrics into name{labels} → value, failing
// the test on any line that is not valid text exposition.
func scrape(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q, want text/plain; version=0.0.4", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	samples := make(map[string]float64)
	typed := make(map[string]bool) // families announced by a # TYPE line
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if f := strings.Fields(line); len(f) >= 4 && f[1] == "TYPE" {
				typed[f[2]] = true
			}
			continue
		}
		m := metricLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("invalid exposition line: %q", line)
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			switch m[3] {
			case "+Inf":
				v = math.Inf(1)
			case "-Inf":
				v = math.Inf(-1)
			default:
				v = math.NaN()
			}
		}
		samples[m[1]+m[2]] = v
		// Histogram sample names carry a _bucket/_sum/_count suffix off
		// the family's # TYPE name.
		family := m[1]
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(family, suf); ok && typed[base] {
				family = base
				break
			}
		}
		if !typed[family] {
			t.Errorf("sample %q has no preceding # TYPE line", line)
		}
	}
	return samples
}

// debugVars fetches and decodes /debug/vars.
func debugVars(t *testing.T, url string) map[string]any {
	t.Helper()
	resp, err := http.Get(url + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vars map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatalf("/debug/vars is not valid JSON: %v", err)
	}
	return vars
}

// traces fetches and decodes /debug/traces.
func traces(t *testing.T, url string) obs.RingSnapshot {
	t.Helper()
	resp, err := http.Get(url + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap obs.RingSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("/debug/traces is not valid JSON: %v", err)
	}
	return snap
}

// TestMetricsExpositionAgreesWithVars drives both /v1/ endpoints, then
// checks the Prometheus document parses, splits latency per endpoint,
// and agrees with /debug/vars on every shared counter — the two surfaces
// read the same registry instruments, so disagreement is a bug by
// construction.
func TestMetricsExpositionAgreesWithVars(t *testing.T) {
	ts := httptest.NewServer(New(quietConfig(Config{})).Handler())
	defer ts.Close()

	for i := 0; i < 2; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/analyze", linearSpec(i))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("analyze %d: status %d (%s)", i, resp.StatusCode, body)
		}
	}
	batchBody := `{"systems": [` + linearSpec(0) + `,` + linearSpec(7) + `]}`
	if resp, body := postJSON(t, ts.URL+"/v1/batch", batchBody); resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d (%s)", resp.StatusCode, body)
	}

	m := scrape(t, ts.URL)
	want := map[string]float64{
		`fepiad_requests_total{endpoint="analyze"}`:            2,
		`fepiad_requests_total{endpoint="batch"}`:              1,
		`fepiad_request_duration_ms_count{endpoint="analyze"}`: 2,
		`fepiad_request_duration_ms_count{endpoint="batch"}`:   1,
		`fepiad_analyses_total`:                                4, // 2 single + 1 batch of 2
		`fepiad_errors_total{endpoint="analyze"}`:              0,
		`fepiad_in_flight`:                                     0,
		`fepiad_breaker_state{endpoint="analyze"}`:             0, // closed
	}
	for series, v := range want {
		if got, ok := m[series]; !ok || got != v {
			t.Errorf("%s = %v (present=%v), want %v", series, got, ok, v)
		}
	}
	// The +Inf bucket of a histogram equals its _count.
	if inf := m[`fepiad_request_duration_ms_bucket{endpoint="analyze",le="+Inf"}`]; inf != 2 {
		t.Errorf("analyze +Inf bucket = %v, want 2", inf)
	}
	if m[`fepiad_cache_misses`] <= 0 {
		t.Errorf("fepiad_cache_misses = %v, want > 0", m[`fepiad_cache_misses`])
	}

	vars := debugVars(t, ts.URL)
	agreements := []struct {
		varKey string
		series float64
	}{
		{"fepiad.requests", m[`fepiad_requests_total{endpoint="analyze"}`] + m[`fepiad_requests_total{endpoint="batch"}`]},
		{"fepiad.analyses", m[`fepiad_analyses_total`]},
		{"fepiad.rejected", m[`fepiad_rejected_total`]},
		{"fepiad.retries", m[`fepiad_retries_total`]},
		{"fepiad.degraded", m[`fepiad_degraded_total`]},
	}
	for _, a := range agreements {
		got, ok := vars[a.varKey].(float64)
		if !ok || got != a.series {
			t.Errorf("/debug/vars %s = %v (present=%v), want %v (per /metrics)", a.varKey, vars[a.varKey], ok, a.series)
		}
	}

	// Per-endpoint latency split in the expvar document: the aggregate is
	// the merge of the two endpoint histograms.
	count := func(key string) float64 {
		h, _ := vars[key].(map[string]any)
		c, _ := h["count"].(float64)
		return c
	}
	if c := count("fepiad.latency_ms.analyze"); c != 2 {
		t.Errorf("fepiad.latency_ms.analyze count = %v, want 2", c)
	}
	if c := count("fepiad.latency_ms.batch"); c != 1 {
		t.Errorf("fepiad.latency_ms.batch count = %v, want 1", c)
	}
	if agg, split := count("fepiad.latency_ms"), count("fepiad.latency_ms.analyze")+count("fepiad.latency_ms.batch"); agg != split {
		t.Errorf("aggregate latency count %v != sum of endpoint counts %v", agg, split)
	}
}

// TestTraceStages sends one traced request per endpoint and checks
// /debug/traces records it under the caller's X-Request-Id with a span
// for every pipeline stage — the kernel sweep of the linear feature and
// the per-feature solve of the convex one.
func TestTraceStages(t *testing.T) {
	ts := httptest.NewServer(New(quietConfig(Config{})).Handler())
	defer ts.Close()

	req, err := http.NewRequest("POST", ts.URL+"/v1/analyze", strings.NewReader(webFarm))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", "trace-e2e-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-Id"); got != "trace-e2e-1" {
		t.Errorf("X-Request-Id echoed as %q, want trace-e2e-1", got)
	}

	snap := traces(t, ts.URL)
	var tr *obs.TraceData
	for i := range snap.Recent {
		if snap.Recent[i].ID == "trace-e2e-1" {
			tr = &snap.Recent[i]
			break
		}
	}
	if tr == nil {
		t.Fatalf("trace-e2e-1 not in /debug/traces (have %d recent)", len(snap.Recent))
	}
	if tr.Endpoint != "analyze" || tr.Status != http.StatusOK {
		t.Errorf("trace endpoint/status = %s/%d, want analyze/200", tr.Endpoint, tr.Status)
	}
	stages := make(map[string]int)
	for _, sp := range tr.Spans {
		stages[sp.Name]++
	}
	// webFarm has one linear feature, swept in one kernel span, and one
	// convex "terms" feature: one cache_get span (a miss on a fresh
	// server, so one cache_put span) inside one solve span.
	for stage, n := range map[string]int{
		"parse": 1, "breaker": 1, "admit": 1, "encode": 1,
		"kernel": 1, "solve": 1, "cache_get": 1, "cache_put": 1,
	} {
		if stages[stage] != n {
			t.Errorf("stage %q: %d spans, want %d (have %v)", stage, stages[stage], n, stages)
		}
	}
	for _, sp := range tr.Spans {
		if sp.Name == "solve" && sp.Retries != 0 {
			t.Errorf("fault-free solve span carries %d retries", sp.Retries)
		}
	}

	// A request without an X-Request-Id gets a generated one, also traced.
	resp2, _ := postJSON(t, ts.URL+"/v1/analyze", linearSpec(1))
	if rid := resp2.Header.Get("X-Request-Id"); rid == "" {
		t.Error("no X-Request-Id generated for untagged request")
	} else if got := traces(t, ts.URL); got.Recent[0].ID != rid {
		t.Errorf("newest trace ID = %q, want generated %q", got.Recent[0].ID, rid)
	}
}

// TestTraceSolveRetries injects one transient solve fault per feature via
// an exact script and checks the solve spans of the traced batch request
// record the retry attempts the policy spent recovering.
func TestTraceSolveRetries(t *testing.T) {
	inj := faults.NewScript().
		At(faults.Solve, 1, faults.KindError).
		At(faults.Solve, 3, faults.KindPanic)
	s := New(quietConfig(Config{Injector: inj, Workers: 1}))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"systems": [` + linearSpec(5) + `]}`
	resp, out := postJSON(t, ts.URL+"/v1/batch", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 after retries (%s)", resp.StatusCode, out)
	}

	snap := traces(t, ts.URL)
	if len(snap.Recent) == 0 {
		t.Fatal("no traces recorded")
	}
	var retried int
	for _, sp := range snap.Recent[0].Spans {
		if sp.Name == "solve" && sp.Retries > 0 {
			retried++
		}
	}
	// Faults fired on solve calls 1 and 3: with one worker both features
	// retried exactly once, and both spans must say so.
	if retried != 2 {
		t.Errorf("%d solve spans carry retries, want 2 (spans: %+v)", retried, snap.Recent[0].Spans)
	}
	if m := scrape(t, ts.URL); m[`fepiad_retries_total`] != 2 {
		t.Errorf("fepiad_retries_total = %v, want 2", m[`fepiad_retries_total`])
	}
}

// TestFaultGaugesFromSeededInjector checks a stats-keeping injector feeds
// the fepiad_faults_injected series.
func TestFaultGaugesFromSeededInjector(t *testing.T) {
	inj := faults.NewSeeded(1, faults.Config{
		Rates:     map[faults.Point]map[faults.Kind]float64{faults.Solve: {faults.KindError: 1}},
		MaxFaults: 1,
	})
	s := New(quietConfig(Config{Injector: inj}))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/v1/analyze", linearSpec(9))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 after retry (%s)", resp.StatusCode, body)
	}
	m := scrape(t, ts.URL)
	if got := m[`fepiad_faults_injected{kind="error",point="solve"}`]; got != 1 {
		t.Errorf(`fepiad_faults_injected{kind="error",point="solve"} = %v, want 1`, got)
	}
}
