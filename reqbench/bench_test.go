package main

import (
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the tests check.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestBenchmarkFileMatchesCatalog checks that BENCHMARK.json declares
// exactly the metrics this command prints, with the same units, and
// gives every workload a one-sentence reason.
func TestBenchmarkFileMatchesCatalog(t *testing.T) {
	f := readBenchmarkFile(t)
	for _, c := range []struct {
		kind     string
		declared []struct{ Name, Unit string }
		printed  []metricDef
	}{{"end_to_end", f.EndToEnd, endToEnd}, {"per_layer", f.PerLayer, perLayer}} {
		if len(c.declared) != len(c.printed) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the command prints %d", c.kind, len(c.declared), len(c.printed))
			continue
		}
		for i, d := range c.declared {
			if d.Name != c.printed[i].name || d.Unit != c.printed[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the command prints %s (%s)",
					c.kind, i, d.Name, d.Unit, c.printed[i].name, c.printed[i].unit)
			}
		}
	}
	want := []string{wlAnalyze, wlBatch, wlWatch}
	if len(f.Workloads) != len(want) {
		t.Fatalf("BENCHMARK.json lists %d workloads, want %v", len(f.Workloads), want)
	}
	for i, w := range f.Workloads {
		if w.Name != want[i] {
			t.Errorf("workload %d is %q, want %q", i, w.Name, want[i])
		}
		if _, err := newWorkload(w.Name, 1); err != nil {
			t.Error(err)
		}
		why := strings.TrimSuffix(w.Why, ".")
		if why == "" || why == w.Why || strings.ContainsAny(why, ".\n") || len(w.Why) > 200 {
			t.Errorf("workload %s: why %q is not one sentence of at most 200 characters", w.Name, w.Why)
		}
	}
}

// TestSmoke runs every workload briefly against a freshly built fepiad
// and expects a correct run with no failed operation that prints every
// metric by name with its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots fepiad")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "fepiad")
	if out, err := exec.Command("go", "build", "-o", bin, "fepia/cmd/fepiad").CombinedOutput(); err != nil {
		t.Fatalf("building fepiad: %v\n%s", err, out)
	}
	runs := []struct {
		workload string
		trace    int
	}{{wlAnalyze, 0}, {wlAnalyze, 1}, {wlBatch, 0}, {wlWatch, 0}, {wlWatch, 1}}
	for _, r := range runs {
		res, err := run(context.Background(), config{workload: r.workload, seed: 3, seconds: 1.5, trace: r.trace,
			fepiad: bin, outDir: dir})
		if err != nil {
			t.Fatalf("%s trace %d: %v", r.workload, r.trace, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s trace %d: correct %v, %d of %d operations failed", r.workload, r.trace, res.Correct, res.Failed, res.Attempted)
		}
		defs := endToEnd
		if r.trace == 1 {
			defs = perLayer
		}
		if len(res.Metrics) != len(defs) {
			t.Errorf("%s trace %d: %d metrics printed, want %d", r.workload, r.trace, len(res.Metrics), len(defs))
		}
		for _, d := range defs {
			if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
				t.Errorf("%s trace %d: metric %s printed as %+v, want unit %s", r.workload, r.trace, d.name, m, d.unit)
			}
		}
	}
}
