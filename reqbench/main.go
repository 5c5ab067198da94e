// Command reqbench is the request-level benchmark of fepiad. It boots a
// real cmd/fepiad child process with its default flags (only the listen
// address is passed; logs go to a file), drives it over loopback HTTP
// from this one process with a workload generated from -seed, checks
// every response against the library path, and prints its metrics as
// the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 they
// are the per-layer ones, taken from a traced in-process replay of the
// same request bodies plus the server's own counters over the
// end-to-end phases. BENCHMARK.json at the repository root lists both
// sets, the workloads and the reasons they were chosen.
//
// reqbench/run.sh builds fepiad and this command from the checkout and
// runs it from the checkout root:
//
//	bash reqbench/run.sh --workload analyze-wide-warm --seed 1 --seconds 30 --trace 0
//
// A run has three parts (reqbench/README.md has the details):
//
//   - Set-up, repeated at least three times on a fresh child each time:
//     process start until /healthz answers, plus one warm-up pass over
//     the workload's pool. setup_s is the median. The last child stays up.
//   - The correctness gate, outside every timed window: each distinct
//     request's warm-up response, with its meta blocks stripped, must
//     equal the library path's bytes (spec.Parse, batch.AnalyzeOneContext
//     on a fresh cache, spec.Encode); sampled watch frames must match a
//     cold analysis at their point. Every timed response is then compared
//     against the same bytes. A mismatch fails the operation and the run.
//   - Ten rounds, each an open loop at the workload's fixed rate
//     (latency, timed from when each request was due) and a closed loop
//     with one client per CPU (throughput), each bracketed by /metrics
//     scrapes. Latency and throughput are medians over the rounds.
//
// A run whose load generator ran late, or whose open-loop backlog grew,
// is invalid: it prints the reason and exits with status 3 and no result.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a client of fepiad sees, printed with -trace 0.
// The benchmark reports success_rate rather than an error rate so that no
// end-to-end metric is zero on a healthy run. The p99 latency is printed
// with the per-layer metrics, as loadgen.latency_p99_ms: on a shared
// 2-vCPU host its run-to-run spread (20-37% of the median) exceeds any
// regression bound the benchmark may set.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"throughput_rps", "1/s"},
	{"success_rate", "ratio"},
	{"server_rss_mb", "MB"},
}

// perLayer are the per-layer metrics, printed with -trace 1. Times are
// means per request unless the name says per step or per radius; a layer
// the workload's requests never reach reports 0.
var perLayer = []metricDef{
	{"server.handler_us", "us"},
	{"server.self_us", "us"},
	{"server.allocs_per_req", "count"},
	{"server.response_bytes", "bytes"},
	{"http.overhead_us", "us"},
	{"spec.parse_us", "us"},
	{"spec.encode_us", "us"},
	{"spec.request_bytes", "bytes"},
	{"batch.analyze_us", "us"},
	{"batch.cache_hit_ratio", "ratio"},
	{"batch.watch_step_us", "us"},
	{"batch.watch_changed_per_step", "count"},
	{"kernel.pack_us", "us"},
	{"kernel.delta_us", "us"},
	{"core.analytic_radius_us", "us"},
	{"core.numeric_radius_us", "us"},
	{"core.numeric_radii", "count"},
	{"trace.uncovered_share", "ratio"},
	{"trace.span_overhead_us", "us"},
	{"fepiad.cache_hits", "count"},
	{"fepiad.cache_misses", "count"},
	{"fepiad.cache_hit_ratio", "ratio"},
	{"fepiad.rejected", "count"},
	{"fepiad.analyses", "count"},
	{"fepiad.watch_changed_radii", "count"},
	{"loadgen.error_rate", "ratio"},
	{"loadgen.latency_p99_ms", "ms"},
	{"loadgen.lateness_p99_ms", "ms"},
	{"loadgen.lateness_max_ms", "ms"},
	{"loadgen.backlog", "count"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final stdout line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// errInvalid marks a run whose measurement conditions did not hold.
var errInvalid = errors.New("invalid run")

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload name: "+wlAnalyze+", "+wlBatch+" or "+wlWatch)
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "length of the measured open-loop plus closed-loop phases")
	flag.IntVar(&cfg.trace, "trace", 0, "1 prints the per-layer metrics of the traced replay instead of the end-to-end ones")
	flag.StringVar(&cfg.fepiad, "fepiad", "", "path of the fepiad binary to boot")
	flag.StringVar(&cfg.outDir, "out", ".bench_build/reqbench", "directory for the child's log and the span file")
	flag.Parse()
	if cfg.fepiad == "" || cfg.seconds <= 0 || (cfg.trace != 0 && cfg.trace != 1) {
		fmt.Fprintln(os.Stderr, "reqbench: -fepiad is required, -seconds must be positive and -trace 0 or 1")
		flag.Usage()
		os.Exit(2)
	}

	res, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reqbench:", err)
		if errors.Is(err, errInvalid) {
			os.Exit(3)
		}
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reqbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	fepiad   string
	outDir   string
}

// run executes one benchmark run and returns its result line. Details
// that are not metrics (machine record, per-phase counts, the layer
// table) are printed to stdout before it.
func run(ctx context.Context, cfg config) (*result, error) {
	w, err := newWorkload(cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	b := newBench(w, cfg)
	m := machineRecord()
	printf("# machine: nproc=%d GOMAXPROCS=%d go=%s cpu=%q commit=%s", m.nproc, m.gomaxprocs, m.goVersion, m.cpu, m.commit)
	rep := &report{counters: map[string]float64{}, perLayer: map[string]float64{}}

	err = b.runEndToEnd(ctx, rep, cfg.trace == 1)
	if err == nil && cfg.trace == 1 {
		err = b.runReplay(ctx, rep)
	}
	if err != nil {
		return nil, err
	}

	res := &result{Correct: b.ops.mismatch.Load() == 0, Attempted: b.ops.attempted.Load(), Failed: b.ops.failed(),
		Metrics: map[string]metricValue{}}
	defs, values := endToEnd, rep.endToEnd
	if cfg.trace == 1 {
		defs, values = perLayer, rep.perLayer
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return res, nil
}

// printf writes one human-readable line to stdout; the JSON result line
// always comes last.
func printf(format string, args ...any) {
	fmt.Printf(format+"\n", args...)
}

// gomaxprocs is read once; the benchmark never changes it.
var gomaxprocs = runtime.GOMAXPROCS(0)
