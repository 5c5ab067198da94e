// Command scenariolab evolves the paper's §3.1 HCS example — independent
// applications mapped onto heterogeneous machines, makespan bounded by
// τ·M^orig — through seeded operational scenarios and reports how the
// robustness metric ρ_μ(Φ, C) behaves over time, using the incremental
// re-analysis engine: one watch session per mapping epoch, each step a
// delta update, not a cold solve.
//
// Scenarios:
//
//   - surge: a load surge on the critical machine's applications — their
//     execution times ramp up to a peak and back down (single epoch).
//   - drift: every application's execution time takes a slow geometric
//     random walk around its estimate (single epoch).
//   - failure: the critical machine fails mid-run — its applications are
//     remapped greedily onto the survivors (new epoch: new feature set,
//     new watch session) — and later recovers (third epoch).
//   - combined: failure riding on top of the surge ramp.
//
// A mapping change is an epoch boundary: the feature set Φ itself changes
// (machine memberships, bound τ·M^orig), so the session is re-opened —
// exactly the pack-reuse boundary of the kernel delta path. Within an
// epoch every step reuses the session.
//
// The lab drives either the in-process engine (-mode lib, a
// batch.Watcher) or a running fepiad (-mode live, streaming frames from
// GET|POST /v1/watch); both produce identical trajectories.
//
// Reported per run: the radius trajectory (per-step ρ, critical feature,
// changed-radius count), time-to-degraded (first step with ρ below the
// threshold), and recovery time (steps until ρ is back above it).
//
// Usage:
//
//	scenariolab [-scenario surge|drift|failure|combined] [-seed N]
//	            [-steps N] [-tasks N] [-machines N] [-tau T]
//	            [-threshold R] [-mode lib|live] [-url http://...]
//	            [-json]
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"net/http"
	"os"
	"time"

	"fepia/internal/batch"
	"fepia/internal/etcgen"
	"fepia/internal/hcs"
	"fepia/internal/indalloc"
	"fepia/internal/spec"
	"fepia/internal/stats"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("scenariolab: ")
	scenario := flag.String("scenario", "failure", "timeline to run: surge, drift, failure, or combined")
	seed := flag.Int64("seed", 2003, "scenario seed (timeline and system are fully determined by it)")
	steps := flag.Int("steps", 30, "total trajectory steps across all epochs")
	tasks := flag.Int("tasks", 20, "applications |A|")
	machines := flag.Int("machines", 5, "machines |M|")
	tau := flag.Float64("tau", 1.2, "makespan tolerance (bound is τ·M^orig per epoch)")
	threshold := flag.Float64("threshold", 0, "degraded threshold on ρ (0 = half the first step's ρ)")
	mode := flag.String("mode", "lib", "engine: lib (in-process) or live (a running fepiad)")
	url := flag.String("url", "http://localhost:8080", "fepiad base URL for -mode live")
	jsonOut := flag.Bool("json", false, "emit the machine-readable report instead of text")
	flag.Parse()

	epochs, err := buildScenario(*scenario, *seed, *steps, *tasks, *machines, *tau)
	if err != nil {
		log.Fatal(err)
	}

	var traj []stepRecord
	switch *mode {
	case "lib":
		traj, err = runLib(epochs)
	case "live":
		traj, err = runLive(*url, epochs)
	default:
		err = fmt.Errorf("unknown -mode %q (want lib or live)", *mode)
	}
	if err != nil {
		log.Fatal(err)
	}

	rep := summarize(*scenario, *seed, *threshold, epochs, traj)
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			log.Fatal(err)
		}
		return
	}
	printReport(rep)
}

// epoch is one mapping regime: a fixed feature set watched across its
// trajectory points. Epoch boundaries (machine failure, recovery) change
// the system document itself, so each epoch is its own watch session.
type epoch struct {
	Name   string      `json:"name"`
	File   spec.File   `json:"-"`
	Points [][]float64 `json:"-"`
}

// stepRecord is one point of the robustness-over-time trajectory.
type stepRecord struct {
	Step       int     `json:"step"`  // 1-based, global across epochs
	Epoch      string  `json:"epoch"` // epoch name
	Robustness float64 `json:"robustness"`
	Critical   string  `json:"critical_feature,omitempty"`
	Changed    int     `json:"changed"` // radii that moved vs the previous step
}

// report is the machine-readable run summary (-json).
type report struct {
	Scenario   string       `json:"scenario"`
	Seed       int64        `json:"seed"`
	Epochs     []string     `json:"epochs"`
	Threshold  float64      `json:"threshold"`
	Trajectory []stepRecord `json:"trajectory"`
	// MinRobustness and MinStep locate the trajectory's worst point.
	MinRobustness float64 `json:"min_robustness"`
	MinStep       int     `json:"min_step"`
	// TimeToDegraded is the first step with ρ below the threshold, -1 if
	// the run never degrades. RecoverySteps is how many steps ρ then
	// stays below it before recovering, -1 if it never does.
	TimeToDegraded int `json:"time_to_degraded"`
	RecoverySteps  int `json:"recovery_steps"`
}

// buildScenario generates the seeded system and its timeline. All
// randomness flows from one stats.RNG, so a (scenario, seed, sizes)
// tuple is one reproducible experiment in both modes.
func buildScenario(scenario string, seed int64, steps, tasks, machines int, tau float64) ([]epoch, error) {
	if steps < 3 {
		return nil, fmt.Errorf("-steps %d too short to tell a story (want ≥ 3)", steps)
	}
	rng := stats.NewRNG(seed)
	params := etcgen.PaperParams()
	params.Tasks, params.Machines = tasks, machines
	etc, err := etcgen.Generate(rng, params)
	if err != nil {
		return nil, err
	}
	inst, err := hcs.NewInstance(etc)
	if err != nil {
		return nil, err
	}
	// Start from a balanced mapping (greedy Minimum Completion Time, the
	// immediate-mode heuristic of the paper's reference [21]): losing a
	// machine from a balanced system is a genuine capacity loss, whereas
	// rebalancing a random mapping can accidentally IMPROVE the makespan
	// and invert the failure story.
	mapping, err := mctMapping(inst, -1)
	if err != nil {
		return nil, err
	}
	res, err := indalloc.Evaluate(mapping, tau)
	if err != nil {
		return nil, err
	}
	crit := res.CriticalMachine
	// The makespan promise is set once, from the nominal mapping (Eq. 3's
	// τ·M^orig): a machine failure does not renegotiate the SLO, it eats
	// into the slack against it — that is what time-to-degraded measures.
	bound := tau * mapping.Makespan(mapping.ETCVector())

	switch scenario {
	case "surge":
		ep := epoch{Name: "nominal", File: systemFile(mapping, bound, "surge")}
		point := mapping.ETCVector()
		for t := 0; t < steps; t++ {
			ep.Points = append(ep.Points, surgePoint(point, mapping, crit, t, steps))
		}
		return []epoch{ep}, nil

	case "drift":
		ep := epoch{Name: "nominal", File: systemFile(mapping, bound, "drift")}
		point := mapping.ETCVector()
		for t := 0; t < steps; t++ {
			ep.Points = append(ep.Points, append([]float64(nil), point...))
			point = driftStep(rng, point)
		}
		return []epoch{ep}, nil

	case "failure", "combined":
		surged := scenario == "combined"
		failAt, recoverAt := steps/3, 2*steps/3
		failed, err := remapWithout(mapping, crit)
		if err != nil {
			return nil, err
		}
		eps := []epoch{
			{Name: "nominal", File: systemFile(mapping, bound, scenario)},
			{Name: fmt.Sprintf("failed(m%d)", crit), File: systemFile(failed, bound, scenario)},
			{Name: "recovered", File: systemFile(mapping, bound, scenario)},
		}
		point := mapping.ETCVector()
		for t := 0; t < steps; t++ {
			var m *hcs.Mapping
			var ei int
			switch {
			case t < failAt:
				m, ei = mapping, 0
			case t < recoverAt:
				m, ei = failed, 1
			default:
				m, ei = mapping, 2
			}
			// Epoch entry: re-estimate the point on the epoch's mapping —
			// remapped applications get the ETC of their new machine.
			if t == failAt || t == recoverAt {
				point = reestimate(point, m)
			}
			p := append([]float64(nil), point...)
			if surged {
				p = surgePoint(p, m, crit, t, steps)
			}
			eps[ei].Points = append(eps[ei].Points, p)
			point = driftStep(rng, point)
		}
		return eps, nil
	}
	return nil, fmt.Errorf("unknown -scenario %q (want surge, drift, failure, or combined)", scenario)
}

// systemFile renders a mapping as the spec document both modes analyse:
// one finishing-time feature per non-empty machine, bounded above by the
// run-wide makespan promise (Eq. 3 with the nominal mapping's τ·M^orig),
// over the per-application execution-time perturbation (§3.1). Building
// the document — rather than core.Feature values directly — keeps lib
// and live modes on the same parse path, so their trajectories are
// byte-comparable.
func systemFile(m *hcs.Mapping, bound float64, scenario string) spec.File {
	orig := m.ETCVector()
	f := spec.File{
		Name:         "scenariolab-" + scenario,
		Perturbation: spec.PerturbationSpec{Name: "C", Orig: orig, Units: "time"},
	}
	for j := 0; j < m.Instance().Machines(); j++ {
		apps := m.OnMachine(j)
		if len(apps) == 0 {
			continue
		}
		coeffs := make([]float64, m.Instance().Applications())
		for _, i := range apps {
			coeffs[i] = 1
		}
		b := bound
		f.Features = append(f.Features, spec.FeatureSpec{
			Name:   fmt.Sprintf("F_%d", j),
			Max:    &b,
			Impact: spec.ImpactSpec{Type: "linear", Coeffs: coeffs},
		})
	}
	return f
}

// surgePoint applies the load-surge multiplier to the applications on
// machine target: a triangular ramp peaking at +60% halfway through the
// run — the classic λ-surge shape of an arrival burst.
func surgePoint(point []float64, m *hcs.Mapping, target, t, steps int) []float64 {
	half := float64(steps-1) / 2
	ramp := 1 - math.Abs(float64(t)-half)/half // 0 → 1 → 0
	mult := 1 + 0.6*ramp
	out := append([]float64(nil), point...)
	for _, i := range m.OnMachine(target) {
		out[i] *= mult
	}
	return out
}

// driftStep advances every execution time by one step of a geometric
// random walk (±2% volatility): ETC estimates erring slowly, the exact
// perturbation §3.1 analyses.
func driftStep(rng *stats.RNG, point []float64) []float64 {
	next := make([]float64, len(point))
	for i, c := range point {
		next[i] = c * math.Exp(0.02*rng.NormFloat64())
	}
	return next
}

// mctMapping assigns every application greedily to the machine with the
// least resulting finishing time (the Minimum Completion Time heuristic
// of the paper's reference [21]), skipping the excluded machine (-1
// excludes none).
func mctMapping(inst *hcs.Instance, excluded int) (*hcs.Mapping, error) {
	assign := make([]int, inst.Applications())
	load := make([]float64, inst.Machines())
	for i := range assign {
		best, bestLoad := -1, math.Inf(1)
		for k := 0; k < inst.Machines(); k++ {
			if k == excluded {
				continue
			}
			if done := load[k] + inst.ETC(i, k); done < bestLoad {
				best, bestLoad = k, done
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("no machine available (excluded %d of %d)", excluded, inst.Machines())
		}
		assign[i] = best
		load[best] = bestLoad
	}
	return hcs.NewMapping(inst, assign)
}

// remapWithout simulates machine failed dying: its applications move to
// the surviving machine with the least predicted finishing time, greedily
// in application order (MCT restricted to survivors); applications
// already elsewhere stay put, as a real rescheduler would leave them.
func remapWithout(m *hcs.Mapping, failed int) (*hcs.Mapping, error) {
	inst := m.Instance()
	if inst.Machines() < 2 {
		return nil, fmt.Errorf("cannot fail machine %d of a %d-machine system", failed, inst.Machines())
	}
	assign := append([]int(nil), m.Assign...)
	load := make([]float64, inst.Machines())
	for i, j := range assign {
		if j != failed {
			load[j] += inst.ETC(i, j)
		}
	}
	for i, j := range assign {
		if j != failed {
			continue
		}
		best, bestLoad := -1, math.Inf(1)
		for k := 0; k < inst.Machines(); k++ {
			if k == failed {
				continue
			}
			if done := load[k] + inst.ETC(i, k); done < bestLoad {
				best, bestLoad = k, done
			}
		}
		assign[i] = best
		load[best] = bestLoad
	}
	return hcs.NewMapping(inst, assign)
}

// reestimate maps the current execution-time vector onto a new mapping:
// applications whose machine changed take the new machine's ETC estimate
// (their history on the old machine says nothing about the new one);
// everything else keeps its current (possibly drifted) value.
func reestimate(point []float64, m *hcs.Mapping) []float64 {
	next := append([]float64(nil), point...)
	for i, j := range m.Assign {
		if est := m.Instance().ETC(i, j); est != point[i] {
			// Cheap proxy for "machine changed": the drifted value came
			// from the old machine's estimate, so only genuinely remapped
			// applications snap to a new estimate here when the drift
			// happens to coincide — and then the values are equal anyway.
			next[i] = est
		}
	}
	return next
}

// runLib drives the scenario through the in-process engine: one
// batch.Watcher (the kernel delta path) per epoch.
func runLib(epochs []epoch) ([]stepRecord, error) {
	var traj []stepRecord
	ctx := context.Background()
	step := 0
	for _, ep := range epochs {
		sys, err := spec.Build(ep.File)
		if err != nil {
			return nil, err
		}
		w, err := batch.NewWatcher(
			batch.Job{Features: sys.Features, Perturbation: sys.Perturbation},
			batch.Options{Core: sys.Options, ShareBoundaries: true})
		if err != nil {
			return nil, err
		}
		for _, pt := range ep.Points {
			res, err := w.Step(ctx, pt)
			if err != nil {
				return nil, fmt.Errorf("epoch %s: %w", ep.Name, err)
			}
			step++
			rec := stepRecord{Step: step, Epoch: ep.Name,
				Robustness: res.Analysis.Robustness, Changed: len(res.Changed)}
			if cf := res.Analysis.CriticalFeature(); cf != nil {
				rec.Critical = cf.Feature
			}
			traj = append(traj, rec)
		}
	}
	return traj, nil
}

// runLive drives the scenario against a running fepiad: one streamed
// /v1/watch session per epoch, frames decoded as they arrive.
func runLive(baseURL string, epochs []epoch) ([]stepRecord, error) {
	client := &http.Client{Timeout: 5 * time.Minute}
	var traj []stepRecord
	step := 0
	for _, ep := range epochs {
		body, err := json.Marshal(spec.WatchRequest{System: ep.File, Points: ep.Points})
		if err != nil {
			return nil, err
		}
		resp, err := client.Post(baseURL+"/v1/watch", "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, fmt.Errorf("epoch %s: %w", ep.Name, err)
		}
		if resp.StatusCode != http.StatusOK {
			msg, _ := bufio.NewReader(resp.Body).ReadString('\n')
			resp.Body.Close()
			return nil, fmt.Errorf("epoch %s: /v1/watch status %d: %s", ep.Name, resp.StatusCode, msg)
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
		for sc.Scan() {
			line := bytes.TrimSpace(sc.Bytes())
			if len(line) == 0 {
				continue
			}
			var probe struct {
				Done bool `json:"done"`
			}
			if err := json.Unmarshal(line, &probe); err != nil {
				resp.Body.Close()
				return nil, fmt.Errorf("epoch %s: bad frame: %w", ep.Name, err)
			}
			if probe.Done {
				var sum spec.WatchSummary
				if err := json.Unmarshal(line, &sum); err != nil {
					resp.Body.Close()
					return nil, err
				}
				if sum.Error != "" {
					resp.Body.Close()
					return nil, fmt.Errorf("epoch %s: session failed after %d steps: %s (%s)",
						ep.Name, sum.Steps, sum.Error, sum.ErrorKind)
				}
				continue
			}
			var fr spec.WatchFrame
			if err := json.Unmarshal(line, &fr); err != nil {
				resp.Body.Close()
				return nil, err
			}
			step++
			traj = append(traj, stepRecord{Step: step, Epoch: ep.Name,
				Robustness: fr.Robustness, Critical: fr.Critical, Changed: fr.ChangedCount})
		}
		err = sc.Err()
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("epoch %s: %w", ep.Name, err)
		}
	}
	return traj, nil
}

// summarize derives the headline numbers from the trajectory. A zero
// threshold defaults to half the first step's robustness — "the system
// lost half its slack" — so every scenario has a meaningful degraded
// line without hand-tuning.
func summarize(scenario string, seed int64, threshold float64, epochs []epoch, traj []stepRecord) report {
	rep := report{Scenario: scenario, Seed: seed, Trajectory: traj,
		Threshold: threshold, MinRobustness: math.Inf(1), MinStep: -1,
		TimeToDegraded: -1, RecoverySteps: -1}
	for _, ep := range epochs {
		rep.Epochs = append(rep.Epochs, ep.Name)
	}
	if len(traj) == 0 {
		return rep
	}
	if rep.Threshold == 0 {
		rep.Threshold = traj[0].Robustness / 2
	}
	for _, r := range traj {
		if r.Robustness < rep.MinRobustness {
			rep.MinRobustness, rep.MinStep = r.Robustness, r.Step
		}
	}
	for i, r := range traj {
		if r.Robustness < rep.Threshold {
			rep.TimeToDegraded = r.Step
			for j := i + 1; j < len(traj); j++ {
				if traj[j].Robustness >= rep.Threshold {
					rep.RecoverySteps = traj[j].Step - r.Step
					break
				}
			}
			break
		}
	}
	return rep
}

// printReport renders the human-readable trajectory and summary.
func printReport(rep report) {
	fmt.Printf("scenario %s (seed %d): %d steps across epochs %v\n\n",
		rep.Scenario, rep.Seed, len(rep.Trajectory), rep.Epochs)
	fmt.Printf("%5s  %-14s %12s  %-10s %7s\n", "step", "epoch", "ρ_μ(Φ,C)", "critical", "changed")
	for _, r := range rep.Trajectory {
		marker := ""
		if r.Robustness < rep.Threshold {
			marker = "  << degraded"
		}
		fmt.Printf("%5d  %-14s %12.4f  %-10s %7d%s\n",
			r.Step, r.Epoch, r.Robustness, r.Critical, r.Changed, marker)
	}
	fmt.Printf("\nthreshold ρ < %.4f (degraded line)\n", rep.Threshold)
	fmt.Printf("minimum ρ = %.4f at step %d\n", rep.MinRobustness, rep.MinStep)
	if rep.TimeToDegraded < 0 {
		fmt.Println("time to degraded: never — the system held its slack throughout")
	} else {
		fmt.Printf("time to degraded: step %d\n", rep.TimeToDegraded)
		if rep.RecoverySteps < 0 {
			fmt.Println("recovery: none — still degraded at the end of the run")
		} else {
			fmt.Printf("recovery: %d steps below the line\n", rep.RecoverySteps)
		}
	}
}
