// HiPer-D walkthrough (§3.2): generate the paper's experimental instance
// (3 sensors with the published rates and initial loads, 20 communicating
// applications on 19 paths, 5 multitasking machines), evaluate a mapping's
// robustness against sensor-load increases, and contrast it with slack.
//
// Run with:
//
//	go run ./examples/hiperd
package main

import (
	"fmt"
	"log"
	"sort"

	robustness "fepia"
)

func main() {
	log.SetFlags(0)

	sys, err := robustness.GenerateHiPerD(2003, robustness.PaperHiPerDParams())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("instance: %d sensors, %d applications, %d machines, %d paths\n",
		sys.Sensors(), sys.Applications(), sys.Machines, len(sys.Paths))
	fmt.Printf("sensor rates R = %v (throughput bounds 1/R)\n", sys.SensorRates)
	fmt.Printf("initial loads λ^orig = %v objects/data set\n\n", sys.OrigLoads)

	// Evaluate a handful of random mappings and report the best and worst
	// by robustness.
	type scored struct {
		seed int64
		res  robustness.HiPerDResult
	}
	var all []scored
	for seed := int64(1); seed <= 25; seed++ {
		m := robustness.RandomHiPerDMapping(seed, sys)
		res, err := robustness.EvaluateHiPerD(sys, m)
		if err != nil {
			log.Fatal(err)
		}
		if res.Slack > 0 {
			all = append(all, scored{seed, res})
		}
	}
	if len(all) == 0 {
		log.Fatal("no feasible mapping among the samples")
	}
	sort.Slice(all, func(a, b int) bool { return all[a].res.Robustness < all[b].res.Robustness })

	worst, best := all[0], all[len(all)-1]
	for _, c := range []struct {
		label string
		s     scored
	}{
		{"least robust feasible mapping", worst},
		{"most robust feasible mapping", best},
	} {
		fmt.Printf("%s (mapping seed %d):\n", c.label, c.s.seed)
		fmt.Printf("  robustness ρ(Φ, λ) = %.0f objects/data set\n", c.s.res.Robustness)
		fmt.Printf("  slack              = %.4f\n", c.s.res.Slack)
		if cf := c.s.res.Analysis.CriticalFeature(); cf != nil {
			fmt.Printf("  binding feature    = %s (%s)\n", cf.Feature, cf.Kind)
		}
		fmt.Printf("  λ* at violation    = %.0f\n\n", c.s.res.BoundaryLoads)
	}

	fmt.Println("Interpretation: the system tolerates ANY combination of sensor-load")
	fmt.Println("increases whose Euclidean norm stays below ρ; at λ* the binding")
	fmt.Println("throughput or latency constraint is met with equality. Slack, by")
	fmt.Println("contrast, only describes the operating point — two mappings with the")
	fmt.Println("same slack can differ several-fold in ρ (run `go run ./cmd/report -only table2`).")
}
