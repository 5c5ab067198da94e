// Command report regenerates every artifact of the paper's evaluation —
// Figures 1–4, Table 2 — plus this repository's extension experiments
// X1–X6 and writes a single self-contained text report. It is the one
// reproduction entry point and the companion to EXPERIMENTS.md.
//
// Usage:
//
//	report                        # full paper-scale run (~seconds)
//	report -quick                 # reduced sample counts for a fast smoke run
//	report -out results.txt
//	report -only figure3          # one section's report alone
//	report -only figure3 -csv fig3.csv
//
// report -h lists the section names -only accepts.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"slices"
	"strings"

	"fepia/internal/experiments"
)

// reporter is what every section's experiment returns.
type reporter interface{ Report() string }

// csvWriter is the optional per-section CSV dump selected by -csv.
type csvWriter interface{ WriteCSV(io.Writer) error }

// runState carries the shared flags into each section and memoises the
// Figure 4 population, which Table 2 reuses.
type runState struct {
	seed    int64
	workers int
	quick   bool
	fig4    *experiments.Fig4Result
}

func (st *runState) figure4() (*experiments.Fig4Result, error) {
	if st.fig4 == nil {
		cfg := experiments.PaperFig4Config()
		cfg.Seed, cfg.Workers = st.seed, st.workers
		if st.quick {
			cfg.Mappings = 200
		}
		res, err := experiments.RunFig4(cfg)
		if err != nil {
			return nil, err
		}
		st.fig4 = res
	}
	return st.fig4, nil
}

// section is one report section; name is its -only selector.
type section struct {
	name, title string
	run         func(*runState) (reporter, error)
	// csv is whether the section's result implements csvWriter, known
	// before it runs so that -csv can be rejected up front.
	csv bool
}

func newSection[R reporter](name, title string, run func(*runState) (R, error)) section {
	var zero R
	_, csv := any(zero).(csvWriter)
	return section{name, title, func(st *runState) (reporter, error) { return run(st) }, csv}
}

var sections = []section{
	newSection("figure1", "E1 — Figure 1: boundary curve and robustness radius",
		func(*runState) (*experiments.Fig1Result, error) {
			return experiments.RunFig1(experiments.PaperFig1Config())
		}),
	newSection("figure2", "E2 — Figure 2: HiPer-D DAG and path decomposition",
		func(st *runState) (*experiments.Fig2Result, error) {
			cfg := experiments.PaperFig2Config()
			cfg.Seed = st.seed
			return experiments.RunFig2(cfg)
		}),
	newSection("figure3", "E3 — Figure 3: robustness vs makespan (1000 random mappings)",
		func(st *runState) (*experiments.Fig3Result, error) {
			cfg := experiments.PaperFig3Config()
			cfg.Seed, cfg.Workers = st.seed, st.workers
			if st.quick {
				cfg.Mappings = 200
			}
			return experiments.RunFig3(cfg)
		}),
	newSection("figure4", "E4 — Figure 4: robustness vs slack (1000 random mappings)",
		(*runState).figure4),
	newSection("table2", "E5 — Table 2: similar slack, very different robustness",
		func(st *runState) (*experiments.Table2Pair, error) {
			fig4, err := st.figure4()
			if err != nil {
				return nil, err
			}
			return experiments.FindTable2Pair(fig4, 0.01)
		}),
	newSection("violation", "X1 — Violation probability vs error norm (simulation)",
		func(st *runState) (*experiments.ViolationResult, error) {
			cfg := experiments.PaperViolationConfig()
			cfg.Seed = st.seed
			if st.quick {
				cfg.PerRadius = 300
			}
			return experiments.RunViolation(cfg)
		}),
	newSection("discrete", "X2 — Discrete loads: floor(ρ) vs exact lattice radius",
		func(st *runState) (*experiments.DiscreteResult, error) {
			cfg := experiments.PaperDiscreteConfig()
			cfg.Seed = st.seed
			if st.quick {
				cfg.Mappings = 10
			}
			return experiments.RunDiscrete(cfg)
		}),
	newSection("norms", "X3 — Norm sensitivity: ρ under ℓ₁ / ℓ₂ / ℓ∞",
		func(st *runState) (*experiments.NormsResult, error) {
			cfg := experiments.PaperNormsConfig()
			cfg.Seed = st.seed
			if st.quick {
				cfg.Mappings = 100
			}
			return experiments.RunNorms(cfg)
		}),
	newSection("heuristicstudy", "X4 — Heuristic ablation: makespan-greedy vs robustness-greedy",
		func(st *runState) (*experiments.HeurStudyResult, error) {
			cfg := experiments.PaperHeurStudyConfig()
			cfg.Seed, cfg.Workers = st.seed, st.workers
			if st.quick {
				cfg.Trials = 2
			}
			return experiments.RunHeurStudy(cfg)
		}),
	newSection("dynamicstudy", "X5 — Dynamic mapping: online robustness timeline",
		func(st *runState) (*experiments.DynStudyResult, error) {
			cfg := experiments.PaperDynStudyConfig()
			cfg.Seed, cfg.Workers = st.seed, st.workers
			if st.quick {
				cfg.Trials = 5
			}
			return experiments.RunDynStudy(cfg)
		}),
	newSection("consistency", "X6 — ETC consistency ablation",
		func(st *runState) (*experiments.ConsistencyResult, error) {
			cfg := experiments.PaperConsistencyConfig()
			cfg.Seed = st.seed
			if st.quick {
				cfg.Mappings = 120
			}
			return experiments.RunConsistency(cfg)
		}),
}

func sectionNames() string {
	names := make([]string, len(sections))
	for i, s := range sections {
		names[i] = s.name
	}
	return strings.Join(names, ", ")
}

// errFlags marks a command line the flag set rejected after printing the
// error and the usage itself.
var errFlags = errors.New("invalid flags")

func main() {
	log.SetFlags(0)
	log.SetPrefix("report: ")
	err := run(os.Args[1:], os.Stdout)
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errFlags):
		os.Exit(2)
	default:
		log.Fatal(err)
	}
}

// run parses args, runs the selected sections and writes the report to
// stdout or -out. Usage errors are returned before any section runs or
// any file is created.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	out := fs.String("out", "", "write the report to this file instead of stdout")
	quick := fs.Bool("quick", false, "reduced sample counts")
	seed := fs.Int64("seed", 2003, "experiment seed")
	workers := fs.Int("workers", 0, "worker goroutines for the batch experiments (0 = GOMAXPROCS)")
	only := fs.String("only", "", "run only this section and print its report alone: "+sectionNames())
	csvPath := fs.String("csv", "", "with -only, also write the section's data as CSV to this path")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return fmt.Errorf("%w: %v", errFlags, err)
	}

	todo := sections
	if *only != "" {
		i := slices.IndexFunc(sections, func(s section) bool { return s.name == *only })
		if i < 0 {
			return fmt.Errorf("unknown -only section %q (valid: %s)", *only, sectionNames())
		}
		todo = sections[i : i+1]
	}
	if *csvPath != "" {
		if *only == "" {
			return errors.New("-csv requires -only")
		}
		if !todo[0].csv {
			return fmt.Errorf("section %s has no CSV output", *only)
		}
	}

	st := &runState{seed: *seed, workers: *workers, quick: *quick}
	var last reporter
	// Writes go through a bufio.Writer, whose errors are sticky: the
	// final Flush reports any write that failed.
	write := func(w io.Writer) error {
		if *only == "" {
			fmt.Fprintln(w, "FePIA robustness metric — full experimental report")
			fmt.Fprintln(w, "(regenerates every table and figure of Ali et al., IPPS 2003, plus extensions)")
		}
		for _, s := range todo {
			res, err := s.run(st)
			if err != nil {
				return fmt.Errorf("%s: %w", s.name, err)
			}
			if *only == "" {
				fmt.Fprintf(w, "\n%s\n%s\n\n", s.title, strings.Repeat("-", len(s.title)))
			}
			io.WriteString(w, res.Report())
			last = res
		}
		return nil
	}
	if *out == "" {
		if err := writeBuffered(stdout, write); err != nil {
			return err
		}
	} else if err := writeFile(*out, write); err != nil {
		return err
	}

	if *csvPath != "" {
		if err := writeFile(*csvPath, last.(csvWriter).WriteCSV); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(stdout, "\nCSV written to %s\n", *csvPath); err != nil {
			return err
		}
	}
	if *out != "" {
		_, err := fmt.Fprintf(stdout, "report written to %s\n", *out)
		return err
	}
	return nil
}

// writeBuffered runs write against a buffer over w and flushes it.
func writeBuffered(w io.Writer, write func(io.Writer) error) error {
	bw := bufio.NewWriter(w)
	if err := write(bw); err != nil {
		return err
	}
	return bw.Flush()
}

// writeFile creates path and fills it with write, reporting the first
// write, flush or close error.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeBuffered(f, write); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
