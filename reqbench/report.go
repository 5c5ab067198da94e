package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// machine records where a run was measured.
type machine struct {
	nproc, gomaxprocs      int
	goVersion, cpu, commit string
}

func machineRecord() machine {
	m := machine{nproc: runtime.NumCPU(), gomaxprocs: gomaxprocs, goVersion: runtime.Version(),
		cpu: "unknown", commit: "unknown"}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				m.cpu = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	// The build stamps the commit when it runs inside a git checkout;
	// an exported tree has none.
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := ""
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				m.commit = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
		m.commit += dirty
	}
	return m
}

// layerRow is one line of the traced replay's layer table.
type layerRow struct {
	layer                  string
	spans                  int
	totalUS, selfUS, share float64 // per request; share is of server.handler_us
}

// report is what one run measured; run prints one of its two metric
// sets as the result line.
type report struct {
	setups   []float64          // seconds of each set-up
	counters map[string]float64 // server counter deltas over the measured phases
	endToEnd map[string]float64
	perLayer map[string]float64
}
