package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// child is one running fepiad process.
type child struct {
	cmd     *exec.Cmd
	logPath string
	base    string // http://host:port
	exited  chan struct{}
	waitErr error
}

// startChild boots fepiad with its default flags, passing only a
// loopback listen address on a kernel-chosen port and sending its logs
// to logPath.
func startChild(bin, logPath string) (*child, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	cmd.Stdout, cmd.Stderr = logf, logf
	// The child must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting fepiad: %w", err)
	}
	c := &child{cmd: cmd, logPath: logPath, exited: make(chan struct{})}
	go func() {
		c.waitErr = cmd.Wait()
		close(c.exited)
	}()
	return c, nil
}

// waitReady blocks until the child logs its listen address and its
// /healthz answers 200.
func (c *child) waitReady(ctx context.Context, hc *http.Client) error {
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for c.base == "" {
		if addr := servingAddr(c.logPath); addr != "" {
			c.base = "http://" + addr
			break
		}
		select {
		case <-c.exited:
			return fmt.Errorf("fepiad exited during start-up: %v (log %s)", c.waitErr, c.logPath)
		case <-ctx.Done():
			return fmt.Errorf("fepiad did not log its address: %w", ctx.Err())
		case <-tick.C:
		}
	}
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
		if err != nil {
			return err
		}
		if resp, err := hc.Do(req); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-c.exited:
			return fmt.Errorf("fepiad exited during start-up: %v (log %s)", c.waitErr, c.logPath)
		case <-ctx.Done():
			return fmt.Errorf("fepiad /healthz never answered: %w", ctx.Err())
		case <-tick.C:
		}
	}
}

// servingAddr returns the address in the child's "serving" log line, or
// "" while it has not been written yet.
func servingAddr(logPath string) string {
	data, err := os.ReadFile(logPath)
	if err != nil {
		return ""
	}
	for _, line := range bytes.Split(data, []byte{'\n'}) {
		var rec struct {
			Msg  string `json:"msg"`
			Addr string `json:"addr"`
		}
		if json.Unmarshal(line, &rec) == nil && rec.Msg == "serving" {
			return rec.Addr
		}
	}
	return ""
}

// stop asks the child to drain (SIGTERM) and waits for it to exit,
// killing it if the drain takes too long.
func (c *child) stop() error {
	_ = c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-c.exited:
	case <-time.After(20 * time.Second):
		_ = c.cmd.Process.Kill()
		<-c.exited
		return errors.New("fepiad did not drain within 20s and was killed")
	}
	var ee *exec.ExitError
	if c.waitErr != nil && !errors.As(c.waitErr, &ee) {
		return c.waitErr
	}
	if c.waitErr != nil {
		return fmt.Errorf("fepiad exited uncleanly: %v (log %s)", c.waitErr, c.logPath)
	}
	return nil
}

// peakRSSMB is the child's VmHWM (peak resident set) in MiB.
func (c *child) peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/" + strconv.Itoa(c.cmd.Process.Pid) + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// scrapedCounters are the /metrics series whose deltas each phase
// reports, keyed by the exposition name.
var scrapedCounters = []string{
	"fepiad_cache_hits",
	"fepiad_cache_misses",
	"fepiad_rejected_total",
	"fepiad_analyses_total",
	"fepiad_watch_changed_radii_total",
}

// scrape reads the unlabelled scrapedCounters from the child's /metrics.
func (c *child) scrape(ctx context.Context, hc *http.Client) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping /metrics: status %d", resp.StatusCode)
	}
	out := make(map[string]float64, len(scrapedCounters))
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		for _, want := range scrapedCounters {
			if name == want {
				v, err := strconv.ParseFloat(strings.Fields(val)[0], 64)
				if err != nil {
					return nil, fmt.Errorf("parsing %s: %w", name, err)
				}
				out[name] = v
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	for _, want := range scrapedCounters {
		if _, ok := out[want]; !ok {
			return nil, fmt.Errorf("/metrics has no %s", want)
		}
	}
	return out, nil
}
