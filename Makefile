GO ?= go

.PHONY: all build test race vet lint lintdoc checklinks bench microbench report results-check tier1 tier2 serve loadtest fuzz chaos smoke

all: tier1

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# lint: go vet and the exported-identifier doc-comment audit always;
# staticcheck when installed (CI installs it, local runs skip it
# gracefully rather than demand a tool download).
lint: vet lintdoc
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping (go vet ran)"; \
	fi

# lintdoc: fail when an exported identifier in the audited packages
# (internal/vecmath, internal/batch, internal/kernel) has no doc comment.
lintdoc:
	./scripts/lintdoc.sh

# checklinks: verify intra-repo markdown links and cmd/<name> mentions in
# README.md, EXPERIMENTS.md, DESIGN.md and docs/ resolve to existing
# files and command directories (CI docs job).
checklinks:
	./scripts/checklinks.sh

# Race-detector run over the whole module, with an explicit pass over the
# concurrent batch engine (worker pool + shared radius cache).
race:
	$(GO) test -race ./internal/batch/...
	$(GO) test -race ./...

# bench: the reproducible benchmark harness — pinned seeds, frozen
# single-mutex baseline vs the live sharded cache, SoA kernel vs the
# per-feature analytic loop, the loadgen-driven multi-node cluster
# series (warm-hit scaling at 3 in-process nodes, kill-a-node chaos
# story), the restart series (warm boot from a cache snapshot vs
# cold restart), and the incremental series (delta re-analysis session
# vs full recomputes along a trajectory). BENCH_10.json artifact with
# >=2x contended, >=4x kernel, >=3x incremental, >=2.2x cluster-scaling,
# and >=1.5x warm-boot-p99 gates plus byte-identity, zero-dropped, and
# first-request-hit checks (see cmd/bench, cmd/loadgen, and
# docs/PERFORMANCE.md).
bench:
	./scripts/bench.sh

# microbench: one pass over the go-test micro benchmarks.
microbench:
	$(GO) test -bench=. -benchtime=1x ./...

report:
	$(GO) run ./cmd/report

# results-check: byte-diff the full report against the committed
# RESULTS.txt, pinning the paper's numbers across engine refactors
# (CI tier1 job).
results-check:
	@out=$$(mktemp) && trap 'rm -f "$$out"' EXIT && \
	$(GO) run ./cmd/report >"$$out" && \
	diff -u RESULTS.txt "$$out" && \
	echo "results-check: cmd/report output is byte-identical to RESULTS.txt"

# serve: run the fepiad HTTP robustness-analysis service on :8080
# (see docs/SERVICE.md for the endpoint reference).
serve:
	$(GO) run ./cmd/fepiad

# loadtest: hammer a fepiad with generated report-style specs. By default
# it spins up its own in-process server; set LOADTEST_URL to target a
# running instance (e.g. one started with `make serve`).
LOADTEST_URL ?=
loadtest:
ifeq ($(LOADTEST_URL),)
	$(GO) run ./cmd/loadgen -self -n 2000 -c 32 -batch 8
else
	$(GO) run ./cmd/loadgen -url $(LOADTEST_URL) -n 2000 -c 32 -batch 8
endif

# fuzz: a bounded fuzzing smoke over the spec parser, the wire codec's
# decode and encode parity with encoding/json, the retryable-error
# classifier, and the cache-snapshot decoder (CI runs this). The codec
# targets cap minimisation so a large 64×64 seed cannot eat the budget.
fuzz:
	$(GO) test -fuzz=FuzzParse -fuzztime=30s ./internal/spec
	$(GO) test -fuzz=FuzzDecodeParity -fuzztime=30s -fuzzminimizetime=5s ./internal/spec
	$(GO) test -fuzz=FuzzEncodeParity -fuzztime=30s -fuzzminimizetime=5s ./internal/spec
	$(GO) test -fuzz=FuzzRetryable -fuzztime=30s ./internal/faults
	$(GO) test -fuzz=FuzzSnapshotDecode -fuzztime=30s ./internal/batch

# chaos: the seeded fault-injection suite under the race detector —
# injected errors/panics/latency/cancels through the batch engine, the
# radius cache under concurrent eviction, breaker transitions, degraded
# serving, and the cluster kill-a-node story (a peer dies mid-run and
# every request still answers). Set FEPIA_CHAOS_SEED=<n> to pin the
# seeded schedule when reproducing a failure.
chaos:
	$(GO) test -race -run 'Chaos|Breaker|Degraded|Fault|Retry|Cluster' ./internal/faults ./internal/batch ./internal/server ./internal/cluster

# smoke: boot a real fepiad, drive one analysis, and curl the
# observability endpoints (/metrics, /debug/vars, /debug/traces).
smoke:
	./scripts/smoke.sh

# tier1: the gate every change must keep green.
tier1: build test

# tier2: static analysis plus the race detector across the module.
tier2: vet race
