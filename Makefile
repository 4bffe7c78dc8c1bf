# Developer entry points. `make tier1` is the gate a change must pass:
# lint (go vet + gofmt + skewlint) + build + the full test suite, then the suite
# again under the race detector in -short mode (which still runs a real
# optimization flow via the core stage-subset test, just not the
# multi-minute matrices), then the skewd crash/fault/drain end-to-end, the
# skewfleet replica-failover end-to-end, and the skewload group-commit
# load/durability end-to-end, then builds, tests and lints the bench/
# module.

GO ?= go
GOFMT ?= gofmt

.PHONY: tier1 vet lint lint-new lint-fix-report cover build test race serve-e2e fleet-e2e load-e2e journal-e2e bench-check fuzz help

tier1: lint cover build test race serve-e2e fleet-e2e load-e2e journal-e2e bench-check

vet:
	$(GO) vet ./...

# gofmt must leave every tracked Go file unchanged, except the analyzer
# corpus under internal/analysis/testdata: it is analyzer input, and its
# `// want` comment layout is part of the test. skewlint enforces the
# repo's machine-checked invariants (determinism, cancellation, error
# taxonomy, pooled concurrency — see docs/ANALYSIS.md). Exit codes: 0
# clean, 1 findings, 2 analysis failure (docs/ROBUSTNESS.md).
lint: vet
	@unformatted=$$($(GOFMT) -l $$(git ls-files '*.go' | grep -v '^internal/analysis/testdata/')); \
	if [ -n "$$unformatted" ]; then echo "gofmt would change:"; echo "$$unformatted"; exit 1; fi
	$(GO) run ./cmd/skewlint ./...

# Fast iteration on the flow-sensitive service-layer analyzers only
# (lockscope/ackorder/deferbal over serve, fleet, atomicio).
lint-new:
	$(GO) run ./cmd/skewlint -only lockscope,ackorder,deferbal ./...

# Machine-readable findings for tooling/triage: writes LINT_report.json and
# always exits 0 (the report is the artifact; `make lint` is the gate).
lint-fix-report:
	$(GO) run ./cmd/skewlint -json ./... > LINT_report.json || true
	@echo "wrote LINT_report.json"

# Per-package statement coverage (-short; the matrices don't change
# coverage). internal/obs carries a hard 70% floor — it is the measurement
# layer, and an unmeasured measurement layer is how silent trace corruption
# ships. Every other package is report-only in COVER_report.txt.
cover:
	$(GO) test -short -count=1 -cover ./... > COVER_report.txt || { cat COVER_report.txt; exit 1; }
	@cat COVER_report.txt
	@pct=$$(awk '$$2=="skewvar/internal/obs" && $$4=="coverage:" {print $$5}' COVER_report.txt | tr -d '%'); \
	if [ -z "$$pct" ]; then echo "cover: no coverage line for internal/obs"; exit 1; fi; \
	if ! awk -v p="$$pct" 'BEGIN {exit !(p+0 >= 70)}'; then \
		echo "cover: internal/obs coverage $$pct% is under the 70% floor"; exit 1; fi; \
	echo "cover: internal/obs coverage $$pct% (floor 70%); other packages report-only"

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The race pass runs -short (skips the multi-minute matrices but still
# drives a real optimization flow), then hammers the parallel-equivalence
# tests three extra times: the move pool's bit-identical reduction, the
# move scorer's read-only pre-order index of pair sinks, its per-scorer
# pair state and the read-only pre-move wire (preNet) that concurrent
# Gain calls share (TestSinkRangesMatchWalkParallel,
# TestGainMatchesAllSinksReferenceParallel,
# TestTouchedGainMatchesReferenceParallel) and the timer's concurrent
# callers (one timer, or timers sharing a net cache) are the invariants
# most worth catching a data race in.
race:
	$(GO) test -race -short ./...
	$(GO) test -race -count=3 -run 'Parallel' ./internal/sta/ ./internal/core/ ./internal/obs/ ./internal/faults/ ./internal/serve/

# skewd end-to-end: submit, kill -9 mid-job, restart, verify the resumed
# output is byte-identical to an uninterrupted run; plus the fault matrix
# (dead journal -> 507 storage, worker panic -> isolated failure, wedged job ->
# deadline cancel) and the SIGTERM backpressure/drain/resume cycle; plus
# the warm-net-cache cycle (resubmit -> zero misses + identical bytes,
# restart -> cold cache + identical bytes).
serve-e2e:
	$(GO) test -run 'TestSkewd' -count=1 -v ./internal/clitest/
	$(GO) test -run 'TestNetCacheCrossJobReuse' -count=1 -v ./internal/serve/

# skewfleet end-to-end: crash a replica that owns a running job and verify
# a peer steals its journal and finishes it byte-identical to an
# uninterrupted single-node run (2 seeds x {1,3} replicas x {1,4} intra-job
# workers), plus the partition / delayed-heartbeat matrix (dispatch
# failover, breaker quarantine, false-positive death under fencing) with
# the no-job-lost-or-duplicated journal invariant checked after each run.
fleet-e2e:
	$(GO) test -run 'TestSkewfleet' -count=1 -v ./internal/clitest/

# skewload end-to-end: drive a live skewd over HTTP at fsync-per-line and
# group-commit settings, assert every acked job survives (the run audits
# durability by fetching every acked id back), group commit amortizes
# fsyncs, throughput doesn't regress, and the per-tenant rate limiter
# 429s a hot tenant without losing a job (docs/PERFORMANCE.md).
load-e2e:
	$(GO) test -run 'TestSkewload' -count=1 -v ./internal/clitest/

# Storage-fault end-to-end: the snapshot+compaction swap killed at every
# boundary, the deterministic disk-fault matrix (disk-full, fsync-error,
# read-corrupt, rename-torn) over compaction/restart/steal, the scrub's
# quarantine/heal pipeline, oversized-record replay, steals against
# compacted and half-swapped victims, and live servers crashing mid-swap.
# Every case audits the recovered admitted set against the pre-fault fold
# (docs/ROBUSTNESS.md, "Durable storage format").
journal-e2e:
	$(GO) test -run 'TestCompaction|TestScrub|TestCorruptSnapshot|TestOversizedRecordReplay|TestSpoolCLI|TestStealFrom|TestLiveCompact' -count=1 -v ./internal/serve/
	$(GO) test -run 'TestStealFromCompactedReplica' -count=1 -v ./internal/fleet/

# The pipeline benchmark (bench/) is its own Go module, so the root
# `go build ./...` never compiles it, yet it calls the flow entry points
# (NewMoveScorer, Gain, BuildDataset, RunFlows). Vet and test it against
# the working tree, then lint it together with the packages it imports.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...
	$(GO) run ./cmd/skewlint -dir bench ./... skewvar/internal/...

# 30-second fuzz passes over every fuzz target: the design reader's
# validation layer, the journal frame decoder on bytes read back from
# disk, the LP solver against its dense reference solver, the dual ratio
# test's heap against a sort of every breakpoint, the scratch-built route
# builders against their allocating reference, the Algorithm-1 search
# against its per-candidate reference, the flat RC layout against
# rctree's test-only oracle tree (reference_test.go), the local stage's
# top-move selection against a stable sort of every move (the last six
# bit-identical), and skewlint's CFG builder on arbitrary function bodies.
fuzz:
	$(GO) test ./internal/edaio/ -run '^$$' -fuzz FuzzReadDesign -fuzztime 30s
	$(GO) test ./internal/edaio/atomicio/ -run '^$$' -fuzz FuzzReadFrame -fuzztime 30s
	$(GO) test ./internal/lp/ -run '^$$' -fuzz FuzzSolveMatchesReference -fuzztime 30s
	$(GO) test ./internal/lp/ -run '^$$' -fuzz FuzzDualRatioMatchesSort -fuzztime 30s
	$(GO) test ./internal/route/ -run '^$$' -fuzz FuzzRouteMatchesReference -fuzztime 30s
	$(GO) test ./internal/eco/ -run '^$$' -fuzz FuzzSelectMatchesReference -fuzztime 30s
	$(GO) test ./internal/rctree/ -run '^$$' -fuzz FuzzBuildFlatTree -fuzztime 30s
	$(GO) test ./internal/core/ -run '^$$' -fuzz FuzzTopMoves -fuzztime 30s
	$(GO) test ./internal/analysis/ -run '^$$' -fuzz FuzzBuildCFG -fuzztime 30s

help:
	@echo "tier1            lint + cover + build + test + race (the merge gate)"
	@echo "lint             go vet + gofmt check + skewlint invariant analyzers (docs/ANALYSIS.md)"
	@echo "lint-new         only the flow-sensitive analyzers (lockscope/ackorder/deferbal)"
	@echo "lint-fix-report  skewlint -json -> LINT_report.json (never fails the build)"
	@echo "cover            -short coverage -> COVER_report.txt; internal/obs must be >= 70%"
	@echo "build            go build ./..."
	@echo "test             go test ./..."
	@echo "race             -short suite under -race, then 3x the Parallel equivalence tests"
	@echo "serve-e2e        skewd crash/fault/drain end-to-end (kill -9 resume, fault matrix)"
	@echo "fleet-e2e        skewfleet failover end-to-end (replica kill -> journal steal, partitions)"
	@echo "load-e2e         skewload load/durability end-to-end (group commit vs per-line fsync)"
	@echo "journal-e2e      storage-fault end-to-end (compaction crash boundaries, disk-fault matrix, scrub)"
	@echo "bench-check      vet + test + skewlint the bench/ pipeline-benchmark module"
	@echo "fuzz             30s fuzz each: design reader, journal frames, LP solver, dual ratio test, route builders, Algorithm-1 search, flat RC trees vs their test oracle, top-move selection, CFG builder"
