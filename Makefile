# Repository check targets. `make check` is the CI gate: formatting,
# vet, build, the full test suite under the race detector, and a bounded
# fuzz smoke over the PHP lexer and parser.

GO ?= go
# Per-target budget for the fuzz smoke; raise for a real fuzzing session
# (e.g. make fuzz-smoke FUZZTIME=10m).
FUZZTIME ?= 10s

.PHONY: check fmt vet build test race fuzz-smoke crash-matrix registry-sim daemon-chaos engine-diff summary-diff bench bench-scan bench-smt bench-interp bench-interp-diff bench-smoke

check: fmt vet build race fuzz-smoke bench-smoke

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; \
		gofmt -d $$out; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Crash-safety acceptance suite under the race detector: kill the batch
# at every journal-write boundary and require the resumed sweep to merge
# byte-identically (uchecker), plus the journal corruption matrix and
# cache torture tests (scanjournal) and the cancellation/loader
# robustness satellites.
crash-matrix:
	$(GO) test -race -run 'TestCrashResumeMatrix|TestBatchJournalCorruptionRecovery|TestBatchResumeAfterOptionsChange|TestBatchSemanticCorruptionCompaction|TestBatchDuplicateTargetNames|TestBatchCacheCorrectness|TestBatchCacheReadFault|TestScanBatchCancelledTargets' ./internal/uchecker
	$(GO) test -race ./internal/scanjournal
	$(GO) test -race -run 'TestLoadTargetUnreadable|TestWriteToAtomic' ./cmd/uchecker

# Bounded coverage-guided fuzzing of the robustness frontier: the lexer
# and parser must never panic on malformed PHP (the scanner's parse-stage
# fault containment assumes it), and the tree walker and bytecode VM must
# agree on arbitrary programs (the engine-equivalence invariant). Seed
# corpora live under each package's testdata/fuzz/.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzLex$$' -fuzztime $(FUZZTIME) ./internal/phplex
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME) ./internal/phpparser
	$(GO) test -run '^$$' -fuzz '^FuzzParseExpr$$' -fuzztime $(FUZZTIME) ./internal/phpparser
	$(GO) test -run '^$$' -fuzz '^FuzzEngineEquivalence$$' -fuzztime $(FUZZTIME) ./internal/interp
	$(GO) test -run '^$$' -fuzz '^FuzzSummaryEquivalence$$' -fuzztime $(FUZZTIME) ./internal/interp
	$(GO) test -run '^$$' -fuzz '^FuzzJournalFold$$' -fuzztime $(FUZZTIME) ./internal/scanjournal
	$(GO) test -run '^$$' -fuzz '^FuzzCoordFold$$' -fuzztime $(FUZZTIME) ./internal/shardcoord

# Registry-scale distributed-scanning acceptance suite under the race
# detector: a 4-worker fleet over a 40-target corpus with a victim
# worker killed (crash semantics) at every lease/journal/publish/fold
# boundary, a paused-then-resumed zombie writer fenced off by token
# checks, graceful SIGTERM-style drain, a real kill -9 of a worker
# subprocess, and the shardcoord lease-protocol suite. The resumed
# fleet's merged report must be byte-identical to an uninterrupted
# single-process sweep; a clean run's merged report is archived at
# REGISTRY_SIM_merged.json.
registry-sim:
	REGISTRY_SIM_OUT=$(CURDIR)/REGISTRY_SIM_merged.json $(GO) test -race -run 'TestRegistrySimCrashMatrix|TestWorkerFleetMergesIdentical|TestWorkerZombieFencedEndToEnd|TestWorkerDrainReleasesLease|TestBatchDrainSemantics|TestBatchCancelSemantics|TestBatchTransientAppendRetry|TestSubprocessKillNine' ./internal/uchecker
	$(GO) test -race ./internal/shardcoord
	@echo "wrote REGISTRY_SIM_merged.json"

# Scan-as-a-service crash-tolerance acceptance suite under the race
# detector: the daemon is killed at EVERY job-lifecycle journal append
# (submit/start/finish of every job plus the manifest, at 1 and 4 scan
# workers) and at each daemon-specific fault seam
# (dequeue/checkpoint/drain), plus a real kill -9 of a daemon
# subprocess mid-scan; every restarted daemon must resume the accepted
# jobs to results byte-identical to an uninterrupted baseline, with no
# job lost, none double-submitted, and at most one terminal journal
# record per job. The clean baseline's canonical reports and the matrix
# shape are archived at DAEMON_CHAOS_matrix.json.
daemon-chaos:
	DAEMON_CHAOS_OUT=$(CURDIR)/DAEMON_CHAOS_matrix.json $(GO) test -race -run 'TestDaemonChaosMatrix|TestDaemonSeamCrashes|TestDaemonChaosKillNine$$' ./internal/scand
	@echo "wrote DAEMON_CHAOS_matrix.json"

# Engine-differential acceptance suite under the race detector: tree vs
# VM byte-identical findings on every corpus app at Workers=1/4, the
# Table III verdict sweep (including the Cimy miss) under the VM, the
# deterministic counter table, and the unit-level equivalence matrix.
engine-diff:
	$(GO) test -race -run 'TestEngineDifferentialCorpus|TestEngineVM' ./internal/uchecker
	$(GO) test -race -run 'TestEngineEquivalence|TestEngineFactoryCounters' ./internal/interp
	$(GO) test -race -run 'TestTableIIIVerdictsVMEngine|TestCounterTableVMDeterministic' ./internal/evalharness

# Interprocedural-strategy differential acceptance suite under the race
# detector: summary vs inline on every corpus app at Workers=1/4
# (findings and Table III verdicts byte-identical modulo summary-only
# work counters), the Cimy path-explosion case completing cleanly under
# default budgets with zero retries, tree-vs-VM equivalence under the
# summary strategy, the summary artifact cache's cold/warm/corrupt/
# version-skew cycle, the daemon's cross-job summary reuse, and the
# unit-level merge/summary suites.
summary-diff:
	$(GO) test -race -run 'TestSummaryDifferentialCorpus|TestCimySummaryCompletes|TestSummaryEngineDifferential|TestInterprocFingerprintToken|TestInlineReportHasNoSummaryCounters|TestSummaryArtifactCache' ./internal/uchecker
	$(GO) test -race -run 'TestMerge|TestNoMerge|TestTrivial|TestEscapedCallee|TestMethodCallNeverSummarized|TestSummary' ./internal/interp
	$(GO) test -race ./internal/summary
	$(GO) test -race -run 'TestHTTPMetricsExposeSummaryCounters' ./internal/scand

# Paper-evaluation benchmarks (bench_test.go).
bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# The Scanner v2 serial-vs-parallel pair.
bench-scan:
	$(GO) test -run '^$$' -bench 'BenchmarkScan(Serial|Parallel|Roots)' .

# Shared-structure constraint-engine micro-benchmarks (interned vs the
# -no-intern ablation), archived as JSON for cross-commit comparison.
bench-smt:
	@{ $(GO) test -run '^$$' -bench 'BenchmarkSimplifyShared|BenchmarkSolverIncremental|BenchmarkInternConstruction' -benchtime 2s -benchmem ./internal/smt; \
	   $(GO) test -run '^$$' -bench 'BenchmarkPathForkDeep' -benchtime 2s -benchmem ./internal/heapgraph; } | tee /dev/stderr | $(GO) run ./cmd/benchjson > BENCH_smt.json
	@echo "wrote BENCH_smt.json"

# Execution-engine benchmarks: bytecode compilation, the tree-vs-VM
# symbolic-execution pair, compile-once amortization across a 32-root
# app, and the full-corpus sweep — archived as JSON for cross-commit
# comparison.
bench-interp:
	@$(GO) test -run '^$$' -bench 'BenchmarkEngine' -benchtime 2s -benchmem . | tee /dev/stderr | $(GO) run ./cmd/benchjson > BENCH_interp.json
	@echo "wrote BENCH_interp.json"

# Engine-benchmark regression gate: re-runs bench-interp's suite and
# fails when ns/op or allocs/op regresses more than 15% against the
# committed BENCH_interp.json. The fresh run lands in
# BENCH_interp.new.json — CI archives it as the candidate baseline, and
# after an intentional perf change it replaces the committed file.
bench-interp-diff:
	@$(GO) test -run '^$$' -bench 'BenchmarkEngine' -benchtime 2s -benchmem . | tee /dev/stderr | \
	  $(GO) run ./cmd/benchjson -baseline BENCH_interp.json -max-regress 15 -match '^BenchmarkEngine' -out BENCH_interp.new.json
	@echo "wrote BENCH_interp.new.json (candidate baseline)"

# One-iteration smoke over the front-end, constraint-engine and
# execution-engine benchmarks: keeps the benchmark harnesses compiling and
# running inside `make check` without paying for a real measurement.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkSimplifyShared|BenchmarkSolverIncremental|BenchmarkInternConstruction' -benchtime 1x ./internal/smt
	$(GO) test -run '^$$' -bench 'BenchmarkPathForkDeep' -benchtime 1x ./internal/heapgraph
	$(GO) test -run '^$$' -bench 'BenchmarkLex$$|BenchmarkPhaseParse$$|BenchmarkEngine(Compile|SymbolicExecution|ScanRoots)' -benchtime 1x .
