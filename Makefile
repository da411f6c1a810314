# Standard developer entry points. Everything is stdlib-only Go; no
# tools beyond the toolchain are required.

.PHONY: build test check race lint lintfix-audit escapecheck escapebaseline slowcheck fuzz scenarios smoke

build:
	go build ./...

# Tier-1: the full suite (daemon wall-clock e2e skips under -short).
test:
	go build ./... && go test ./...

# Pre-merge gate, cheapest checks first: the project analyzers (lint)
# and the escape-analysis gate fail in seconds with file:line
# diagnostics, so they run before vet, the race suites, the
# differential-oracle sweep and churn soak (slowcheck), the in-process
# scenario replay (scenarios) and four short runs of the benchmark
# harness (smoke). It writes no tracked file. Performance is judged by
# the harness alone: `go run ./benchmark -compare a.json b.json`
# (benchmark/README.md).
check: lint escapecheck slowcheck scenarios smoke
	go vet -unsafeptr ./...
	$(MAKE) race

# The race suites: every package that shares state between goroutines
# or is called from one that does (lp and lpmodel for the resident
# lp.Solver store, switchsim for its executor store: four goroutines
# per slot solve and execute through them, more than the stores hold).
# This is the one copy of the list; the CI race job runs this target.
race:
	go test -race ./internal/matrix/... ./internal/matching/... ./internal/obs/... ./internal/online/... ./internal/scenario/... ./internal/switchsim/... ./internal/daemon/... ./internal/shard/... ./internal/lp/... ./internal/lpmodel/...

# Project-specific static analysis (internal/lint run by
# cmd/coflowvet), each rule kept by a planted regression no other gate
# catches: in //coflow:allocfree functions the allocations only syntax
# shows (amortized append and map growth, un-annotated callees), "guarded
# by" lock and event-loop discipline, silently discarded errors, spans
# that miss End on a return path, pooled loans used after the next
# pooled call, and writes after atomic.Pointer publication; unknown
# //coflow: annotations and //lint:ignore directives that silence
# nothing fail it too. See DESIGN.md "Static analysis".
lint:
	go run ./cmd/coflowvet

# Audit trail of every //lint:ignore suppression in the module, one
# line per directive with its reason. Reasonless directives and
# directives that silence nothing are themselves lint errors, so
# everything printed here carries a reason and still covers a finding;
# review whether the reason still holds.
lintfix-audit:
	go run ./cmd/coflowvet -ignores

# Escape-analysis gate for //coflow:allocfree functions, compare-only
# against the committed baseline: a NEW "escapes to heap" inside an
# annotated function fails; pre-existing ones are grandfathered in
# cmd/escapecheck/escapes-baseline.txt.
escapecheck:
	go run ./cmd/escapecheck

# Rotate the escape baseline after a deliberate change; commit the
# resulting cmd/escapecheck/escapes-baseline.txt.
escapebaseline:
	go run ./cmd/escapecheck -write

# Differential oracle at full depth: the slowcheck-tagged sweeps
# (larger fabrics, every policy, state diffs every slot) plus the
# bounded fuzz runs. Any failure dumps a minimized reproducer; see
# DESIGN.md "Invariant checking". The third line re-derives the dynamic
# columns of the two planted-regression matrices (DESIGN.md "Static
# analysis"): per plant, one `go test` of the *DoesNotAllocate gates,
# or `go vet` plus one -race run of the race target's packages.
slowcheck:
	go test -tags=slowcheck ./internal/check/
	go test -race -tags=slowcheck -run=TestChurnSoak ./internal/shard/
	go test -tags=slowcheck -timeout=30m -run='TestPlantedRuntimeGates|TestPlantedRaceGates' ./internal/lint/
	$(MAKE) fuzz

# Bounded runs of the fuzz targets that pin a fast path to its
# reference: Step to check.Reference, Step's row walk to the per-cell
# scan it replaced (port failures included), the sparse LP pipeline
# to the dense tableau, the order-statistic rolling window to
# stats.Summarize, the matcher's free-column lookahead to the
# adjacency-scan one, a held bvn.Decomposer to a fresh one (every
# decomposition starts cold), the block executor and its recorded
# transcript to the slot-by-slot walk it replaced, the simplex's
# reach-set LU factor and zero-skipping BTRAN to the full-scan,
# every-product ones in internal/lp/reference_test.go.
# This is the one copy of the list; the CI differential job runs this
# target.
fuzz:
	go test -run='^$$' -fuzz=FuzzStepVsReference -fuzztime=30s ./internal/check/
	go test -run='^$$' -fuzz=FuzzRowScanVsCellScan -fuzztime=30s ./internal/online/
	go test -run='^$$' -fuzz=FuzzSparseVsDense -fuzztime=30s ./internal/lp/
	go test -run='^$$' -fuzz=FuzzLUVsReference -fuzztime=30s ./internal/lp/
	go test -run='^$$' -fuzz=FuzzRollingVsSummarize -fuzztime=30s ./internal/stats/
	go test -run='^$$' -fuzz=FuzzAugmentRowVsReference -fuzztime=30s ./internal/matching/
	go test -run='^$$' -fuzz=FuzzDecompose -fuzztime=30s ./internal/bvn/
	go test -run='^$$' -fuzz=FuzzExecuteVsSlotOracle -fuzztime=30s ./internal/switchsim/

# Scenario smoke: replay every built-in scenario through the
# in-process driver (monitor validating every slot, planner
# cross-checked). Fails on any monitor violation or lost demand. The
# same scripts over loopback HTTP are a tier-1 test
# (internal/shard TestScenariosOverHTTP).
scenarios:
	go test -run='TestBuiltinsReplayClean|TestChurnShadowReplay' -count=1 ./internal/scenario/

# Harness smoke: two seconds of closed-loop HTTP load against a
# wall-clock 4-fabric cluster, then the churn replay and the two batch
# pipelines with tracing on (a traced run executes the shadow passes:
# the H_rho one validates a recorded transcript, the H_LP one re-solves
# every LP through lp.SolveWith and lpmodel.SolveIntervalLPWith and
# reads lp.sparse_fallbacks). run.sh exits 1 on any failed operation or
# output check: a 5xx, a transport error, a refused item, a coflow
# unresolved at drain, a Σ wC below its lower bound or different from
# the bare scheduler's, an infeasible transcript, an LP not optimal.
# This is the one copy of the four lines; the CI smoke job runs this
# target.
smoke:
	bash benchmark/run.sh --workload serve-http --seconds 2 --trace 0
	bash benchmark/run.sh --workload replay-churn-plan --seconds 2 --trace 1
	bash benchmark/run.sh --workload batch-greedy --seconds 2 --trace 1
	bash benchmark/run.sh --workload batch-lp --seconds 2 --trace 1
