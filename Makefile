# Developer entry points. Everything is plain `go` underneath; the targets
# just name the common workflows.

GO ?= go

.PHONY: all build test test-purego race race-core race-sweep race-telemetry trace-test check-run-lists fuzz dist-test chaos-test jobs-test stress vet cover bench bench-e2e bench-ab bench-smoke bench-tables examples fmt clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Portable-dispatch arm: build and test with the scalar SoA kernel bodies
# selected (no unsafe alignment, spanMin disabled). CI runs this leg so the
# fallback the span kernels shadow can never rot.
test-purego:
	$(GO) build -tags purego ./...
	$(GO) test -tags purego ./...

# Race-detector run (CI gate): the HSF worker pool, the server's concurrency
# limiter, and checkpoint merging must stay race-clean.
race:
	$(GO) test -race ./...

# Execution-core race pass plus the allocation guard. The guard runs without
# -race (the detector's instrumentation allocates, so the zero-alloc test
# skips itself under it).
race-core:
	$(GO) test -race ./internal/hsf/... ./internal/statevec/... ./internal/par/...
	$(GO) test -run 'TestZeroAllocsPerLeaf|TestPoisonedPoolRunStaysFinite' -count=1 ./internal/hsf/

# Sweep-executor race pass: the tiled segment sweeps fan gate applications out
# across the worker pool with a shared scratch discipline; run the kernel and
# segment parity suites under the detector to catch any aliasing regression,
# the output-cone projection suites, whose halves shrink in place, the leaf
# fold's batch bit-identity and its packed GEMM on every shape (the diagonal
# tail's 512 × 32 among them) for both operands emit weights, emit's zero-leaf
# drop, the fold epilogue's equivalence matrix, block
# rule and pass budget, the cut-term residuals and the diagonals that apply
# them, the diagonal tail's node fold (and its bit-identity to the run-major
# loop, and the tiled many-node fold's to a fold per node), equivalence
# matrix, parent-checkpoint resume and cost bound, the held nodes (bit-identical
# across worker counts, against the oracle, untouched by a cancelled run), the
# merge cadence (a checkpoint writer's mid-run checkpoint, the walk span's
# merges) and the walkers the report counts, the planner's group scan and
# contraction against their oracles, and the Schrödinger sweep inside its
# result (-race turns on checkptr, which checks that the imaginary plane's
# []float64 view stays inside the result's allocation).
race-sweep:
	$(GO) test -race -run 'Segment|Kernel|Parity|Phase|Gather|Pair|Projection|FoldBatch|FoldRows|EmitDropsZeroLeaf|Sink|WalkPassBudget|CutTermResidual|Diagonal|Tail|HeldRun|Contract|MergeCadence|WorkersAreWalkers' -count=1 ./internal/statevec/ ./internal/hsf/ ./internal/circuit/
	$(GO) test -race -run 'TestSchrodingerSweepsInResult' -count=1 .

# Every alternative of a `go test -run` list in this Makefile and in the CI
# workflow must match a test of the packages its line names, so a renamed
# test cannot drop out of the race and purego legs unnoticed.
check-run-lists:
	python3 scripts/check-run-lists.py

# Telemetry race pass: per-worker counters flush into the shared recorder and
# the atomic histograms are hammered from every walker goroutine; the guard
# that telemetry keeps the leaf loop at zero allocations runs without -race
# (the detector's instrumentation allocates).
race-telemetry:
	$(GO) test -race ./internal/telemetry/
	$(GO) test -race -run 'Telemetry|Prometheus|DistStats' -count=1 ./internal/hsf/ ./internal/dist/ ./internal/server/ .
	$(GO) test -run 'TestZeroAllocsPerLeafWithTelemetry' -count=1 ./internal/hsf/

# Tracing suite under the race detector: traceparent propagation over
# loopback and real HTTP, span continuity across transport retries and work
# stealing, the chaos-run fleet timeline's wall-clock coverage, flight
# recorder eviction, and /debug/trace addressing. The zero-alloc guard with
# tracing enabled runs without -race (the detector's instrumentation
# allocates).
trace-test:
	$(GO) test -race ./internal/telemetry/trace/
	$(GO) test -race -run 'Trace|Span|Timeline|Tenant|DebugTrace' -count=1 ./internal/dist/ ./internal/server/ ./internal/jobs/ ./internal/hsf/
	$(GO) test -run 'TestZeroAllocsPerLeafWithTracing' -count=1 ./internal/hsf/

# Short fuzz pass over the daemon's untrusted input surface.
fuzz:
	$(GO) test -fuzz=FuzzParse -fuzztime=30s ./internal/qasm/
	$(GO) test -fuzz=FuzzReadCheckpoint -fuzztime=30s ./internal/hsf/
	$(GO) test -run '^$$' -fuzz=FuzzRunRequest -fuzztime=30s ./internal/dist/
	$(GO) test -run '^$$' -fuzz=FuzzSimulateRequest -fuzztime=30s ./internal/server/

# Distributed-execution integration tests under the race detector: loopback
# and real-HTTP fleets, including a worker killed mid-run whose leases must
# be reassigned (the amplitudes still match single-process to 1e-12).
dist-test:
	$(GO) test -race -run 'Dist|Worker|Lease|HTTP' -v ./internal/dist/ ./internal/server/ ./cmd/hsfsimd/

# Chaos and elasticity suite under the race detector: seeded fault injection
# (dropped/duplicated replies, worker kills, registry partitions), mid-run
# joins, work stealing, and the coordinator handover (a fresh coordinator
# resuming from the last checkpoint a killed one flushed:
# TestChaosHalfFleetAndCoordinatorKilled, TestHandover*). Each test logs its
# chaos seed; set CHAOS_SEED to reproduce a failure or explore new fault
# schedules.
chaos-test:
	$(GO) test -race -run 'Chaos|Steal|Handover|Partition|Join|Drain|Truncated' -v -count=1 ./internal/dist/ ./internal/server/

# Job-service suite under the race detector: queues, quotas, plan-cache
# batching, SSE streaming, fingerprint stability, and the
# kill-the-daemon-mid-job resume test (SIGTERM during a walk, restart on the
# same store, every job completes with correct amplitudes).
jobs-test:
	$(GO) test -race -run 'Job|Fingerprint|Queue|Quota|Batch|Plan|Store' -v -count=1 ./internal/jobs/ ./internal/hsf/ ./internal/server/ ./cmd/hsfsimd/

# Stress leg: the coordinator-handover and resume tests, the job service's
# restart tests, the CLI's -checkpoint tests and the daemon's kill-and-restart
# test under the race detector with one and with two Ps, STRESS_COUNT runs
# each (CI runs them once). A test
# that flakes here has a synchronisation bug: fix that, not the assertion.
STRESS_COUNT ?= 3
stress:
	for p in 1 2; do \
		GOMAXPROCS=$$p $(GO) test -race -count=$(STRESS_COUNT) -run 'Chaos|Handover|Resume' ./internal/dist/ && \
		GOMAXPROCS=$$p $(GO) test -race -count=$(STRESS_COUNT) -run 'Restart|Resume|Handover|DistributedJob' ./internal/jobs/ && \
		GOMAXPROCS=$$p $(GO) test -race -count=$(STRESS_COUNT) -run 'Checkpoint' ./cmd/hsfsim/ && \
		GOMAXPROCS=$$p $(GO) test -race -count=$(STRESS_COUNT) -run 'TestJobsSurviveDaemonRestart' ./cmd/hsfsimd/ || exit 1; \
	done

cover:
	$(GO) test -cover ./...

# Every Benchmark function in the tree, one iteration each.
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x ./...

# Quick kernel-bench smoke: one benchtime iteration over the statevec
# kernels under the best arm runtime dispatch selects (avx512/avx2/neon where
# the CPU has it), and the leaf fold on every available arm side by side
# (BenchmarkLeafFold/<shape>/<arm>). The old GOAMD64=v3 override is obsolete —
# the hand-written assembly arms carry the AVX2/FMA (and NEON) code on every
# build, and HSFSIM_KERNEL_ISA forces a weaker arm when needed.
bench-smoke:
	$(GO) test -run=NONE -bench='Apply|Kernel|Segment|LeafFold' -benchtime=1x ./internal/statevec/

# One end-to-end benchmark run of one BENCHMARK.json workload, with the
# driver's settings: `make bench-e2e W=joint-sweep` (joint-accum-par,
# schrodinger-dense, serve-plan). Build products land under .bench_build/.
bench-e2e:
	bash benchmark/run.sh --workload $(W) --seed 2203 --seconds 25 --trace 0

# Paired A/B run of one workload, a base revision against this checkout:
# `make bench-ab BASE=<rev> W=<workload> [N=10] [SEED=2203] [S=25]` runs N
# alternating pairs of S-second windows and prints, per end-to-end metric,
# both sides' median [q1, q3], their ratio, the median of the per-pair ratios
# and the pairs the change won. BASE=HEAD is an A/A run of the uncommitted
# edits against the last commit.
N ?= 10
SEED ?= 2203
S ?= 25
bench-ab:
	bash scripts/bench-ab.sh $(BASE) $(W) $(N) $(SEED) $(S)

# Regenerate every table and figure at laptop scale.
bench-tables:
	$(GO) run ./cmd/benchtab -all | tee benchtab_small.txt

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/qaoa_maxcut
	$(GO) run ./examples/supremacy
	$(GO) run ./examples/manybody
	$(GO) run ./examples/reorder

fmt:
	gofmt -w .

clean:
	$(GO) clean ./...
