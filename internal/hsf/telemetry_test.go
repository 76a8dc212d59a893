package hsf

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"hsfsim/internal/cut"
	"hsfsim/internal/gate"
	"hsfsim/internal/statevec"
	"hsfsim/internal/telemetry"
	"hsfsim/internal/telemetry/trace"
)

// telemetryAllocHarness mirrors allocHarness with telemetry enabled: the
// walker carries a live WorkerCounters block feeding a shared Recorder.
func telemetryAllocHarness(tb testing.TB, shape allocShape) (*walker, statevec.Vector, *telemetry.Recorder) {
	tb.Helper()
	plan := harnessPlan(tb, shape)
	rec := telemetry.New()
	e := &engine{
		nLower: plan.Partition.NumLower(),
		nUpper: plan.Partition.NumUpper(plan.NumQubits),
		m:      resolveAmplitudes(plan, 0),
		tel:    rec,
	}
	e.compile(plan, analyze(plan, e.m, 0), 0)
	checkForks(tb, e)
	walk := e.newWalker(rec.Worker(len(e.segs), e.ranks))
	scratch := statevec.MakeVector(e.m)
	for i := 0; i < 2; i++ { // warm the pools
		scratch.Clear()
		if _, err := walk.runTask(context.Background(), nil, scratch); err != nil {
			tb.Fatal(err)
		}
	}
	return walk, scratch, rec
}

// TestZeroAllocsPerLeafWithTelemetry is the telemetry half of the allocation
// guard: the counter block and sampled histogram observations must not cost
// a single heap allocation on the steady-state walk.
func TestZeroAllocsPerLeafWithTelemetry(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	for name, shape := range allocShapes {
		t.Run(name, func(t *testing.T) {
			walk, scratch, rec := telemetryAllocHarness(t, shape)
			ctx := context.Background()
			var leaves int64
			allocs := testing.AllocsPerRun(10, func() {
				scratch.Clear()
				n, err := walk.runTask(ctx, nil, scratch)
				if err != nil {
					t.Fatal(err)
				}
				leaves += n
			})
			if allocs != 0 {
				t.Fatalf("telemetry-enabled walk allocated %.1f times per replay (%d leaves), want 0", allocs, leaves)
			}
			// The walk must actually have been measured: flush and check
			// counters. Every batch of the harness is full, and over the
			// replays some fold's turn to be timed has come.
			rec.Flush(walk.wc)
			rep := rec.Report()
			if rep.Counters.Leaves == 0 || rep.Counters.SegmentApplications == 0 || rep.Counters.Forks == 0 {
				t.Fatalf("telemetry saw nothing: %+v", rep.Counters)
			}
			if rep.Counters.LeavesFolded != rep.Counters.Leaves ||
				rep.Counters.LeafFolds*leafBatchK != rep.Counters.Leaves {
				t.Fatalf("%d leaves emitted, %d folded in %d folds of %d", rep.Counters.Leaves,
					rep.Counters.LeavesFolded, rep.Counters.LeafFolds, leafBatchK)
			}
			if rep.LeafFold.Count == 0 {
				t.Fatalf("no fold was timed in %d", rep.Counters.LeafFolds)
			}
		})
	}
}

// BenchmarkRunBranchSteadyStateTelemetry is BenchmarkRunBranchSteadyState
// with telemetry enabled; comparing the two quantifies the recorder's
// overhead on the leaf loop (budget: ≤2%).
func BenchmarkRunBranchSteadyStateTelemetry(b *testing.B) {
	walk, scratch, _ := telemetryAllocHarness(b, allocShapes["K=2"])
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scratch.Clear()
		if _, err := walk.runTask(ctx, nil, scratch); err != nil {
			b.Fatal(err)
		}
	}
}

// checkReportMatchesResult asserts the reconciliation invariants between a
// run's Report and its Result.
func checkReportMatchesResult(t *testing.T, rep *telemetry.Report, res *Result) {
	t.Helper()
	if rep == nil {
		t.Fatal("nil report")
	}
	if rep.Paths.Simulated != res.PathsSimulated {
		t.Fatalf("report paths simulated = %d, Result.PathsSimulated = %d",
			rep.Paths.Simulated, res.PathsSimulated)
	}
	if rep.Paths.Total != int64(res.NumPaths) {
		t.Fatalf("report paths total = %d, Result.NumPaths = %d", rep.Paths.Total, res.NumPaths)
	}
	if rep.Counters.Leaves != res.PathsSimulated-rep.Paths.Resumed {
		t.Fatalf("leaves counted = %d, want simulated-resumed = %d",
			rep.Counters.Leaves, res.PathsSimulated-rep.Paths.Resumed)
	}
	if rep.Counters.LeavesFolded != rep.Counters.Leaves || rep.Counters.LeafFolds == 0 {
		t.Fatalf("%d leaves emitted, %d folded in %d folds", rep.Counters.Leaves,
			rep.Counters.LeavesFolded, rep.Counters.LeafFolds)
	}
	if rep.Counters.SegmentApplications < rep.Counters.Leaves {
		t.Fatalf("segment applications %d < leaves %d", rep.Counters.SegmentApplications, rep.Counters.Leaves)
	}
	var classTotal int64
	for _, c := range rep.KernelClasses {
		classTotal += c
	}
	if classTotal == 0 {
		t.Fatalf("no kernel classes attributed: %+v", rep.KernelClasses)
	}
	if len(rep.Segments) == 0 {
		t.Fatalf("no per-segment stats")
	}
}

// TestTelemetryCountsMatchResult runs the same plan with one and with four
// workers, with a recorder attached and checks the
// report reconciles with the Result: in particular every simulated path was
// folded, whichever worker's batch held it.
func TestTelemetryCountsMatchResult(t *testing.T) {
	plan := buildPlan(t, manyCutCircuit(8, 5), 3, cut.StrategyNone)
	for _, run := range propertyRuns {
		rec := telemetry.New()
		run.Telemetry = rec
		res, err := Run(plan, run)
		if err != nil {
			t.Fatalf("workers %d: %v", run.Workers, err)
		}
		rep := rec.Report()
		checkReportMatchesResult(t, rep, res)
		if res.PathsSimulated != int64(res.NumPaths) || rep.Counters.LeavesFolded != res.PathsSimulated {
			t.Fatalf("workers %d: %d of %d paths simulated, %d folded", run.Workers,
				res.PathsSimulated, res.NumPaths, rep.Counters.LeavesFolded)
		}
		if rep.Counters.PoolGets == 0 {
			t.Fatalf("workers %d: no pool activity reported", run.Workers)
		}
		if rep.Par.Gomaxprocs == 0 || rep.Par.Workers == 0 {
			t.Fatalf("workers %d: par stats missing: %+v", run.Workers, rep.Par)
		}
	}
}

// TestTelemetryAcrossFaultAndResume interrupts a run with an injected fault
// and resumes it from the checkpoint: the resumed run's report must account
// for every path as resumed + freshly walked.
func TestTelemetryAcrossFaultAndResume(t *testing.T) {
	plan := buildPlan(t, manyCutCircuit(8, 8), 3, cut.StrategyNone)

	var buf bytes.Buffer
	rec1 := telemetry.New()
	// 8 prefix tasks of 32 leaves on two workers: by leaf 100 the two tasks in
	// flight hold at most 62, so at least two tasks are merged whatever the
	// interleaving (failing at 40 left none merged when the workers ran in
	// lockstep).
	_, err := Run(plan, Options{Workers: 2, FailAfterPaths: 100,
		CheckpointWriter: &buf, Telemetry: rec1})
	if !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("err = %v, want ErrInjectedFault", err)
	}
	rep1 := rec1.Report()
	if rep1.Paths.Simulated == 0 {
		t.Fatalf("faulted run recorded no progress")
	}

	ck, err := ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rec2 := telemetry.New()
	var tr telemetry.Tracker
	res, err := Run(plan, Options{Workers: 2, Resume: ck, Telemetry: rec2, Progress: &tr})
	if err != nil {
		t.Fatal(err)
	}
	rep2 := rec2.Report()
	checkReportMatchesResult(t, rep2, res)
	if rep2.Paths.Resumed != ck.PathsSimulated {
		t.Fatalf("resumed = %d, checkpoint had %d", rep2.Paths.Resumed, ck.PathsSimulated)
	}
	if res.PathsSimulated != int64(res.NumPaths) {
		t.Fatalf("resumed run incomplete: %d of %d", res.PathsSimulated, res.NumPaths)
	}
	if got := tr.Done(); got != int64(res.NumPaths) {
		t.Fatalf("tracker done = %d, want %d", got, res.NumPaths)
	}
	if tr.Total() != int64(res.NumPaths) {
		t.Fatalf("tracker total = %d, want %d", tr.Total(), res.NumPaths)
	}
}

// TestTelemetryPrefixRun checks RunPrefixesContext (the distributed worker
// entry point) feeds the same recorder machinery.
func TestTelemetryPrefixRun(t *testing.T) {
	plan := buildPlan(t, manyCutCircuit(8, 5), 3, cut.StrategyNone)
	splitLevels := ChooseSplitLevels(plan, 4)
	prefixes := EnumeratePrefixes(plan, splitLevels)

	rec := telemetry.New()
	ck, err := RunPrefixesContext(context.Background(), plan, Options{Telemetry: rec},
		splitLevels, prefixes[:len(prefixes)/2])
	if err != nil {
		t.Fatal(err)
	}
	rep := rec.Report()
	if rep.Paths.Simulated != ck.PathsSimulated {
		t.Fatalf("report simulated = %d, checkpoint = %d", rep.Paths.Simulated, ck.PathsSimulated)
	}
	if rep.Counters.Leaves != ck.PathsSimulated {
		t.Fatalf("leaves = %d, want %d", rep.Counters.Leaves, ck.PathsSimulated)
	}
}

// TestTelemetryReflectsScheduling pins the scheduler's effect where a user
// reads it: the class tables are built from the scheduled segments, so on the
// q22-3 plan the diagonal-class applications of one run are the 2 553 cut-term
// residuals applied plus segment 0's one pass per worker — not the ≈ 51 000 of
// replaying every intra-partition RZZ at each of the 1 024 leaves. The tree
// applies 2 046 terms per side; the elided identities, one lower term per
// cut and the upper term 0 of cuts 2 and 9, leave 1 023 lower and 1 530
// upper residuals.
func TestTelemetryReflectsScheduling(t *testing.T) {
	rec := telemetry.New()
	res, err := Run(q22Plan(t), Options{Workers: 1, MaxAmplitudes: 1 << 10, Telemetry: rec})
	if err != nil {
		t.Fatal(err)
	}
	rep := rec.Report()
	checkReportMatchesResult(t, rep, res)
	if got := rep.KernelClasses["diagonal"]; got < 2553 || got >= 4000 {
		t.Fatalf("diagonal-class applications = %d, want the 2553 cut-term residuals plus one segment-0 pass, under 4000", got)
	}
}

// TestTelemetryCountsEpilogue pins what a joint-sweep run reports about the
// fold epilogue: the compile span's gates_sunk counts the five lower mixers
// sink takes out of the tree, and the dense-class total counts each of them
// once per accumulator row of each merge, the one worker's single merge of
// its four prefix tasks: 1 · 8 · 5 = 40 applications on top of the segments'
// own, so the class totals are the gates the run applied. The same span's
// cut_terms_elided counts the identity residuals: one lower term per cut, and
// the upper term 0 of the two single-RZZ cuts 2 and 9, 12 in all. At 2^18
// amplitudes on two workers the run holds its nodes, and its one fold pass
// applies the epilogue once: 1 · 128 · 5 = 640.
func TestTelemetryCountsEpilogue(t *testing.T) {
	plan := q22Plan(t)
	for _, tc := range []struct {
		m, workers int
		epilogue   int64
	}{{1 << 14, 1, 1 * 8 * 5}, {1 << 18, 2, 1 * 128 * 5}} {
		rec := telemetry.New()
		trc := trace.NewRecorder(64)
		ctx := trace.NewContext(context.Background(), trc, trace.SpanContext{})
		res, err := RunContext(ctx, plan, Options{Workers: tc.workers, MaxAmplitudes: tc.m, Telemetry: rec})
		if err != nil {
			t.Fatal(err)
		}
		rep := rec.Report()
		checkReportMatchesResult(t, rep, res)
		sunk, elided := int64(-1), int64(-1)
		for _, ev := range trc.Snapshot() {
			if ev.Name == "compile" {
				sunk, elided = ev.Int("gates_sunk", -1), ev.Int("cut_terms_elided", -1)
			}
		}
		if sunk != 5 {
			t.Errorf("m = %d: compile span reports gates_sunk = %d, want 5", tc.m, sunk)
		}
		if elided != 12 {
			t.Errorf("m = %d: compile span reports cut_terms_elided = %d, want 12", tc.m, elided)
		}
		e := compiledFor(plan, tc.m, 0, ChooseSplitLevels(plan, 4*tc.workers))
		var inTree int64
		for s, st := range rep.Segments {
			inTree += st.Applications * countClasses(e.segs[s].gates[:]...)[gate.KindDense]
		}
		dense := rep.KernelClasses[gate.KindDense.String()]
		if dense-inTree != tc.epilogue {
			t.Errorf("m = %d: dense-class applications %d, %d of them in segments: the epilogue counts %d, want %d",
				tc.m, dense, inTree, dense-inTree, tc.epilogue)
		}
	}
}

// TestTelemetryWorkersAreWalkersThatRan resumes a run split for four workers
// with one of its sixteen prefix tasks left: the engine starts one walker,
// which runs the task, and Report.Par.Workers says so, next to a reservation
// of one, instead of the four the caller asked for.
func TestTelemetryWorkersAreWalkersThatRan(t *testing.T) {
	plan := buildPlan(t, manyCutCircuit(8, 6), 3, cut.StrategyNone)
	split := ChooseSplitLevels(plan, 4*4)
	prefixes := EnumeratePrefixes(plan, split)
	ck, err := RunPrefixesContext(context.Background(), plan, Options{Workers: 1}, split, prefixes[:len(prefixes)-1])
	if err != nil {
		t.Fatal(err)
	}
	rec := telemetry.New()
	res, err := Run(plan, Options{Workers: 4, Resume: ck, Telemetry: rec})
	if err != nil {
		t.Fatal(err)
	}
	rep := rec.Report()
	checkReportMatchesResult(t, rep, res)
	if rep.Par.Workers != 1 || rep.Par.Reserved != 1 {
		t.Fatalf("one task left on four requested workers: the report counts %d workers, %d reserved; want 1 and 1",
			rep.Par.Workers, rep.Par.Reserved)
	}
}
