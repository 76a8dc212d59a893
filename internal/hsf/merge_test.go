package hsf

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"hsfsim/internal/cut"
	"hsfsim/internal/statevec"
	"hsfsim/internal/telemetry"
	"hsfsim/internal/telemetry/trace"
)

// TestMergeCadenceCheckpointWriterMidRun cancels a RunContext that has a
// checkpoint writer 35 leaves into the third of four 64-leaf tasks. A reader
// of the checkpoint keeps every worker merging after each task, so the
// checkpoint lists every task completed before the stop, at exactly their
// paths: on one worker the first two tasks, holding bit for bit what
// RunPrefixesContext makes of them; on two workers whichever tasks finished,
// at 64 paths each, holding those tasks' sum to rounding, and resuming to the
// uninterrupted amplitudes.
func TestMergeCadenceCheckpointWriterMidRun(t *testing.T) {
	plan := buildPlan(t, manyCutCircuit(12, 8), 5, cut.StrategyNone)
	full, err := Run(plan, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		split := ChooseSplitLevels(plan, 4*workers)
		prefixes := EnumeratePrefixes(plan, split)
		perTask := int64(full.NumPaths) / int64(len(prefixes))
		stopAt := 2*perTask + 35
		ctx, cancel := context.WithCancel(context.Background())
		var buf bytes.Buffer
		opts := Options{Workers: workers, CheckpointWriter: &buf, testHookLeaf: func(leaves int64) {
			if leaves == stopAt {
				cancel()
			}
		}}
		_, err := RunContext(ctx, plan, opts)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%d workers: err = %v, want context.Canceled", workers, err)
		}
		ck, err := ReadCheckpoint(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if len(ck.Prefixes) == 0 || ck.PathsSimulated != perTask*int64(len(ck.Prefixes)) {
			t.Fatalf("%d workers: checkpoint lists %d tasks with %d paths, want at least one task of %d paths each",
				workers, len(ck.Prefixes), ck.PathsSimulated, perTask)
		}
		done, err := RunPrefixesContext(context.Background(), plan, Options{Workers: 1}, split, ck.Prefixes)
		if err != nil {
			t.Fatal(err)
		}
		if workers == 1 {
			if fmt.Sprint(ck.Prefixes) != fmt.Sprint(prefixes[:2]) {
				t.Fatalf("one worker: checkpoint lists %v, want the first two tasks %v", ck.Prefixes, prefixes[:2])
			}
			for i := range done.Acc {
				if ck.Acc[i] != done.Acc[i] {
					t.Fatalf("one worker: amplitude %d is %v, the two tasks alone give %v", i, ck.Acc[i], done.Acc[i])
				}
			}
		} else if d := statevec.MaxAbsDiff(ck.Acc, done.Acc); d > 1e-12 {
			t.Fatalf("two workers: checkpoint off its %d tasks by %g", len(ck.Prefixes), d)
		}
		res, err := Run(plan, Options{Workers: workers, Resume: ck})
		if err != nil {
			t.Fatal(err)
		}
		if d := statevec.MaxAbsDiff(res.Amplitudes, full.Amplitudes); d > 1e-12 {
			t.Fatalf("%d workers: resumed run off the uninterrupted one by %g", workers, d)
		}
	}
}

// TestMergeCadenceWalkSpan reads the "walk" span's merges on q22-3 at
// joint-sweep's 2^14 amplitudes and at 2^18, four prefix tasks per worker: an
// unobserved run at 2^14 merges once per walker that ran a task, as many as
// Report.Par.Workers counts (on one core a walker may find the tasks gone),
// while at 2^18 it holds its 32 level-5 nodes and merges once, after a "fold"
// span under the walk that folds them in 2^18 / (4 · 2^11) = 32 tiles. A run
// with an OnCheckpoint reader and a RunPrefixesContext partial merge once per
// task and fold nothing after the walk. At each size all of them give the
// same amplitudes to rounding.
func TestMergeCadenceWalkSpan(t *testing.T) {
	plan := q22Plan(t)
	for _, m := range []int{1 << 14, 1 << 18} {
		var want []complex128
		for _, workers := range []int{1, 2} {
			split := ChooseSplitLevels(plan, 4*workers)
			tasks := int64(len(EnumeratePrefixes(plan, split)))
			for _, how := range []string{"unobserved", "OnCheckpoint", "partial"} {
				name := fmt.Sprintf("m = %d, %d workers, %s", m, workers, how)
				rec := telemetry.New()
				trc := trace.NewRecorder(256)
				ctx := trace.NewContext(context.Background(), trc, trace.SpanContext{})
				opts := Options{Workers: workers, MaxAmplitudes: m, Telemetry: rec}
				var amps []complex128
				var err error
				switch how {
				case "unobserved", "OnCheckpoint":
					if how == "OnCheckpoint" {
						opts.OnCheckpoint = func(*Checkpoint) {}
					}
					var res *Result
					if res, err = RunContext(ctx, plan, opts); err == nil {
						amps = res.Amplitudes
					}
				case "partial":
					var ck *Checkpoint
					if ck, err = RunPrefixesContext(ctx, plan, opts, split, EnumeratePrefixes(plan, split)); err == nil {
						amps = ck.Acc
					}
				}
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				merges, nodes, tiles := int64(-1), int64(-1), int64(-1)
				var walkID, foldParent trace.SpanID
				for _, ev := range trc.Snapshot() {
					switch ev.Name {
					case "walk":
						merges, walkID = ev.Int("merges", -1), ev.Span
					case "fold":
						nodes, tiles, foldParent = ev.Int("nodes", -1), ev.Int("tiles", -1), ev.Parent
					}
				}
				held := how == "unobserved" && m == 1<<18
				wantMerges, wantNodes, wantTiles := tasks, int64(-1), int64(-1)
				switch {
				case held:
					wantMerges, wantNodes, wantTiles = 1, 32, 32
					if foldParent != walkID {
						t.Errorf("%s: the fold span does not hang under the walk", name)
					}
				case how == "unobserved":
					wantMerges = int64(rec.Report().Par.Workers)
					if wantMerges < 1 || wantMerges > int64(workers) {
						t.Fatalf("%s: the report counts %d walkers", name, wantMerges)
					}
				}
				if merges != wantMerges {
					t.Errorf("%s: the walk span reports %d merges, want %d", name, merges, wantMerges)
				}
				if nodes != wantNodes || tiles != wantTiles {
					t.Errorf("%s: fold span over %d nodes in %d tiles, want %d in %d", name, nodes, tiles, wantNodes, wantTiles)
				}
				if want == nil {
					want = amps
				} else if d := statevec.MaxAbsDiff(amps, want); d > 1e-12 {
					t.Errorf("%s: off the first run by %g", name, d)
				}
			}
		}
	}
}
