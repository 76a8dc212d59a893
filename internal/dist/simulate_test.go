package dist

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"hsfsim"
	"hsfsim/internal/hsf"
	"hsfsim/internal/qasm"
	"hsfsim/internal/telemetry"
)

// TestDistSimulateCheckpointsAndResumes drives a fleet run through the
// hsfsim.Options mapping: OnCheckpoint runs once per merged lease, a stopped
// run hands its merged state to CheckpointWriter, and ResumeFrom seeds a
// fresh coordinator, which leases only the rest and reproduces the
// single-process amplitudes.
func TestDistSimulateCheckpointsAndResumes(t *testing.T) {
	job := testJob(61)
	opts, err := job.Options()
	if err != nil {
		t.Fatal(err)
	}

	lb := NewLoopback()
	lb.AddWorker("w", ExecOptions{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var leases int
	co := mustNew(t, Config{Transport: lb, Logger: quietLogger(), BatchSize: 1,
		onLease: func(string, int) {
			if leases++; leases == 4 {
				cancel()
			}
		}})
	co.AddWorker("w")
	var ckpt bytes.Buffer
	hooked := 0
	stopped := opts
	stopped.CheckpointWriter = &ckpt
	stopped.OnCheckpoint = func(*hsf.Checkpoint) { hooked++ } // under the merge lock
	stopped.Progress = &telemetry.Tracker{}
	if _, _, err := co.Simulate(ctx, job.QASM, stopped); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run returned %v, want context.Canceled", err)
	}
	ck, err := hsf.ReadCheckpoint(bytes.NewReader(ckpt.Bytes()))
	if err != nil {
		t.Fatalf("no checkpoint written on stop: %v", err)
	}
	if len(ck.Prefixes) == 0 || hooked != len(ck.Prefixes) {
		t.Fatalf("OnCheckpoint ran %d times for %d merged one-prefix leases", hooked, len(ck.Prefixes))
	}
	if done := stopped.Progress.Done(); done != ck.PathsSimulated {
		t.Fatalf("progress %d paths, checkpoint %d", done, ck.PathsSimulated)
	}

	lb2 := NewLoopback()
	lb2.AddWorker("w2", ExecOptions{})
	co2 := mustNew(t, Config{Transport: lb2, Logger: quietLogger(), BatchSize: 1})
	co2.AddWorker("w2")
	resumed := opts
	resumed.ResumeFrom = bytes.NewReader(ckpt.Bytes())
	res, fleet, err := co2.Simulate(context.Background(), job.QASM, resumed)
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != opts.Method || res.PathsSimulated != expectedPaths(t, job) {
		t.Fatalf("resumed result: method %v, %d paths; want %v, %d", res.Method, res.PathsSimulated, opts.Method, expectedPaths(t, job))
	}
	if total := 1 << ck.SplitLevels; fleet.Batches+len(ck.Prefixes) > total {
		t.Fatalf("resumed run leased %d prefixes on top of %d merged, task set %d", fleet.Batches, len(ck.Prefixes), total)
	}
	assertAmplitudesMatch(t, res.Amplitudes, singleProcess(t, job), 1e-12)

	// A checkpoint of another plan is refused as a mismatch, before any lease.
	other := opts
	other.ResumeFrom = bytes.NewReader(ckpt.Bytes())
	if _, _, err := co2.Simulate(context.Background(), testJob(62).QASM, other); !errors.Is(err, hsfsim.ErrCheckpointMismatch) {
		t.Fatalf("foreign checkpoint: %v, want ErrCheckpointMismatch", err)
	}
}

// TestDistSimulateTimeout: Options.Timeout bounds the fleet run and is
// reported as ErrTimeout, as in a local run.
func TestDistSimulateTimeout(t *testing.T) {
	job := testJob(63)
	opts, err := job.Options()
	if err != nil {
		t.Fatal(err)
	}
	opts.Timeout = 20 * time.Millisecond
	lb := NewLoopback()
	lb.AddWorker("w", ExecOptions{})
	lb.Stall("w")
	co := mustNew(t, Config{Transport: lb, Logger: quietLogger(), MaxStrikes: 100})
	co.AddWorker("w")
	if _, _, err := co.Simulate(context.Background(), job.QASM, opts); !errors.Is(err, hsfsim.ErrTimeout) {
		t.Fatalf("stalled fleet run returned %v, want ErrTimeout", err)
	}
}

// TestDistSimulateEnforcesMaxPaths: the fleet honours the caller's MaxPaths
// before the first lease, with the *BudgetError a local run of the same plan
// gives, and a plan exactly at the limit still runs.
func TestDistSimulateEnforcesMaxPaths(t *testing.T) {
	job := testJob(64)
	opts, err := job.Options()
	if err != nil {
		t.Fatal(err)
	}
	lb := NewLoopback()
	lb.AddWorker("w", ExecOptions{})
	var stats Stats
	co := mustNew(t, Config{Transport: lb, Logger: quietLogger(), Stats: &stats})
	co.AddWorker("w")

	paths := expectedPaths(t, job)
	over := opts
	over.MaxPaths = uint64(paths - 1)
	_, _, ferr := co.Simulate(context.Background(), job.QASM, over)
	c, err := qasm.Parse(strings.NewReader(job.QASM))
	if err != nil {
		t.Fatal(err)
	}
	_, lerr := hsfsim.Simulate(c, over)
	var fleet, local *hsfsim.BudgetError
	if !errors.As(ferr, &fleet) || !errors.As(lerr, &local) {
		t.Fatalf("fleet = %v, local = %v; want *BudgetError from both", ferr, lerr)
	}
	if *fleet != *local {
		t.Fatalf("fleet rejected with %+v, local with %+v", *fleet, *local)
	}
	if n := stats.LeasesGranted.Load(); n != 0 {
		t.Fatalf("%d leases granted for a rejected plan", n)
	}

	at := opts
	at.MaxPaths = uint64(paths)
	res, _, err := co.Simulate(context.Background(), job.QASM, at)
	if err != nil {
		t.Fatal(err)
	}
	if res.PathsSimulated != paths {
		t.Fatalf("PathsSimulated = %d, want %d", res.PathsSimulated, paths)
	}
}
