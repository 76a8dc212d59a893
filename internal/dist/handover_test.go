// Coordinator handover: a run's whole durable state is one checkpoint, so a
// coordinator that dies mid-run is replaced by an ordinary Run on any fleet
// with Resume set to the newest snapshot its OnCheckpoint hook flushed.
package dist

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"hsfsim/internal/hsf"
)

// waitFlushed polls until flushed reports true, failing the test after a
// generous deadline. Call it before Flusher.Stop: the first snapshot a run
// offers is always queued, and Stop may drop one that is still queued.
func waitFlushed(t *testing.T, flushed func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !flushed(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no snapshot was flushed")
		}
	}
}

// TestHandoverResumesFromFlushedCheckpoint runs a job whose merged state is
// flushed to a file during the run, kills the coordinator mid-run (no exit
// write: there is no CheckpointWriter), and resumes on a brand-new
// coordinator and fleet from the file alone. The resumed run leases only the
// prefixes the file lacks and matches a single-process run exactly.
func TestHandoverResumesFromFlushedCheckpoint(t *testing.T) {
	job := testJob(21)
	path := filepath.Join(t.TempDir(), "run.ckpt")

	// Phase 1: BatchSize 1 and a per-lease delay make the cancellation land
	// mid-run; the flusher writes the file at most once per millisecond.
	lb := NewLoopback()
	lb.AddWorker("w", ExecOptions{})
	lb.Delay("w", 2*time.Millisecond)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var leases int
	co := mustNew(t, Config{
		Transport: lb,
		Logger:    quietLogger(),
		BatchSize: 1,
		onLease: func(worker string, batch int) {
			if leases++; leases == 3 {
				cancel()
			}
		},
	})
	co.AddWorker("w")
	flusher := hsf.NewFlusher(time.Millisecond, func(ck *hsf.Checkpoint) {
		if err := hsf.SaveCheckpointFile(path, ck); err != nil {
			t.Error(err)
		}
	})
	if _, err := co.Run(ctx, job, RunOptions{OnCheckpoint: flusher.Hook}); err == nil {
		t.Fatal("canceled run returned nil error")
	}
	waitFlushed(t, func() bool { _, err := os.Stat(path); return err == nil })
	flusher.Stop()

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := hsf.ReadCheckpoint(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(ck.Prefixes) == 0 {
		t.Fatal("the flushed snapshot holds no merged prefixes")
	}

	// Phase 2: a fresh coordinator with a fresh fleet resumes from the file.
	lb2 := NewLoopback()
	lb2.AddWorker("w2", ExecOptions{})
	var stats Stats
	co2 := mustNew(t, Config{Transport: lb2, Logger: quietLogger(), Stats: &stats, BatchSize: 1})
	co2.AddWorker("w2")
	res, err := co2.Run(context.Background(), job, RunOptions{Resume: ck})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.PathsSimulated, expectedPaths(t, job); got != want {
		t.Fatalf("PathsSimulated = %d, want exactly %d", got, want)
	}
	if got, rest := stats.LeasesGranted.Load(), int64(1<<ck.SplitLevels-len(ck.Prefixes)); got > rest {
		t.Fatalf("resumed run granted %d one-prefix leases, want at most the %d unmerged", got, rest)
	}
	assertAmplitudesMatch(t, res.Amplitudes, singleProcess(t, job), 1e-12)
}

// TestHandoverRejectsMismatchedCheckpoint: a snapshot of another plan is
// refused as a mismatch before any lease, never silently merged.
func TestHandoverRejectsMismatchedCheckpoint(t *testing.T) {
	lb := NewLoopback()
	lb.AddWorker("w", ExecOptions{})
	var stats Stats
	co := mustNew(t, Config{Transport: lb, Logger: quietLogger(), Stats: &stats})
	co.AddWorker("w")
	_, err := co.Run(context.Background(), testJob(1), RunOptions{Resume: testCheckpoint(1)})
	if !errors.Is(err, hsf.ErrCheckpointMismatch) {
		t.Fatalf("foreign checkpoint: %v, want ErrCheckpointMismatch", err)
	}
	if n := stats.LeasesGranted.Load(); n != 0 {
		t.Fatalf("%d leases granted for a rejected resume", n)
	}
}
