// Tests for the elastic runtime: dynamic membership (join/leave mid-run),
// drained workers returning partial leases, work stealing via lease
// re-splitting, and the exactly-once rejection of late partials from workers
// the coordinator has given up on.
package dist

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"hsfsim/internal/hsf"
)

// expectedPaths runs the job single-process and returns its leaf count.
func expectedPaths(t *testing.T, job *Job) int64 {
	t.Helper()
	res, err := hsf.Run(jobPlan(t, job), hsf.Options{MaxAmplitudes: job.MaxAmplitudes})
	if err != nil {
		t.Fatal(err)
	}
	return res.PathsSimulated
}

// TestWorkerJoinsMidRun: a worker registering while a run is in flight is
// admitted into the rotation and the result reports the join.
func TestWorkerJoinsMidRun(t *testing.T) {
	job := testJob(31)
	lb := NewLoopback()
	lb.AddWorker("w1", ExecOptions{})
	lb.AddWorker("w2", ExecOptions{})
	lb.Delay("w1", 3*time.Millisecond) // keep the run alive long enough to join

	var stats Stats
	var co *Coordinator
	var once atomic.Bool
	co = mustNew(t, Config{
		Transport:          lb,
		Logger:             quietLogger(),
		Stats:              &stats,
		BatchSize:          1,
		MembershipInterval: 5 * time.Millisecond,
		onLease: func(worker string, batch int) {
			if once.CompareAndSwap(false, true) {
				co.Register("w2") // a fresh daemon heartbeats in mid-run
			}
		},
	})
	co.AddWorker("w1")
	res, err := co.Run(context.Background(), job, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.WorkersJoined == 0 {
		t.Fatal("mid-run registration was not admitted (WorkersJoined = 0)")
	}
	if res.Workers != 2 {
		t.Fatalf("res.Workers = %d, want 2 (joiner counted)", res.Workers)
	}
	assertAmplitudesMatch(t, res.Amplitudes, singleProcess(t, job), 1e-12)
}

// TestTruncatedLeasesReturnPartials: a worker that completes only part of
// each lease (the shape of a draining worker) has its completed prefixes
// merged and the remainder re-leased — nothing lost, nothing double-merged.
func TestTruncatedLeasesReturnPartials(t *testing.T) {
	job := testJob(32)
	lb := NewLoopback()
	lb.AddWorker("t", ExecOptions{})
	lb.Truncate("t", 1) // every lease returns exactly its first prefix

	var stats Stats
	co := mustNew(t, Config{
		Transport: lb,
		Logger:    quietLogger(),
		Stats:     &stats,
		BatchSize: 3,
	})
	co.AddWorker("t")
	res, err := co.Run(context.Background(), job, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.PartialReturns == 0 {
		t.Fatal("truncated leases produced no partial returns")
	}
	if got, want := res.PathsSimulated, expectedPaths(t, job); got != want {
		t.Fatalf("PathsSimulated = %d, want exactly %d (no loss, no duplication)", got, want)
	}
	assertAmplitudesMatch(t, res.Amplitudes, singleProcess(t, job), 1e-12)
}

// TestPartitionedWorkerLatePartialDroppedExactlyOnce is the heartbeat-
// partition regression: worker B is cut off from the registry while still
// computing its lease. A steals and completes B's prefixes; B's full reply
// then arrives late and must be rejected whole — merged exactly once, never
// twice.
func TestPartitionedWorkerLatePartialDroppedExactlyOnce(t *testing.T) {
	job := testJob(33)
	lb := NewLoopback()
	lb.AddWorker("a", ExecOptions{})
	lb.AddWorker("b", ExecOptions{})
	lb.Delay("a", 2*time.Millisecond) // give b room to take a lease
	releaseB := lb.Hold("b")          // park b's reply until the run moves on
	defer releaseB()

	var stats Stats
	var co *Coordinator
	var cut atomic.Bool
	co = mustNew(t, Config{
		Transport:          lb,
		Logger:             quietLogger(),
		Stats:              &stats,
		BatchSize:          2,
		MembershipInterval: 5 * time.Millisecond,
		onLease: func(worker string, batch int) {
			if worker == "b" && cut.CompareAndSwap(false, true) {
				// The registry stops hearing from b while its lease runs.
				co.PartitionRegistry("b", true)
			}
		},
	})
	co.AddWorker("a")
	co.AddWorker("b")
	res, err := co.Run(context.Background(), job, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !cut.Load() {
		t.Skip("b never took a lease; nothing to partition") // shouldn't happen, but don't assert a vacuous pass
	}
	if res.Steals == 0 {
		t.Fatal("the partitioned worker's lease was never stolen")
	}
	if res.WorkersLeft == 0 {
		t.Fatal("the partitioned worker was never marked as having left")
	}
	if stats.PartialsDuplicate.Load() == 0 {
		t.Fatal("b's late reply was not classified as a duplicate")
	}
	if got, want := res.PathsSimulated, expectedPaths(t, job); got != want {
		t.Fatalf("PathsSimulated = %d, want exactly %d (the late duplicate must not double-merge)", got, want)
	}
	assertAmplitudesMatch(t, res.Amplitudes, singleProcess(t, job), 1e-12)
}

// TestStealResplitsSlowWorkersLease: a worker whose lease ages past
// StealDelay has the un-merged tail of that lease re-split to an idle peer;
// its own late reply (now mixing merged and fresh prefixes) is dropped whole
// and the fresh remainder re-run — the accumulator is never split.
func TestStealResplitsSlowWorkersLease(t *testing.T) {
	job := testJob(34)
	lb := NewLoopback()
	lb.AddWorker("fast", ExecOptions{})
	lb.AddWorker("slow", ExecOptions{})
	lb.Delay("fast", 2*time.Millisecond)
	lb.Delay("slow", 300*time.Millisecond) // executes fine, delivers very late

	var stats Stats
	co := mustNew(t, Config{
		Transport:          lb,
		Logger:             quietLogger(),
		Stats:              &stats,
		BatchSize:          4,
		StealDelay:         50 * time.Millisecond,
		MembershipInterval: 10 * time.Millisecond,
	})
	co.AddWorker("fast")
	co.AddWorker("slow")
	res, err := co.Run(context.Background(), job, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steals == 0 {
		t.Fatal("no lease was stolen from the slow worker")
	}
	if res.Resplits == 0 {
		t.Fatal("the steal did not re-split the in-flight lease")
	}
	if got, want := res.PathsSimulated, expectedPaths(t, job); got != want {
		t.Fatalf("PathsSimulated = %d, want exactly %d", got, want)
	}
	assertAmplitudesMatch(t, res.Amplitudes, singleProcess(t, job), 1e-12)
}
