// Chaos suite: seeded fault injection over the full elastic runtime. The
// centerpiece kills half the worker fleet AND the coordinator mid-run,
// registers replacements, and has a fresh coordinator resume the run from
// the last checkpoint the first one flushed — the final amplitudes must
// match a single-process run to 1e-12 with exactly the right number of paths
// (nothing lost, nothing double-merged).
//
// Seeds are logged on every run; set CHAOS_SEED to reproduce or explore.
package dist

import (
	"context"
	"os"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"hsfsim/internal/hsf"
)

// chaosSeed returns CHAOS_SEED if set, else a fixed default, and logs it so
// any failure is reproducible.
func chaosSeed(t *testing.T) int64 {
	t.Helper()
	seed := int64(42)
	if v := os.Getenv("CHAOS_SEED"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("CHAOS_SEED=%q: %v", v, err)
		}
		seed = n
	}
	t.Logf("chaos seed %d (set CHAOS_SEED to override)", seed)
	return seed
}

// chaosJob is large enough (64 prefix tasks) that the injected failures land
// mid-run, and small enough to stay fast.
func chaosJob() *Job {
	return &Job{QASM: testQASM(10, 32, 7), Method: "joint", CutPos: 5}
}

// TestChaosHalfFleetAndCoordinatorKilled is the PR's acceptance criterion.
// Phase 1: four workers under a seeded fault mix (dropped replies, stale
// duplicate deliveries, random delays); two workers are killed after a few
// leases, two replacements register mid-run, and the coordinator itself is
// killed mid-run after periodic flushes. Phase 2: a brand-new coordinator
// with a brand-new fleet resumes from the last flushed snapshot alone — the
// dying coordinator makes no exit write.
func TestChaosHalfFleetAndCoordinatorKilled(t *testing.T) {
	seed := chaosSeed(t)
	job := chaosJob()

	lb := NewLoopback()
	for _, w := range []string{"w0", "w1", "w2", "w3", "w4", "w5"} {
		lb.AddWorker(w, ExecOptions{})
	}
	chaos := NewChaos(lb, ChaosConfig{
		Seed:           seed,
		DropReply:      0.10,
		DuplicateReply: 0.10,
		MaxDelay:       2 * time.Millisecond,
		// w0 dies on its own once it has held a lease; w1 is killed
		// explicitly from the lease hook below so the half-fleet kill does
		// not depend on how the greedy pool spreads the first leases.
		KillAfterLeases: map[string]int{"w0": 1},
	})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stats Stats
	var co *Coordinator
	var leases atomic.Int64
	co = mustNew(t, Config{
		Transport:          chaos,
		Logger:             quietLogger(),
		Stats:              &stats,
		BatchSize:          2,
		MembershipInterval: 5 * time.Millisecond,
		onLease: func(worker string, batch int) {
			switch leases.Add(1) {
			case 8: // replacements for the doomed half of the fleet
				co.Register("w4")
				co.Register("w5")
			case 10:
				chaos.Kill("w1") // the second half-fleet casualty, deterministic
			case 20: // the coordinator process "dies"
				cancel()
			}
		},
	})
	for _, w := range []string{"w0", "w1", "w2", "w3"} {
		co.AddWorker(w)
	}
	// The flusher stands in for durable storage: the newest snapshot it
	// saved is all that survives the coordinator.
	var flushed atomic.Pointer[hsf.Checkpoint]
	flusher := hsf.NewFlusher(time.Millisecond, flushed.Store)
	_, err := co.Run(ctx, job, RunOptions{OnCheckpoint: flusher.Hook})
	if err == nil {
		t.Fatal("phase 1 survived the coordinator kill")
	}
	t.Logf("phase 1: %v (leases=%d dropped=%d duplicated=%d kills=%d joined=%d)",
		err, leases.Load(), chaos.Dropped, chaos.Duplicated, chaos.Kills, stats.WorkersJoined.Load())
	if chaos.Kills == 0 {
		t.Fatal("no worker was ever killed; the chaos mix did not engage")
	}

	waitFlushed(t, func() bool { return flushed.Load() != nil })
	flusher.Stop()
	last := flushed.Load()
	if len(last.Prefixes) == 0 {
		t.Fatal("no merged state was flushed before the coordinator died")
	}

	// Handover: any node holding the snapshot can finish the run with a
	// fleet the first coordinator never knew.
	lb2 := NewLoopback()
	lb2.AddWorker("n0", ExecOptions{})
	lb2.AddWorker("n1", ExecOptions{})
	co2 := mustNew(t, Config{Transport: lb2, Logger: quietLogger()})
	co2.AddWorker("n0")
	co2.AddWorker("n1")
	res, err := co2.Run(context.Background(), job, RunOptions{Resume: last})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.PathsSimulated, expectedPaths(t, job); got != want {
		t.Fatalf("PathsSimulated = %d, want exactly %d (lost or duplicated paths across the handover)", got, want)
	}
	assertAmplitudesMatch(t, res.Amplitudes, singleProcess(t, job), 1e-12)
}

// TestChaosDropsAndDuplicatesConverge hammers the exactly-once machinery
// without killing anyone: a quarter of replies are dropped after execution
// (lost-ack → the lease re-runs) and a fifth are replaced by stale replays of
// earlier replies. The run must still converge to the exact path count and
// amplitudes.
func TestChaosDropsAndDuplicatesConverge(t *testing.T) {
	seed := chaosSeed(t)
	job := chaosJob()
	lb := NewLoopback()
	for _, w := range []string{"w0", "w1", "w2"} {
		lb.AddWorker(w, ExecOptions{})
	}
	chaos := NewChaos(lb, ChaosConfig{
		Seed:           seed,
		DropReply:      0.25,
		DuplicateReply: 0.20,
		MaxDelay:       time.Millisecond,
	})
	var stats Stats
	co := mustNew(t, Config{
		Transport:          chaos,
		Logger:             quietLogger(),
		Stats:              &stats,
		BatchSize:          1,
		MaxStrikes:         25, // drops are chaos, not worker faults: don't retire the fleet
		MembershipInterval: 5 * time.Millisecond,
	})
	for _, w := range []string{"w0", "w1", "w2"} {
		co.AddWorker(w)
	}
	res, err := co.Run(context.Background(), job, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("dropped=%d duplicated=%d reassigned=%d dupPartials=%d",
		chaos.Dropped, chaos.Duplicated, res.Reassignments, stats.PartialsDuplicate.Load())
	if chaos.Dropped == 0 && chaos.Duplicated == 0 {
		t.Fatal("the chaos mix injected nothing; the test is vacuous")
	}
	if got, want := res.PathsSimulated, expectedPaths(t, job); got != want {
		t.Fatalf("PathsSimulated = %d, want exactly %d", got, want)
	}
	assertAmplitudesMatch(t, res.Amplitudes, singleProcess(t, job), 1e-12)
}
