package jobs

import (
	"context"
	"errors"
	"io"
	"log"
	"sync/atomic"
	"testing"
	"time"

	"hsfsim"
	"hsfsim/internal/dist"
	"hsfsim/internal/telemetry"
)

// loopbackFleet returns a coordinator over in-process workers pinned before
// any manager starts, and a counter of the prefixes its leases carried.
func loopbackFleet(t *testing.T, delay time.Duration, workers ...string) (*dist.Coordinator, *atomic.Int64) {
	t.Helper()
	lb := dist.NewLoopback()
	var leased atomic.Int64
	co, err := dist.New(dist.Config{
		Transport: lb,
		Logger:    log.New(io.Discard, "", 0),
		BatchSize: 1,
		OnLease:   func(ev telemetry.LeaseEvent) { leased.Add(int64(ev.Prefixes)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workers {
		lb.AddWorker(w, dist.ExecOptions{Workers: 1})
		lb.Delay(w, delay)
		co.AddWorker(w)
	}
	return co, &leased
}

// onFleet is the RunDistributed hook a daemon installs: the job's options
// map onto the coordinator run through dist.Coordinator.Simulate.
func onFleet(co *dist.Coordinator) func(context.Context, string, hsfsim.Options) (*hsfsim.Result, error) {
	return func(ctx context.Context, src string, opts hsfsim.Options) (*hsfsim.Result, error) {
		res, _, err := co.Simulate(ctx, src, opts)
		return res, err
	}
}

// parkDistributedJob submits a distributed job to a manager over a fresh
// DirStore in dir and parks it with Close once the merged state of at least
// one lease has been flushed. It returns the job's submission snapshot.
func parkDistributedJob(t *testing.T, dir string, c *hsfsim.Circuit, opts hsfsim.Options, totalPaths int64) Snapshot {
	t.Helper()
	store, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	co, _ := loopbackFleet(t, 20*time.Millisecond, "w1")
	m, err := New(Config{Runners: 1, Store: store, FlushInterval: time.Millisecond, RunDistributed: onFleet(co)})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := m.Submit(Request{Tenant: "t1", Circuit: c, Opts: opts, Distribute: true})
	if err != nil {
		t.Fatal(err)
	}
	parkMidRun(t, m, store, snap, totalPaths)
	return snap
}

// TestDistributedJobResumesOnFleet parks a distributed job mid-run, then
// restarts the manager over the same store with a fresh fleet: the job must
// resume on the fleet from the merged state it flushed — leasing only the
// prefixes that state lacks, never walking in-process — and finish with the
// single-process amplitudes and path count.
func TestDistributedJobResumesOnFleet(t *testing.T) {
	const totalPaths = 1 << 12
	c := crossCircuit(72, 8, 12)
	opts := hsfOpts(8)
	opts.MaxAmplitudes = 64
	dir := t.TempDir()
	running := parkDistributedJob(t, dir, c, opts, totalPaths)

	store, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := store.GetCheckpoint(ckptKey(running.Fingerprint))
	if err != nil || ck == nil {
		t.Fatalf("no checkpoint after parking: %v", err)
	}
	tasks := 1 << ck.SplitLevels // every cut of a crossCircuit is a rank-2 RZZ
	co, leased := loopbackFleet(t, 0, "w2")
	m, err := New(Config{Runners: 1, Store: store, RunDistributed: onFleet(co)})
	if err != nil {
		t.Fatal(err)
	}
	defer closeNow(t, m)
	snap := waitState(t, m, running.ID, StateDone)
	if !snap.Resumed {
		t.Fatal("distributed job not marked resumed")
	}
	if st := m.Stats(); st.Resumed != 1 || st.PlanMisses != 0 {
		t.Fatalf("resumed %d, in-process compiles %d; want 1 and 0 (the fleet runs the job)", st.Resumed, st.PlanMisses)
	}
	if n := leased.Load(); n == 0 || n >= int64(tasks) {
		t.Fatalf("fleet leased %d prefixes, want fewer than the %d-task set", n, tasks)
	}
	res, err := m.Result(running.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.PathsSimulated != totalPaths {
		t.Fatalf("resumed job covered %d paths, want %d", res.PathsSimulated, totalPaths)
	}
	want, err := hsfsim.Simulate(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxDiff(res.Amplitudes, want.Amplitudes); d > 1e-12 {
		t.Fatalf("resumed distributed result diverges from Simulate by %g", d)
	}
}

// TestJobRestartDistributedNeedsFleet re-offers a parked distributed job to a
// manager whose coordinator has no workers: like a fresh distributed
// submission it fails with ErrNoWorkers, and it never falls back to an
// in-process walk.
func TestJobRestartDistributedNeedsFleet(t *testing.T) {
	const totalPaths = 1 << 12
	c := crossCircuit(73, 8, 12)
	opts := hsfOpts(8)
	dir := t.TempDir()
	running := parkDistributedJob(t, dir, c, opts, totalPaths)

	store, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	co, _ := loopbackFleet(t, 0)
	m, err := New(Config{Runners: 1, Store: store, RunDistributed: onFleet(co)})
	if err != nil {
		t.Fatal(err)
	}
	defer closeNow(t, m)
	waitState(t, m, running.ID, StateFailed)
	if _, err := m.Result(running.ID); !errors.Is(err, dist.ErrNoWorkers) {
		t.Fatalf("re-offered distributed job failed with %v, want ErrNoWorkers", err)
	}
	if st := m.Stats(); st.PlanMisses != 0 || st.Resumed != 0 {
		t.Fatalf("in-process compiles %d, resumed %d; want 0 and 0", st.PlanMisses, st.Resumed)
	}
}

// TestJobRestartWithoutCheckpointNotResumed parks a running job, then loses
// its checkpoint: the successor restarts the walk from zero, so the job must
// not read as resumed and must not count in jobs_resumed_total.
func TestJobRestartWithoutCheckpointNotResumed(t *testing.T) {
	const totalPaths = 1 << 17
	c := crossCircuit(70, 8, 17)
	opts := hsfOpts(8)
	opts.MaxAmplitudes = 64
	dir := t.TempDir()
	store1, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := New(Config{Runners: 1, Store: store1, FlushInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	running, err := m1.Submit(Request{Tenant: "t1", Circuit: c, Opts: opts})
	if err != nil {
		t.Fatal(err)
	}
	key := parkMidRun(t, m1, store1, running, totalPaths)
	if err := store1.DeleteCheckpoint(key); err != nil {
		t.Fatal(err)
	}

	store2, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := New(Config{Runners: 1, Store: store2})
	if err != nil {
		t.Fatal(err)
	}
	defer closeNow(t, m2)
	if snap := waitState(t, m2, running.ID, StateDone); snap.Resumed {
		t.Fatal("job restarted from zero is marked resumed")
	}
	if st := m2.Stats(); st.Resumed != 0 {
		t.Fatalf("jobs_resumed_total = %d for a restart from zero, want 0", st.Resumed)
	}
	res, err := m2.Result(running.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.PathsSimulated != totalPaths {
		t.Fatalf("restarted run covered %d paths, want %d", res.PathsSimulated, totalPaths)
	}
}

// TestJobAdmissionMatchesSimulate holds job submission and a direct Simulate
// call to one admission gate: the same over-budget plan must be refused by
// both with an equal *BudgetError.
func TestJobAdmissionMatchesSimulate(t *testing.T) {
	c := crossCircuit(74, 8, 6)
	hsfBudget := hsfOpts(8)
	hsfBudget.Workers = 2
	hsfBudget.MemoryBudget = 4 << 10
	hsfPaths := hsfOpts(8)
	hsfPaths.MaxPaths = 8
	schrodinger := hsfsim.Options{Method: hsfsim.Schrodinger, MemoryBudget: 4 << 10}
	for _, tc := range []struct {
		name string
		opts hsfsim.Options
	}{
		{"hsf memory", hsfBudget},
		{"hsf paths", hsfPaths},
		{"schrodinger memory", schrodinger},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := New(Config{Runners: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer closeNow(t, m)
			_, serr := m.Submit(Request{Circuit: c, Opts: tc.opts})
			_, rerr := hsfsim.Simulate(c, tc.opts)
			var sub, run *hsfsim.BudgetError
			if !errors.As(serr, &sub) || !errors.As(rerr, &run) {
				t.Fatalf("Submit = %v, Simulate = %v; want *BudgetError from both", serr, rerr)
			}
			if sub.Estimate != run.Estimate || sub.MemoryBudget != run.MemoryBudget || sub.MaxPaths != run.MaxPaths {
				t.Fatalf("Submit rejected with %+v, Simulate with %+v", *sub, *run)
			}
		})
	}
}

// errDead is what a dead process's store "returns": nothing reaches the disk.
var errDead = errors.New("jobs test: the process is dead")

// dyingStore kills its manager's durability mid-run: once one periodic flush
// holding merged prefixes has landed, every later write fails — flushes, the
// final flush, results and manifests alike — as if the process had been
// killed outright with no Close.
type dyingStore struct {
	Store
	dead atomic.Bool
}

func (s *dyingStore) PutJob(m *Manifest) error {
	if s.dead.Load() {
		return errDead
	}
	return s.Store.PutJob(m)
}

func (s *dyingStore) PutCheckpoint(key string, ck *hsfsim.Checkpoint) error {
	if s.dead.Load() {
		return errDead
	}
	if err := s.Store.PutCheckpoint(key, ck); err != nil {
		return err
	}
	if len(ck.Prefixes) > 0 {
		s.dead.Store(true)
	}
	return nil
}

func (s *dyingStore) DeleteCheckpoint(key string) error {
	if s.dead.Load() {
		return errDead
	}
	return s.Store.DeleteCheckpoint(key)
}

func (s *dyingStore) PutResult(id string, ck *hsfsim.Checkpoint) error {
	if s.dead.Load() {
		return errDead
	}
	return s.Store.PutResult(id, ck)
}

// TestDistributedJobHandoverAfterHardKill is the job service's coordinator
// handover: the first manager's store dies after one periodic flush (no
// Close, no final flush), and a second manager over the same directory, with
// a fresh fleet, resumes the distributed job from that flush alone — leasing
// only the prefixes it lacks and finishing with the exact path count and the
// single-process amplitudes.
func TestDistributedJobHandoverAfterHardKill(t *testing.T) {
	const totalPaths = 1 << 12
	c := crossCircuit(75, 8, 12)
	opts := hsfOpts(8)
	opts.MaxAmplitudes = 64
	dir := t.TempDir()

	disk, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	dying := &dyingStore{Store: disk}
	co1, _ := loopbackFleet(t, 20*time.Millisecond, "w1")
	m1, err := New(Config{Runners: 1, Store: dying, FlushInterval: time.Millisecond, RunDistributed: onFleet(co1)})
	if err != nil {
		t.Fatal(err)
	}
	// The dead manager's goroutines are stopped only once the test is over;
	// nothing it does from here reaches the disk.
	t.Cleanup(func() { closeNow(t, m1) })
	running, err := m1.Submit(Request{Tenant: "t1", Circuit: c, Opts: opts, Distribute: true})
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(30 * time.Second); !dying.dead.Load(); time.Sleep(time.Millisecond) {
		if snap, _ := m1.Get(running.ID); snap.State.Terminal() {
			t.Fatalf("job finished before a periodic flush (state %v)", snap.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("no periodic flush landed")
		}
	}

	store, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := store.GetCheckpoint(ckptKey(running.Fingerprint))
	if err != nil || ck == nil || ck.PathsSimulated >= totalPaths {
		t.Fatalf("surviving flush: %v, err %v; want a mid-run checkpoint", ck, err)
	}
	tasks := 1 << ck.SplitLevels // every cut of a crossCircuit is a rank-2 RZZ
	co2, leased := loopbackFleet(t, 0, "w2")
	m2, err := New(Config{Runners: 1, Store: store, RunDistributed: onFleet(co2)})
	if err != nil {
		t.Fatal(err)
	}
	defer closeNow(t, m2)
	if snap := waitState(t, m2, running.ID, StateDone); !snap.Resumed {
		t.Fatal("distributed job not marked resumed")
	}
	if n := leased.Load(); n == 0 || n > int64(tasks-len(ck.Prefixes)) {
		t.Fatalf("fleet leased %d prefixes, want at most the %d the flush lacked", n, tasks-len(ck.Prefixes))
	}
	res, err := m2.Result(running.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.PathsSimulated != totalPaths {
		t.Fatalf("resumed job covered %d paths, want %d", res.PathsSimulated, totalPaths)
	}
	want, err := hsfsim.Simulate(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxDiff(res.Amplitudes, want.Amplitudes); d > 1e-12 {
		t.Fatalf("resumed distributed result diverges from Simulate by %g", d)
	}
}
