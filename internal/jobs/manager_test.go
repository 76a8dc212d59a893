package jobs

import (
	"context"
	"errors"
	"io/fs"
	"math/cmplx"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"hsfsim"
)

// crossCircuit builds an n-qubit circuit with k RZZ gates crossing the
// CutPos=n/2-1 bipartition: under StandardHSF every crossing gate is a
// separate rank-2 cut, so the walk has 2^k paths — a knob for run length.
func crossCircuit(seed int64, n, k int) *hsfsim.Circuit {
	rng := rand.New(rand.NewSource(seed))
	c := hsfsim.NewCircuit(n)
	for q := 0; q < n; q++ {
		c.Append(hsfsim.H(q))
	}
	cut := n/2 - 1
	for i := 0; i < k; i++ {
		c.Append(hsfsim.RZZ(rng.Float64()*2, cut, cut+1))
		c.Append(hsfsim.RX(rng.Float64(), rng.Intn(n)))
	}
	return c
}

func hsfOpts(n int) hsfsim.Options {
	return hsfsim.Options{Method: hsfsim.StandardHSF, CutPos: n/2 - 1}
}

func waitState(t *testing.T, m *Manager, id string, want State) Snapshot {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		snap, err := m.Get(id)
		if err != nil {
			t.Fatalf("Get(%s): %v", id, err)
		}
		if snap.State == want {
			return snap
		}
		if snap.State.Terminal() {
			t.Fatalf("job %s reached %v (error %q) while waiting for %v", id, snap.State, snap.Error, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %v", id, want)
	return Snapshot{}
}

func maxDiff(a, b []complex128) float64 {
	var d float64
	for i := range a {
		if e := cmplx.Abs(a[i] - b[i]); e > d {
			d = e
		}
	}
	return d
}

func closeNow(t *testing.T, m *Manager) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestSubmitRunDone(t *testing.T) {
	m, err := New(Config{Runners: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer closeNow(t, m)
	c := crossCircuit(1, 8, 6)
	opts := hsfOpts(8)
	opts.MaxAmplitudes = 32
	snap, err := m.Submit(Request{Tenant: "acme", RequestID: "req-1", Circuit: c, Opts: opts})
	if err != nil {
		t.Fatal(err)
	}
	if snap.State != StateQueued || snap.Tenant != "acme" || snap.RequestID != "req-1" {
		t.Fatalf("bad initial snapshot %+v", snap)
	}
	done := waitState(t, m, snap.ID, StateDone)
	if done.PathsDone != done.PathsTotal || done.PathsDone == 0 {
		t.Fatalf("progress not final: %d/%d", done.PathsDone, done.PathsTotal)
	}
	res, err := m.Result(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	want, err := hsfsim.Simulate(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Amplitudes) != 32 {
		t.Fatalf("got %d amplitudes, want 32", len(res.Amplitudes))
	}
	if d := maxDiff(res.Amplitudes, want.Amplitudes); d > 1e-12 {
		t.Fatalf("amplitudes diverge from direct Simulate by %g", d)
	}
	if res.PathsSimulated != want.PathsSimulated {
		t.Fatalf("paths %d != %d", res.PathsSimulated, want.PathsSimulated)
	}
}

func TestSchrodingerJob(t *testing.T) {
	m, err := New(Config{Runners: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer closeNow(t, m)
	c := crossCircuit(2, 6, 4)
	opts := hsfsim.Options{Method: hsfsim.Schrodinger, MaxAmplitudes: 16}
	snap, err := m.Submit(Request{Circuit: c, Opts: opts})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, snap.ID, StateDone)
	res, err := m.Result(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := hsfsim.Simulate(c, opts)
	if d := maxDiff(res.Amplitudes, want.Amplitudes); d > 1e-12 {
		t.Fatalf("schrodinger job diverges by %g", d)
	}
}

// submitBlocker submits a job long enough to hold the single runner while
// the test stages queued work behind it, and waits until it is running.
func submitBlocker(t *testing.T, m *Manager) Snapshot {
	t.Helper()
	// 2^16 paths (tens of ms): long enough that the jobs a test queues behind
	// the blocker are all submitted while it still runs.
	c := crossCircuit(99, 8, 16)
	snap, err := m.Submit(Request{Tenant: "blocker", Circuit: c, Opts: hsfOpts(8)})
	if err != nil {
		t.Fatal(err)
	}
	return waitState(t, m, snap.ID, StateRunning)
}

func TestBatchingSharesPlanAndWalk(t *testing.T) {
	m, err := New(Config{Runners: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer closeNow(t, m)
	blocker := submitBlocker(t, m)

	// Four identical circuits across two tenants with distinct priorities
	// and distinct amplitude windows: one compiled plan, one walk.
	c := crossCircuit(7, 8, 8)
	maxAmps := []int{4, 16, 0, 7}
	tenants := []string{"a", "b", "a", "b"}
	prios := []int{0, 5, 2, 1}
	ids := make([]string, len(maxAmps))
	for i := range maxAmps {
		opts := hsfOpts(8)
		opts.MaxAmplitudes = maxAmps[i]
		snap, err := m.Submit(Request{Tenant: tenants[i], Priority: prios[i], Circuit: crossCircuit(7, 8, 8), Opts: opts})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = snap.ID
	}
	waitState(t, m, blocker.ID, StateDone)
	for i, id := range ids {
		snap := waitState(t, m, id, StateDone)
		if snap.BatchSize != len(ids) {
			t.Fatalf("job %d: batch size %d, want %d", i, snap.BatchSize, len(ids))
		}
		if !snap.PlanShared {
			t.Fatalf("job %d: plan not shared", i)
		}
	}

	st := m.Stats()
	if st.Batches != 2 {
		t.Fatalf("got %d batches (blocker + one shared walk expected)", st.Batches)
	}
	if st.BatchedJobs != int64(len(ids)) {
		t.Fatalf("batched jobs %d, want %d", st.BatchedJobs, len(ids))
	}
	// Two distinct fingerprints compiled (blocker + the shared circuit) for
	// six jobs: the duplicate submissions and both executions hit the cache.
	if st.PlanMisses != 2 {
		t.Fatalf("%d plan compiles for %d jobs, want 2", st.PlanMisses, len(ids)+1)
	}
	if st.PlanHits < int64(len(ids)-1) {
		t.Fatalf("plan cache hits=%d, want at least %d", st.PlanHits, len(ids)-1)
	}

	want, err := hsfsim.Simulate(c, hsfOpts(8))
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		res, err := m.Result(id)
		if err != nil {
			t.Fatal(err)
		}
		wantLen := maxAmps[i]
		if wantLen == 0 {
			wantLen = 1 << 8
		}
		if len(res.Amplitudes) != wantLen {
			t.Fatalf("job %d: %d amplitudes, want %d", i, len(res.Amplitudes), wantLen)
		}
		if d := maxDiff(res.Amplitudes, want.Amplitudes[:wantLen]); d > 1e-12 {
			t.Fatalf("job %d diverges from direct Simulate by %g", i, d)
		}
	}
}

func TestPriorityNeverStarved(t *testing.T) {
	m, err := New(Config{Runners: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer closeNow(t, m)
	blocker := submitBlocker(t, m)

	// Low-priority jobs enqueue first, high-priority after; with one
	// runner, strict priority must start every high job before any low.
	var lowIDs, highIDs []string
	for i := 0; i < 3; i++ {
		snap, err := m.Submit(Request{Tenant: "low", Priority: 0, Circuit: crossCircuit(int64(10+i), 8, 5), Opts: hsfOpts(8)})
		if err != nil {
			t.Fatal(err)
		}
		lowIDs = append(lowIDs, snap.ID)
	}
	for i := 0; i < 3; i++ {
		snap, err := m.Submit(Request{Tenant: "high", Priority: 9, Circuit: crossCircuit(int64(20+i), 8, 5), Opts: hsfOpts(8)})
		if err != nil {
			t.Fatal(err)
		}
		highIDs = append(highIDs, snap.ID)
	}
	waitState(t, m, blocker.ID, StateDone)
	var lastHighStart, firstLowStart time.Time
	for _, id := range highIDs {
		snap := waitState(t, m, id, StateDone)
		if snap.Started.After(lastHighStart) {
			lastHighStart = snap.Started
		}
	}
	for _, id := range lowIDs {
		snap := waitState(t, m, id, StateDone)
		if firstLowStart.IsZero() || snap.Started.Before(firstLowStart) {
			firstLowStart = snap.Started
		}
	}
	if lastHighStart.After(firstLowStart) {
		t.Fatalf("a high-priority job started at %v, after a low-priority one at %v: starvation",
			lastHighStart, firstLowStart)
	}
	// Bounded wait: no high-priority job may wait longer than the point at
	// which the first low-priority job got served.
	for _, id := range highIDs {
		snap, _ := m.Get(id)
		if snap.Started.After(firstLowStart) {
			t.Fatalf("high-priority job %s waited past the first low-priority start", id)
		}
	}
}

func TestQueueFullAndQuota(t *testing.T) {
	m, err := New(Config{Runners: 1, QueueCap: 3, Quotas: map[string]int{"limited": 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer closeNow(t, m)
	submitBlocker(t, m)

	// Tenant quota: two outstanding jobs fill tenant "limited"'s quota; the
	// third is rejected even though the queue still has room.
	for i := 0; i < 2; i++ {
		if _, err := m.Submit(Request{Tenant: "limited", Circuit: crossCircuit(int64(30+i), 8, 4), Opts: hsfOpts(8)}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	_, err = m.Submit(Request{Tenant: "limited", Circuit: crossCircuit(32, 8, 4), Opts: hsfOpts(8)})
	var qe *QuotaError
	if !errors.As(err, &qe) || !errors.Is(err, ErrQuota) {
		t.Fatalf("want QuotaError, got %v", err)
	}
	if qe.RetryAfter <= 0 {
		t.Fatalf("QuotaError without Retry-After hint: %+v", qe)
	}

	// Queue capacity: a third queued job fills QueueCap=3; the next is shed.
	if _, err := m.Submit(Request{Tenant: "other", Circuit: crossCircuit(33, 8, 4), Opts: hsfOpts(8)}); err != nil {
		t.Fatal(err)
	}
	_, err = m.Submit(Request{Tenant: "other", Circuit: crossCircuit(34, 8, 4), Opts: hsfOpts(8)})
	var fe *QueueFullError
	if !errors.As(err, &fe) || !errors.Is(err, ErrQueueFull) {
		t.Fatalf("want QueueFullError, got %v", err)
	}
	if fe.RetryAfter <= 0 || fe.Depth != 3 || fe.Capacity != 3 {
		t.Fatalf("bad QueueFullError %+v", fe)
	}
}

func TestBudgetRejectionAtSubmit(t *testing.T) {
	m, err := New(Config{Runners: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer closeNow(t, m)
	opts := hsfOpts(8)
	opts.MaxPaths = 4 // the circuit has 2^6 paths
	_, err = m.Submit(Request{Circuit: crossCircuit(40, 8, 6), Opts: opts})
	if !errors.Is(err, hsfsim.ErrBudget) {
		t.Fatalf("want ErrBudget, got %v", err)
	}
	if st := m.Stats(); st.Submitted != 0 || st.Queued != 0 {
		t.Fatalf("rejected job was counted: %+v", st)
	}
}

func TestCancelQueuedAndRunning(t *testing.T) {
	m, err := New(Config{Runners: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer closeNow(t, m)
	blocker := submitBlocker(t, m)

	queued, err := m.Submit(Request{Circuit: crossCircuit(50, 8, 4), Opts: hsfOpts(8)})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := m.Cancel(queued.ID)
	if err != nil || snap.State != StateCancelled {
		t.Fatalf("cancel queued: %v %+v", err, snap)
	}

	// Cancel the running blocker: its walk must stop without failing it.
	snap, err = m.Cancel(blocker.ID)
	if err != nil || snap.State != StateCancelled {
		t.Fatalf("cancel running: %v %+v", err, snap)
	}
	// Idempotent on terminal jobs.
	if snap, err = m.Cancel(blocker.ID); err != nil || snap.State != StateCancelled {
		t.Fatalf("re-cancel: %v %+v", err, snap)
	}
	if _, err := m.Cancel("job-nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
	if _, err := m.Result(queued.ID); !errors.Is(err, ErrNoResult) {
		t.Fatalf("cancelled job yielded a result: %v", err)
	}
	// The runner must come back for new work after the cancelled walk.
	again, err := m.Submit(Request{Circuit: crossCircuit(51, 8, 4), Opts: hsfOpts(8)})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, again.ID, StateDone)
}

func TestWatchSignalsTransitions(t *testing.T) {
	m, err := New(Config{Runners: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer closeNow(t, m)
	snap, err := m.Submit(Request{Circuit: crossCircuit(60, 8, 5), Opts: hsfOpts(8)})
	if err != nil {
		t.Fatal(err)
	}
	ch, stop, err := m.Watch(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	deadline := time.After(30 * time.Second)
	for {
		cur, _ := m.Get(snap.ID)
		if cur.State == StateDone {
			return
		}
		select {
		case <-ch:
		case <-deadline:
			t.Fatal("no watch signal before completion")
		}
	}
}

// parkMidRun waits for a durable mid-run checkpoint of the running job, then
// kills the manager. Close also flushes the final engine checkpoint, so a
// successor on the same store provably resumes rather than restarts. It
// returns the checkpoint's store key.
func parkMidRun(t *testing.T, m1 *Manager, store1 Store, running Snapshot, totalPaths int64) string {
	t.Helper()
	key := ckptKey(running.Fingerprint)
	deadline := time.Now().Add(30 * time.Second)
	for {
		if ck, _ := store1.GetCheckpoint(key); ck != nil && ck.PathsSimulated > 0 {
			break
		}
		if snap, _ := m1.Get(running.ID); snap.State.Terminal() {
			t.Fatalf("job finished before a checkpoint flush; grow the workload (state %v)", snap.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("no mid-run checkpoint appeared")
		}
		time.Sleep(time.Millisecond)
	}
	closeNow(t, m1)
	ck, err := store1.GetCheckpoint(key)
	if err != nil || ck == nil {
		t.Fatalf("no checkpoint survived the kill: %v", err)
	}
	if ck.PathsSimulated <= 0 || ck.PathsSimulated >= totalPaths {
		t.Fatalf("checkpoint covers %d paths, want a strict mid-run state", ck.PathsSimulated)
	}
	return key
}

func TestKillRestartResumesFromCheckpoint(t *testing.T) {
	dir := t.TempDir()
	store1, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := New(Config{Runners: 1, Store: store1, FlushInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}

	// A long walk (2^17 paths) plus one job queued behind it.
	const killPaths = 1 << 17
	c := crossCircuit(70, 8, 17)
	opts := hsfOpts(8)
	opts.MaxAmplitudes = 64
	running, err := m1.Submit(Request{Tenant: "t1", RequestID: "req-kill", Circuit: c, Opts: opts})
	if err != nil {
		t.Fatal(err)
	}
	c2 := crossCircuit(71, 8, 5)
	queued, err := m1.Submit(Request{Tenant: "t2", Circuit: c2, Opts: hsfOpts(8)})
	if err != nil {
		t.Fatal(err)
	}

	parkMidRun(t, m1, store1, running, killPaths)

	// Restart over the same store: both jobs must be re-offered and finish.
	store2, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := New(Config{Runners: 1, Store: store2})
	if err != nil {
		t.Fatal(err)
	}
	defer closeNow(t, m2)
	snap := waitState(t, m2, running.ID, StateDone)
	if !snap.Resumed {
		t.Fatal("restarted job not marked resumed")
	}
	if snap.RequestID != "req-kill" {
		t.Fatalf("request ID lost across restart: %+v", snap)
	}
	waitState(t, m2, queued.ID, StateDone)

	res, err := m2.Result(running.ID)
	if err != nil {
		t.Fatal(err)
	}
	want, err := hsfsim.Simulate(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxDiff(res.Amplitudes, want.Amplitudes); d > 1e-12 {
		t.Fatalf("resumed result diverges from direct Simulate by %g", d)
	}
	if res.PathsSimulated != killPaths {
		t.Fatalf("resumed run covered %d paths, want %d", res.PathsSimulated, killPaths)
	}
	res2, err := m2.Result(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	want2, _ := hsfsim.Simulate(c2, hsfOpts(8))
	if d := maxDiff(res2.Amplitudes, want2.Amplitudes); d > 1e-12 {
		t.Fatalf("re-offered queued job diverges by %g", d)
	}
	if st := m2.Stats(); st.Resumed < 1 {
		t.Fatalf("resume not counted: %+v", st)
	}
}

// TestStaleCheckpointRestartsFromZero parks a job mid-run, then makes its
// checkpoint one of another plan generation (what an upgrade that changes
// PlanHash leaves in the store): the successor must drop it, run the whole
// tree, and not report the job as resumed.
func TestStaleCheckpointRestartsFromZero(t *testing.T) {
	dir := t.TempDir()
	store1, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := New(Config{Runners: 1, Store: store1, FlushInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	const totalPaths = 1 << 17
	c := crossCircuit(70, 8, 17)
	opts := hsfOpts(8)
	opts.MaxAmplitudes = 64
	running, err := m1.Submit(Request{Tenant: "t1", Circuit: c, Opts: opts})
	if err != nil {
		t.Fatal(err)
	}
	key := parkMidRun(t, m1, store1, running, totalPaths)

	store2, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := store2.GetCheckpoint(key)
	if err != nil {
		t.Fatal(err)
	}
	ck.PlanHash ^= 1
	if err := store2.PutCheckpoint(key, ck); err != nil {
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
	res, err := m2.Result(running.ID)
	if err != nil {
		t.Fatal(err)
	}
	want, err := hsfsim.Simulate(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxDiff(res.Amplitudes, want.Amplitudes); d > 1e-12 {
		t.Fatalf("restarted result diverges from direct Simulate by %g", d)
	}
	if res.PathsSimulated != totalPaths {
		t.Fatalf("restarted run covered %d paths, want all %d", res.PathsSimulated, totalPaths)
	}
}

func TestResultsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	store1, _ := NewDirStore(dir)
	m1, err := New(Config{Runners: 1, Store: store1})
	if err != nil {
		t.Fatal(err)
	}
	c := crossCircuit(80, 8, 4)
	opts := hsfOpts(8)
	opts.MaxAmplitudes = 8
	snap, err := m1.Submit(Request{Circuit: c, Opts: opts})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m1, snap.ID, StateDone)
	closeNow(t, m1)

	store2, _ := NewDirStore(dir)
	m2, err := New(Config{Runners: 1, Store: store2})
	if err != nil {
		t.Fatal(err)
	}
	defer closeNow(t, m2)
	got, err := m2.Get(snap.ID)
	if err != nil || got.State != StateDone {
		t.Fatalf("done job lost across restart: %v %+v", err, got)
	}
	res, err := m2.Result(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := hsfsim.Simulate(c, opts)
	if d := maxDiff(res.Amplitudes, want.Amplitudes); d > 1e-12 {
		t.Fatalf("stored result diverges by %g", d)
	}
}

// TestDDManifestResumesDense restarts on a job store that a build with the
// decision-diagram walker left behind: testdata/dd-store holds a running
// standard job on crossCircuit(72, 8, 13) for 64 amplitudes, with "backend":
// 1 (DD) in its options, and the mid-run checkpoint that walker flushed at
// 2048 of 8192 paths. The field is ignored: the job resumes from the
// checkpoint on the dense walker and ends at the Schrödinger amplitudes.
func TestDDManifestResumesDense(t *testing.T) {
	const id = "job-009cb8e865673b98"
	dir := t.TempDir()
	src := filepath.Join("testdata", "dd-store")
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Join(dir, filepath.Dir(rel)), 0o755); err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dir, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	store, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(Config{Runners: 1, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	defer closeNow(t, m)
	if snap := waitState(t, m, id, StateDone); !snap.Resumed {
		t.Fatal("job restarted from zero: the DD checkpoint was not taken")
	}
	res, err := m.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	want, err := hsfsim.Simulate(crossCircuit(72, 8, 13), hsfsim.Options{Method: hsfsim.Schrodinger, MaxAmplitudes: 64})
	if err != nil {
		t.Fatal(err)
	}
	if d := maxDiff(res.Amplitudes, want.Amplitudes); len(res.Amplitudes) != 64 || d > 1e-12 {
		t.Fatalf("%d amplitudes, off the oracle by %g", len(res.Amplitudes), d)
	}
	if res.PathsSimulated != 1<<13 {
		t.Fatalf("resumed job covered %d paths, want %d", res.PathsSimulated, 1<<13)
	}
}

func TestWireOptionsRoundTrip(t *testing.T) {
	in := hsfsim.Options{
		Method:         hsfsim.JointHSF,
		CutPos:         3,
		MaxAmplitudes:  100,
		Workers:        2,
		BlockStrategy:  hsfsim.BlockWindow,
		MaxBlockQubits: 5,
		Tol:            1e-9,
		Timeout:        3 * time.Second,
		MemoryBudget:   1 << 30,
		MaxPaths:       12345,
	}
	w := wireOptions(in)
	if w2 := wireOptions(w.Options()); w != w2 {
		t.Fatalf("wire round trip lost fields:\n in %+v\nout %+v", w, w2)
	}
	out := w.Options()
	if out.Method != in.Method || out.BlockStrategy != in.BlockStrategy ||
		out.Timeout != in.Timeout || out.MaxPaths != in.MaxPaths {
		t.Fatalf("options reconstruction mismatch: %+v", out)
	}
}
