package dist

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"math/cmplx"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hsfsim"
	"hsfsim/internal/cut"
	"hsfsim/internal/hsf"
	"hsfsim/internal/qasm"
)

// testQASM builds a QAOA-style circuit with crossing RZZ entanglers: joint
// cutting groups them into blocks, so the job exercises real joint-cut path
// spaces.
func testQASM(n, edges int, seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	var b strings.Builder
	fmt.Fprintf(&b, "qreg q[%d];\n", n)
	for q := 0; q < n; q++ {
		fmt.Fprintf(&b, "h q[%d];\n", q)
	}
	for i := 0; i < edges; i++ {
		a := rng.Intn(n)
		c := (a + 1 + rng.Intn(n-1)) % n
		fmt.Fprintf(&b, "rzz(%.6f) q[%d],q[%d];\n", rng.Float64()*2, a, c)
	}
	for q := 0; q < n; q++ {
		fmt.Fprintf(&b, "rx(%.6f) q[%d];\n", rng.Float64(), q)
	}
	return b.String()
}

// jobPlan compiles the job's cut plan the way the coordinator does.
func jobPlan(t *testing.T, job *Job) *cut.Plan {
	t.Helper()
	cp, _, err := job.compile(nil)
	if err != nil {
		t.Fatal(err)
	}
	return cp.CutPlan()
}

// singleProcess runs the job locally through the ordinary engine.
func singleProcess(t *testing.T, job *Job) []complex128 {
	t.Helper()
	res, err := hsf.Run(jobPlan(t, job), hsf.Options{MaxAmplitudes: job.MaxAmplitudes})
	if err != nil {
		t.Fatal(err)
	}
	return res.Amplitudes
}

func quietLogger() *log.Logger { return log.New(io.Discard, "", 0) }

// mustNew builds a coordinator from cfg, failing the test on config errors.
func mustNew(t *testing.T, cfg Config) *Coordinator {
	t.Helper()
	co, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return co
}

func testJob(seed int64) *Job {
	return &Job{QASM: testQASM(8, 10, seed), Method: "joint", CutPos: 3}
}

func assertAmplitudesMatch(t *testing.T, got, want []complex128, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("amplitude count %d != %d", len(got), len(want))
	}
	for i := range want {
		if d := cmplx.Abs(got[i] - want[i]); d > tol {
			t.Fatalf("amplitude %d differs by %g (> %g)", i, d, tol)
		}
	}
}

func TestLoopbackDistributedMatchesSingleProcess(t *testing.T) {
	job := testJob(3)
	lb := NewLoopback()
	for _, w := range []string{"w0", "w1", "w2"} {
		lb.AddWorker(w, ExecOptions{})
	}
	co := mustNew(t, Config{Transport: lb, Logger: quietLogger()})
	co.AddWorker("w0")
	co.AddWorker("w1")
	co.AddWorker("w2")
	res, err := co.Run(context.Background(), job, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Workers != 3 {
		t.Fatalf("res.Workers = %d, want 3", res.Workers)
	}
	if res.Batches < 2 {
		t.Fatalf("want ≥ 2 batches, got %d", res.Batches)
	}
	assertAmplitudesMatch(t, res.Amplitudes, singleProcess(t, job), 1e-12)
}

// TestWorkerKilledMidRunReassigns is the loopback half of the acceptance
// criterion: one of two workers dies after its first lease; its remaining
// batches must be reassigned and the amplitudes still match single-process.
func TestWorkerKilledMidRunReassigns(t *testing.T) {
	job := testJob(4)
	lb := NewLoopback()
	lb.AddWorker("alive", ExecOptions{})
	lb.AddWorker("doomed", ExecOptions{})
	// Pace the survivor: the pool is greedy, so an unthrottled in-process
	// worker would drain it before "doomed" ever holds the lease we kill.
	lb.Delay("alive", 2*time.Millisecond)

	var stats Stats
	var doomedLeases atomic.Int64
	cfg := Config{
		Transport: lb,
		Logger:    quietLogger(),
		Stats:     &stats,
		BatchSize: 1, // many small batches → the kill lands mid-run
		onLease: func(worker string, batch int) {
			if worker == "doomed" && doomedLeases.Add(1) == 2 {
				lb.Kill("doomed")
			}
		},
	}
	co := mustNew(t, cfg)
	co.AddWorker("alive")
	co.AddWorker("doomed")
	res, err := co.Run(context.Background(), job, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reassignments == 0 {
		t.Fatal("expected at least one lease reassignment")
	}
	if stats.WorkersRetired.Load() == 0 {
		t.Fatal("expected the killed worker to be retired")
	}
	assertAmplitudesMatch(t, res.Amplitudes, singleProcess(t, job), 1e-12)
}

// TestStalledWorkerLeaseExpires covers the other failure mode: a worker that
// hangs. Its lease must expire and the batch complete elsewhere.
func TestStalledWorkerLeaseExpires(t *testing.T) {
	job := testJob(5)
	lb := NewLoopback()
	lb.AddWorker("alive", ExecOptions{})
	lb.AddWorker("stuck", ExecOptions{})
	lb.Stall("stuck")
	// Pace the survivor so "stuck" takes a lease before the pool drains.
	lb.Delay("alive", 2*time.Millisecond)

	co := mustNew(t, Config{
		Transport:    lb,
		Logger:       quietLogger(),
		LeaseTimeout: 100 * time.Millisecond,
		BatchSize:    2,
	})
	co.AddWorker("alive")
	co.AddWorker("stuck")
	res, err := co.Run(context.Background(), job, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reassignments == 0 {
		t.Fatal("expected the stalled worker's leases to be reassigned")
	}
	assertAmplitudesMatch(t, res.Amplitudes, singleProcess(t, job), 1e-12)
}

func TestAllWorkersDeadFailsWithCheckpoint(t *testing.T) {
	job := testJob(6)
	lb := NewLoopback()
	lb.AddWorker("w0", ExecOptions{})
	var killOnce atomic.Bool
	co := mustNew(t, Config{
		Transport: lb,
		Logger:    quietLogger(),
		BatchSize: 1,
		onLease: func(worker string, batch int) {
			// Let the first lease succeed so the checkpoint is non-empty,
			// then kill the only worker.
			if killOnce.Swap(true) {
				lb.Kill("w0")
			}
		},
	})
	co.AddWorker("w0")
	var ckBuf bytes.Buffer
	_, err := co.Run(context.Background(), job, RunOptions{CheckpointWriter: &ckBuf})
	if !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("got %v, want ErrNoWorkers", err)
	}
	ck, err := hsf.ReadCheckpoint(&ckBuf)
	if err != nil {
		t.Fatalf("failure checkpoint unreadable: %v", err)
	}
	if len(ck.Prefixes) == 0 {
		t.Fatal("failure checkpoint is empty; first lease should have merged")
	}

	// Resume on a healthy fleet completes the job from the snapshot.
	lb2 := NewLoopback()
	lb2.AddWorker("w1", ExecOptions{})
	co2 := mustNew(t, Config{Transport: lb2, Logger: quietLogger()})
	co2.AddWorker("w1")
	res, err := co2.Run(context.Background(), job, RunOptions{Resume: ck})
	if err != nil {
		t.Fatal(err)
	}
	assertAmplitudesMatch(t, res.Amplitudes, singleProcess(t, job), 1e-12)
}

func TestRunWithoutWorkers(t *testing.T) {
	co := mustNew(t, Config{Transport: NewLoopback(), Logger: quietLogger()})
	if _, err := co.Run(context.Background(), testJob(1), RunOptions{}); !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("got %v, want ErrNoWorkers", err)
	}
}

func TestPermanentErrorFailsFast(t *testing.T) {
	job := testJob(7)
	lb := NewLoopback()
	lb.AddWorker("w0", ExecOptions{MaxPaths: 1}) // admission rejects every lease
	co := mustNew(t, Config{Transport: lb, Logger: quietLogger()})
	co.AddWorker("w0")
	_, err := co.Run(context.Background(), job, RunOptions{})
	if err == nil || !IsPermanent(err) {
		t.Fatalf("got %v, want a permanent error", err)
	}
	if !errors.Is(err, hsf.ErrBudget) {
		t.Fatalf("got %v, want hsf.ErrBudget underneath", err)
	}
}

func TestExecuteRunRejectsPlanMismatch(t *testing.T) {
	job := testJob(8)
	req := &RunRequest{
		Job:         *job,
		PlanHash:    hsf.PlanHash(jobPlan(t, job)) + 1,
		SplitLevels: 0,
		Prefixes:    [][]int{{}},
	}
	_, err := ExecuteRun(context.Background(), req, ExecOptions{})
	if !errors.Is(err, ErrPlanMismatch) || !IsPermanent(err) {
		t.Fatalf("got %v, want permanent ErrPlanMismatch", err)
	}
}

func TestRegistryTTLExpiry(t *testing.T) {
	r := newRegistry(time.Minute)
	now := time.Unix(1000, 0)
	r.now = func() time.Time { return now }
	r.addStatic("static:1")
	r.register("dyn:1")
	if got := r.workers(); len(got) != 2 {
		t.Fatalf("workers = %v, want 2 entries", got)
	}
	now = now.Add(2 * time.Minute)
	if got := r.workers(); len(got) != 1 || got[0] != "static:1" {
		t.Fatalf("workers after TTL = %v, want only static:1", got)
	}
	// A fresh heartbeat brings the dynamic worker back.
	r.register("dyn:1")
	if got := r.workers(); len(got) != 2 {
		t.Fatalf("workers after re-register = %v, want 2 entries", got)
	}
}

// TestJobBuildPlanValidates: a job that cannot be planned — unknown method,
// unknown strategy, unparsable circuit — fails the coordinator's compile and
// every lease of it, on a warm worker cache too, with a permanent error.
func TestJobBuildPlanValidates(t *testing.T) {
	plans := hsfsim.NewPlanCache(4)
	for _, tc := range []struct {
		name string
		job  Job
	}{
		{"unknown method", Job{QASM: "qreg q[4]; h q[0];", Method: "nope", CutPos: 1}},
		{"unknown strategy", Job{QASM: "qreg q[4]; h q[0];", Method: "joint", Strategy: "nope", CutPos: 1}},
		{"unparsable qasm", Job{QASM: "not qasm", Method: "joint", CutPos: 1}},
	} {
		if _, _, err := tc.job.compile(nil); err == nil {
			t.Fatalf("%s: coordinator compile accepted it", tc.name)
		}
		req := &RunRequest{Job: tc.job, SplitLevels: 0, Prefixes: [][]int{{}}}
		for i := 0; i < 2; i++ {
			_, err := ExecuteRun(context.Background(), req, ExecOptions{Plans: plans})
			if err == nil || !IsPermanent(err) || errors.Is(err, ErrPlanMismatch) {
				t.Fatalf("%s, lease %d: got %v, want a permanent planning error", tc.name, i, err)
			}
		}
	}
	c, err := qasm.Parse(strings.NewReader(testQASM(6, 6, 2)))
	if err != nil {
		t.Fatal(err)
	}
	if c.NumQubits != 6 {
		t.Fatalf("test circuit has %d qubits, want 6", c.NumQubits)
	}
}
