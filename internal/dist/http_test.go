// Integration tests of the dist protocol over real HTTP: hsfsimd handler
// trees behind httptest listeners, driven by a coordinator with the
// production HTTPTransport. External test package so it can import
// internal/server (which itself imports dist).
//
// This file carries the PR's acceptance criterion: a distributed run over
// two workers, one killed mid-run, must reassign the dead worker's leases
// and still reproduce the single-process amplitudes to 1e-12.
package dist_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"math/cmplx"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hsfsim"
	"hsfsim/internal/dist"
	"hsfsim/internal/hsf"
	"hsfsim/internal/qasm"
	"hsfsim/internal/server"
)

func integQASM(n, edges int, seed int64) string {
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

func discard() *log.Logger { return log.New(io.Discard, "", 0) }

// mustNew builds a coordinator from cfg, failing the test on config errors.
func mustNew(t *testing.T, cfg dist.Config) *dist.Coordinator {
	t.Helper()
	co, err := dist.New(cfg)
	if err != nil {
		t.Fatalf("dist.New: %v", err)
	}
	return co
}

func workerAddr(srv *httptest.Server) string {
	return strings.TrimPrefix(srv.URL, "http://")
}

func newWorkerServer() *httptest.Server {
	return httptest.NewServer(server.NewWithConfig(server.Config{Logger: discard()}))
}

// killableWorker is an hsfsimd handler tree that dies after completing
// exactly one lease: every later /dist/run connection is dropped without a
// response — exactly what a worker process dying under the coordinator looks
// like on the wire. Tying the death to the lease count (instead of a timer
// or a polling goroutine) keeps the kill deterministic however fast the
// engine drains the queue.
//
// killed is closed when the first connection is dropped, so a test can hold
// other workers back until the kill has landed.
type killableWorker struct {
	srv    *httptest.Server
	served atomic.Int64
	killed chan struct{}
}

func newKillableWorker() *killableWorker {
	kw := &killableWorker{killed: make(chan struct{})}
	inner := server.NewWithConfig(server.Config{Logger: discard()})
	kw.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/dist/run" {
			if n := kw.served.Add(1); n > 1 {
				if n == 2 {
					close(kw.killed)
				}
				hj, ok := w.(http.Hijacker)
				if !ok {
					panic("httptest response is not hijackable")
				}
				conn, _, err := hj.Hijack()
				if err == nil {
					conn.Close()
				}
				return
			}
		}
		inner.ServeHTTP(w, r)
	}))
	return kw
}

func singleProcessAmps(t *testing.T, job *dist.Job) []complex128 {
	t.Helper()
	opts, err := job.Options()
	if err != nil {
		t.Fatal(err)
	}
	c, err := qasm.Parse(strings.NewReader(job.QASM))
	if err != nil {
		t.Fatal(err)
	}
	res, err := hsfsim.Simulate(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res.Amplitudes
}

func matchAmps(t *testing.T, got, want []complex128, tol float64) {
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

// TestHTTPWorkerKilledMidRun is the acceptance test: two hsfsimd workers over
// real HTTP, one killed after its first completed lease. The coordinator
// must reassign the dead worker's leases to the survivor and the merged
// amplitudes must equal the single-process result to 1e-12.
func TestHTTPWorkerKilledMidRun(t *testing.T) {
	job := &dist.Job{QASM: integQASM(8, 10, 21), Method: "joint", CutPos: 3}

	doomed := newKillableWorker()
	defer doomed.srv.Close()
	// The pool is greedy: an ungated survivor can drain it before the doomed
	// worker is offered the second lease that kills it, and then nothing is
	// ever reassigned. Hold the survivor's leases until the kill has landed.
	inner := server.NewWithConfig(server.Config{Logger: discard()})
	healthy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/dist/run" {
			select {
			case <-doomed.killed:
			case <-r.Context().Done():
				return
			}
		}
		inner.ServeHTTP(w, r)
	}))
	defer healthy.Close()

	var stats dist.Stats
	co := mustNew(t, dist.Config{
		Transport:    &dist.HTTPTransport{},
		Logger:       discard(),
		Stats:        &stats,
		BatchSize:    1, // many small leases so the kill lands mid-run
		LeaseTimeout: 30 * time.Second,
	})
	co.AddWorker(workerAddr(healthy))
	co.AddWorker(workerAddr(doomed.srv))

	// The doomed worker kills itself when offered its second lease, so that
	// lease fails while assigned and must be reassigned to the survivor.
	res, err := co.Run(context.Background(), job, dist.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Workers != 2 {
		t.Fatalf("run started with %d workers, want 2", res.Workers)
	}
	if res.Reassignments == 0 {
		t.Fatal("expected the dead worker's leases to be reassigned")
	}
	if stats.LeasesReassigned.Load() != res.Reassignments {
		t.Fatalf("stats reassignments %d != result %d", stats.LeasesReassigned.Load(), res.Reassignments)
	}
	// Retirement (3 strikes) is timing-dependent here — the survivor may
	// drain the queue first; the loopback test pins it deterministically.
	matchAmps(t, res.Amplitudes, singleProcessAmps(t, job), 1e-12)
}

// TestHTTPDistributedMatchesSingleProcess is the no-fault baseline over real
// HTTP sockets for both cutting methods.
func TestHTTPDistributedMatchesSingleProcess(t *testing.T) {
	w1 := newWorkerServer()
	defer w1.Close()
	w2 := newWorkerServer()
	defer w2.Close()

	for _, method := range []string{"standard", "joint"} {
		t.Run(method, func(t *testing.T) {
			job := &dist.Job{QASM: integQASM(8, 8, 22), Method: method, CutPos: 3}
			co := mustNew(t, dist.Config{Transport: &dist.HTTPTransport{}, Logger: discard()})
			co.AddWorker(workerAddr(w1))
			co.AddWorker(workerAddr(w2))
			res, err := co.Run(context.Background(), job, dist.RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			matchAmps(t, res.Amplitudes, singleProcessAmps(t, job), 1e-12)
		})
	}
}

// TestHTTPAllWorkersDeadResumes loses the whole fleet mid-run, checks the
// failure checkpoint, and finishes the job on a fresh fleet from it.
func TestHTTPAllWorkersDeadResumes(t *testing.T) {
	job := &dist.Job{QASM: integQASM(8, 10, 23), Method: "joint", CutPos: 3}

	doomed := newKillableWorker()
	defer doomed.srv.Close()
	co := mustNew(t, dist.Config{
		Transport:    &dist.HTTPTransport{},
		Logger:       discard(),
		BatchSize:    1,
		LeaseTimeout: 30 * time.Second,
	})
	co.AddWorker(workerAddr(doomed.srv))

	// The only worker dies after its first completed lease, so the run fails
	// with that lease's results already merged.
	var ckBuf bytes.Buffer
	_, err := co.Run(context.Background(), job, dist.RunOptions{CheckpointWriter: &ckBuf})
	if !errors.Is(err, dist.ErrNoWorkers) {
		t.Fatalf("got %v, want ErrNoWorkers", err)
	}
	ck, err := hsf.ReadCheckpoint(&ckBuf)
	if err != nil {
		t.Fatalf("failure checkpoint unreadable: %v", err)
	}
	if len(ck.Prefixes) == 0 {
		t.Fatal("failure checkpoint is empty; at least one lease completed")
	}

	fresh := newWorkerServer()
	defer fresh.Close()
	co2 := mustNew(t, dist.Config{Transport: &dist.HTTPTransport{}, Logger: discard()})
	co2.AddWorker(workerAddr(fresh))
	res, err := co2.Run(context.Background(), job, dist.RunOptions{Resume: ck})
	if err != nil {
		t.Fatal(err)
	}
	matchAmps(t, res.Amplitudes, singleProcessAmps(t, job), 1e-12)
}
