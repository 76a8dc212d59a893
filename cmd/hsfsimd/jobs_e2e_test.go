package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"hsfsim"
	"hsfsim/internal/jobs"
	"hsfsim/internal/qasm"
	"hsfsim/internal/server"
)

// startJobsDaemon boots run() with a durable job store and returns the base
// URL plus the exit channel. The caller stops it with SIGTERM.
func startJobsDaemon(t *testing.T, storeDir string) (string, chan int) {
	t.Helper()
	addrCh := make(chan net.Addr, 1)
	onListen = func(a net.Addr) { addrCh <- a }
	t.Cleanup(func() { onListen = nil })
	exitCh := make(chan int, 1)
	go func() {
		exitCh <- run([]string{
			"-addr", "127.0.0.1:0",
			"-jobs-store", storeDir,
			"-job-runners", "1",
			"-job-flush", "50ms",
			"-drain-timeout", "10s",
		})
	}()
	select {
	case a := <-addrCh:
		return "http://" + a.String(), exitCh
	case <-time.After(5 * time.Second):
		t.Fatal("daemon did not start listening")
		return "", nil
	}
}

// heavyQASM: a standard-HSF walk with 2^cuts cheap paths. At 2^16 (some
// hundreds of milliseconds on two cores) it is far from done when its first
// 50ms checkpoint flush lands, which is when the restart test kills the
// daemon. The RX on the crossings' control between them keeps the lower half
// in the tree: with only phases there, the diagonal tail would fold the walk
// in a few ms.
func heavyQASM(n, cuts int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "OPENQASM 2.0;\nqreg q[%d];\n", n)
	for q := 0; q < n; q++ {
		fmt.Fprintf(&b, "h q[%d];\n", q)
	}
	for i := 0; i < cuts; i++ {
		fmt.Fprintf(&b, "rx(0.%d) q[%d];\n", i+1, n/2-1)
		fmt.Fprintf(&b, "cx q[%d],q[%d];\n", n/2-1, n/2)
	}
	return b.String()
}

func submitE2EJob(t *testing.T, base string, req server.JobSubmitRequest) jobs.Snapshot {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	var snap jobs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

func getJob(t *testing.T, base, id string) (jobs.Snapshot, int) {
	t.Helper()
	resp, err := http.Get(base + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap jobs.Snapshot
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
			t.Fatal(err)
		}
	}
	return snap, resp.StatusCode
}

// TestJobsSurviveDaemonRestart is the job service's acceptance test: submit a
// mix of jobs across two tenants with distinct priorities, SIGTERM the daemon
// while the heavy one is mid-walk, restart on the same store, and require
// that every job completes with amplitudes matching a direct Simulate, that
// the identical pair ran as one batch sharing a plan, and that the
// high-priority tenant's jobs all started before the low-priority tenant's.
func TestJobsSurviveDaemonRestart(t *testing.T) {
	storeDir := t.TempDir()
	base, exitCh := startJobsDaemon(t, storeDir)

	heavy := heavyQASM(16, 16)
	cascade := "OPENQASM 2.0;\nqreg q[6];\nh q[0];\nrzz(0.3) q[2],q[3];\nrzz(0.5) q[2],q[4];\nrzz(0.7) q[2],q[5];\n"
	cut7, cut2 := 7, 2
	type spec struct {
		req    server.JobSubmitRequest
		method hsfsim.Method
		cut    int
	}
	mk := func(qasmSrc, method, tenant string, prio, cutPos int, m hsfsim.Method) spec {
		cp := cutPos
		return spec{
			req: server.JobSubmitRequest{
				SimulateRequest: server.SimulateRequest{QASM: qasmSrc, Method: method, CutPos: &cp},
				Tenant:          tenant,
				Priority:        prio,
			},
			method: m, cut: cutPos,
		}
	}
	specs := []spec{
		// The runner takes this first and is killed inside its walk.
		mk(heavy, "standard", "alice", 5, cut7, hsfsim.StandardHSF),
		// Identical pair: must batch behind one compiled plan and one walk.
		mk(cascade, "joint", "alice", 5, cut2, hsfsim.JointHSF),
		mk(cascade, "joint", "alice", 5, cut2, hsfsim.JointHSF),
		// Low-priority tenant: distinct circuits, must never run before alice.
		mk(cascade+"rx(0.11) q[0];\n", "joint", "bob", 1, cut2, hsfsim.JointHSF),
		mk(cascade+"rx(0.22) q[1];\n", "joint", "bob", 1, cut2, hsfsim.JointHSF),
		mk(cascade+"rx(0.33) q[2];\n", "joint", "bob", 1, cut2, hsfsim.JointHSF),
	}
	snaps := make([]jobs.Snapshot, len(specs))
	for i, sp := range specs {
		snaps[i] = submitE2EJob(t, base, sp.req)
	}
	if snaps[1].Fingerprint != snaps[2].Fingerprint {
		t.Fatalf("identical submissions keyed apart: %x vs %x", snaps[1].Fingerprint, snaps[2].Fingerprint)
	}

	// Kill the daemon once the heavy job's walk has flushed a checkpoint with
	// paths in it: the store then holds what the restart must resume from,
	// and the walk is far from done. The store names a batch's checkpoint by
	// its fingerprint.
	store, err := jobs.NewDirStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	heavyKey := fmt.Sprintf("%016x", snaps[0].Fingerprint)
	deadline := time.Now().Add(30 * time.Second)
	for {
		if ck, _ := store.GetCheckpoint(heavyKey); ck != nil && ck.PathsSimulated > 0 {
			break
		}
		snap, _ := getJob(t, base, snaps[0].ID)
		if snap.State.Terminal() {
			t.Fatalf("heavy job finished before the kill (state %s); enlarge the workload", snap.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("heavy job never flushed a checkpoint")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-exitCh:
		if code != 0 {
			t.Fatalf("first daemon exit code %d", code)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("first daemon did not exit after SIGTERM")
	}

	// Restart on the same store: unfinished jobs are re-offered (the heavy
	// one from its checkpoint) and all must complete.
	base, exitCh = startJobsDaemon(t, storeDir)
	done := make([]jobs.Snapshot, len(specs))
	deadline = time.Now().Add(120 * time.Second)
	for i := range specs {
		for {
			snap, status := getJob(t, base, snaps[i].ID)
			if status != http.StatusOK {
				t.Fatalf("job %s: status %d after restart", snaps[i].ID, status)
			}
			if snap.State == jobs.StateDone {
				done[i] = snap
				break
			}
			if snap.State.Terminal() {
				t.Fatalf("job %s: state %s (error %q)", snaps[i].ID, snap.State, snap.Error)
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s never completed after restart", snaps[i].ID)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	// Every result matches a direct in-process Simulate to 1e-12.
	for i, sp := range specs {
		resp, err := http.Get(base + "/jobs/" + snaps[i].ID + "/result")
		if err != nil {
			t.Fatal(err)
		}
		var got server.SimulateResponse
		err = json.NewDecoder(resp.Body).Decode(&got)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		c, err := qasm.Parse(strings.NewReader(sp.req.QASM))
		if err != nil {
			t.Fatal(err)
		}
		want, err := hsfsim.Simulate(c, hsfsim.Options{Method: sp.method, CutPos: sp.cut})
		if err != nil {
			t.Fatal(err)
		}
		// The JSON result echoes at most MaxReturnedAmplitudes; the full
		// vector is for the SSE stream. Compare the echoed prefix.
		wantN := len(want.Amplitudes)
		if wantN > server.MaxReturnedAmplitudes {
			wantN = server.MaxReturnedAmplitudes
		}
		if len(got.Amplitudes) != wantN {
			t.Fatalf("job %d: %d amplitudes, want %d", i, len(got.Amplitudes), wantN)
		}
		for k, a := range got.Amplitudes {
			if math.Abs(a.Re-real(want.Amplitudes[k]))+math.Abs(a.Im-imag(want.Amplitudes[k])) > 1e-12 {
				t.Fatalf("job %d amplitude %d: (%g,%g) vs direct %v", i, k, a.Re, a.Im, want.Amplitudes[k])
			}
		}
	}

	// The identical pair shared one batch (and therefore one plan and walk).
	if done[1].BatchSize != 2 || done[2].BatchSize != 2 {
		t.Errorf("twin batch sizes %d/%d, want 2/2", done[1].BatchSize, done[2].BatchSize)
	}
	// Priority: with one runner, every alice (priority 5) job must have
	// started no later than any bob (priority 1) job.
	var lastAlice, firstBob time.Time
	for i, sp := range specs {
		switch sp.req.Tenant {
		case "alice":
			if done[i].Started.After(lastAlice) {
				lastAlice = done[i].Started
			}
		case "bob":
			if firstBob.IsZero() || done[i].Started.Before(firstBob) {
				firstBob = done[i].Started
			}
		}
	}
	if lastAlice.After(firstBob) {
		t.Errorf("priority inversion: alice job started %v after bob's first start %v", lastAlice, firstBob)
	}

	// The resumed heavy job shows up in the restarted daemon's counters.
	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := func() ([]byte, error) {
		defer mresp.Body.Close()
		b := new(bytes.Buffer)
		_, e := b.ReadFrom(mresp.Body)
		return b.Bytes(), e
	}()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(metrics, []byte("hsfsimd_jobs_resumed_total 1")) {
		if !done[0].Resumed {
			t.Errorf("heavy job not marked resumed and resumed counter absent")
		}
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-exitCh:
		if code != 0 {
			t.Fatalf("second daemon exit code %d", code)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("second daemon did not exit")
	}
}
