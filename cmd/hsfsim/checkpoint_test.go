package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"math/cmplx"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hsfsim"
	"hsfsim/internal/dist"
	"hsfsim/internal/hsf"
	"hsfsim/internal/qasm"
	"hsfsim/internal/telemetry"
)

// TestMain lets a test run the command itself: with HSFSIM_TEST_MAIN set,
// the test binary is hsfsim, its arguments one per line in that variable.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("HSFSIM_TEST_MAIN"); ok {
		os.Args = append([]string{"hsfsim"}, strings.Split(args, "\n")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI runs hsfsim with args in a child process and returns its stderr
// and exit code.
func runCLI(t *testing.T, args ...string) (stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "HSFSIM_TEST_MAIN="+strings.Join(args, "\n"))
	var errb bytes.Buffer
	cmd.Stderr = &errb
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		return errb.String(), exit.ExitCode()
	case err != nil:
		t.Fatal(err)
	}
	return errb.String(), 0
}

// crossQASM is an n-qubit circuit whose k RZZ gates all cross the middle
// cut, each followed by an RX that keeps them from grouping: 2^k paths under
// standard cutting at n/2-1.
func crossQASM(n, k int) string {
	rng := rand.New(rand.NewSource(7))
	var b strings.Builder
	fmt.Fprintf(&b, "qreg q[%d];\n", n)
	for q := 0; q < n; q++ {
		fmt.Fprintf(&b, "h q[%d];\n", q)
	}
	for i := 0; i < k; i++ {
		fmt.Fprintf(&b, "rzz(%.6f) q[%d],q[%d];\n", 2*rng.Float64(), n/2-1, n/2)
		fmt.Fprintf(&b, "rx(%.6f) q[%d];\n", rng.Float64(), rng.Intn(n))
	}
	return b.String()
}

// TestCheckpointNeverEmpty: a run rejected before any snapshot exists — over
// the path budget, locally or on a fleet, a fleet with no workers, a resume
// file that is not a checkpoint — leaves no -checkpoint file behind and
// never claims to have written one.
func TestCheckpointNeverEmpty(t *testing.T) {
	dir := t.TempDir()
	circuit := filepath.Join(dir, "c.qasm")
	if err := os.WriteFile(circuit, []byte(crossQASM(8, 8)), 0o644); err != nil {
		t.Fatal(err)
	}
	garbage := filepath.Join(dir, "garbage.bin")
	if err := os.WriteFile(garbage, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"budget", []string{"-max-paths", "4"}},
		{"fleet-budget", []string{"-max-paths", "4", "-distribute", "127.0.0.1:1"}},
		{"no-workers", []string{"-distribute", ","}},
		{"bad-resume", []string{"-resume", garbage}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ckpt := filepath.Join(dir, tc.name+".ckpt")
			args := append([]string{"-method", "standard", "-cut", "3", "-quiet", "-checkpoint", ckpt}, tc.args...)
			stderr, code := runCLI(t, append(args, circuit)...)
			if code != 1 {
				t.Fatalf("exit %d, want 1; stderr:\n%s", code, stderr)
			}
			if _, err := os.Stat(ckpt); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("checkpoint file left behind (stat: %v); stderr:\n%s", err, stderr)
			}
			if strings.Contains(stderr, "checkpoint written") {
				t.Fatalf("claims a checkpoint was written:\n%s", stderr)
			}
		})
	}
}

// TestCheckpointFileSurvivesKill is the CLI's coordinator handover: a run
// whose -checkpoint file is refreshed during the run is killed mid-run — its
// exit write (runCheckpoint.finish) never happens — and -resume completes
// from the periodic file alone, locally and on a loopback fleet, with the
// exact path count and the single-process amplitudes. The resumed run then
// removes the file.
func TestCheckpointFileSurvivesKill(t *testing.T) {
	const k = 10
	src := crossQASM(8, k)
	c, err := qasm.Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	base := hsfsim.Options{Method: hsfsim.StandardHSF, CutPos: 3, MaxAmplitudes: 64, Workers: 1}
	want, err := hsfsim.Simulate(c, hsfsim.Options{Method: hsfsim.Schrodinger, MaxAmplitudes: 64})
	if err != nil {
		t.Fatal(err)
	}

	// fleet returns a coordinator over one fresh loopback worker that
	// cancels its run once stopAfter leases have completed (0: never).
	fleet := func(cancel context.CancelFunc, stopAfter int64) *dist.Coordinator {
		lb := dist.NewLoopback()
		lb.AddWorker("w", dist.ExecOptions{Workers: 1})
		lb.Delay("w", time.Millisecond)
		var leases atomic.Int64
		co, err := dist.New(dist.Config{
			Transport: lb,
			Logger:    log.New(io.Discard, "", 0),
			BatchSize: 1,
			OnLease: func(telemetry.LeaseEvent) {
				if leases.Add(1) == stopAfter {
					cancel()
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		co.AddWorker("w")
		return co
	}
	for _, distributed := range []bool{false, true} {
		t.Run(fmt.Sprintf("distributed=%v", distributed), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.ckpt")
			run := func(ctx context.Context, opts hsfsim.Options, stopAfter int64) (*hsfsim.Result, error) {
				if !distributed {
					return hsfsim.SimulateContext(ctx, c, opts)
				}
				ctx, cancel := context.WithCancel(ctx)
				defer cancel()
				res, _, err := fleet(cancel, stopAfter).Simulate(ctx, src, opts)
				return res, err
			}

			// The killed run: a fault (local) or a cancellation (fleet) stops
			// it half way, and its final state never reaches the file.
			killed := base
			killed.FailAfterPaths = 1 << (k - 1)
			rc := startCheckpoint(path, time.Millisecond, &killed)
			if _, err := run(context.Background(), killed, 4); err == nil {
				t.Fatal("the killed run completed")
			}
			for deadline := time.Now().Add(10 * time.Second); !rc.saved.Load(); time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("no periodic flush landed")
				}
			}
			rc.flusher.Stop()
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			ck, err := hsf.ReadCheckpoint(f)
			f.Close()
			if err != nil {
				t.Fatal(err)
			}
			if ck.PathsSimulated <= 0 || ck.PathsSimulated >= 1<<k {
				t.Fatalf("periodic file holds %d paths, want a mid-run state", ck.PathsSimulated)
			}

			// -resume from the file, with -checkpoint on the same path.
			rf, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer rf.Close()
			resumed := base
			resumed.ResumeFrom = rf
			rc = startCheckpoint(path, time.Millisecond, &resumed)
			res, err := run(context.Background(), resumed, 0)
			if err = rc.finish(err); err != nil {
				t.Fatal(err)
			}
			if res.PathsSimulated != 1<<k {
				t.Fatalf("resumed run covered %d paths, want %d", res.PathsSimulated, 1<<k)
			}
			for i, a := range want.Amplitudes {
				if d := cmplx.Abs(res.Amplitudes[i] - a); d > 1e-12 {
					t.Fatalf("amplitude %d off by %g", i, d)
				}
			}
			if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("completed run left its checkpoint file (stat: %v)", err)
			}
		})
	}
}
