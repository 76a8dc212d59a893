package hsfsim_test

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"os"
	"testing"

	"hsfsim"
)

// interruptible builds a circuit with many separate crossing cuts so HSF
// runs have enough paths to interrupt.
func interruptible(n, cuts int) *hsfsim.Circuit {
	rng := rand.New(rand.NewSource(123))
	c := hsfsim.NewCircuit(n)
	for q := 0; q < n; q++ {
		c.Append(hsfsim.H(q))
	}
	for i := 0; i < cuts; i++ {
		a := rng.Intn(n / 2)
		b := n/2 + rng.Intn(n-n/2)
		c.Append(hsfsim.RZZ(rng.Float64(), a, b), hsfsim.RX(0.2, a))
	}
	return c
}

// TestSimulateContextCanceled verifies ctx plumbing for every method ×
// method: a canceled context surfaces context.Canceled, never ErrTimeout, for
// Schrödinger and standard/joint HSF.
func TestSimulateContextCanceled(t *testing.T) {
	c := interruptible(8, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cases := []struct {
		name string
		opts hsfsim.Options
	}{
		{"schrodinger", hsfsim.Options{Method: hsfsim.Schrodinger}},
		{"standard", hsfsim.Options{Method: hsfsim.StandardHSF, CutPos: 3}},
		{"joint", hsfsim.Options{Method: hsfsim.JointHSF, CutPos: 3}},
	}
	for _, tc := range cases {
		_, err := hsfsim.SimulateContext(ctx, c, tc.opts)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", tc.name, err)
		}
		if errors.Is(err, hsfsim.ErrTimeout) {
			t.Errorf("%s: cancellation misreported as ErrTimeout", tc.name)
		}
	}
}

// TestTimeoutDistinctFromDeadline checks the three stop causes stay
// distinguishable at the public API.
func TestTimeoutDistinctFromDeadline(t *testing.T) {
	c := interruptible(10, 24)
	opts := hsfsim.Options{Method: hsfsim.StandardHSF, CutPos: 4, Timeout: 1}
	if _, err := hsfsim.Simulate(c, opts); !errors.Is(err, hsfsim.ErrTimeout) {
		t.Fatalf("timeout: err = %v, want ErrTimeout", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 1)
	defer cancel()
	<-ctx.Done()
	opts.Timeout = 0
	if _, err := hsfsim.SimulateContext(ctx, c, opts); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline: err = %v, want context.DeadlineExceeded", err)
	}
}

func TestBudgetGate(t *testing.T) {
	// Schrödinger: a 31-qubit register exceeds the 16 GiB default budget.
	big := hsfsim.NewCircuit(31)
	big.Append(hsfsim.H(0))
	_, err := hsfsim.Simulate(big, hsfsim.Options{Method: hsfsim.Schrodinger})
	if !errors.Is(err, hsfsim.ErrBudget) {
		t.Fatalf("schrodinger: err = %v, want ErrBudget", err)
	}
	var be *hsfsim.BudgetError
	if !errors.As(err, &be) || be.Estimate.TotalBytes <= 0 {
		t.Fatalf("schrodinger: not a BudgetError with estimate: %v", err)
	}

	// HSF: MaxPaths rejects before simulating.
	c := interruptible(8, 8)
	_, err = hsfsim.Simulate(c, hsfsim.Options{Method: hsfsim.StandardHSF, CutPos: 3, MaxPaths: 4})
	if !errors.Is(err, hsfsim.ErrBudget) {
		t.Fatalf("hsf paths: err = %v, want ErrBudget", err)
	}
	// ... and MemoryBudget likewise.
	_, err = hsfsim.Simulate(c, hsfsim.Options{Method: hsfsim.StandardHSF, CutPos: 3, MemoryBudget: 1})
	if !errors.Is(err, hsfsim.ErrBudget) {
		t.Fatalf("hsf memory: err = %v, want ErrBudget", err)
	}
}

func TestEstimateCost(t *testing.T) {
	c := interruptible(8, 8)
	est, err := hsfsim.EstimateCost(c, hsfsim.Options{Method: hsfsim.StandardHSF, CutPos: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if est.Paths != 1<<8 || !est.PathsExact {
		t.Fatalf("paths = %d exact=%v, want 256 exact", est.Paths, est.PathsExact)
	}
	if est.TotalBytes <= 0 || est.Workers != 2 {
		t.Fatalf("estimate: %+v", est)
	}
	sch, err := hsfsim.EstimateCost(c, hsfsim.Options{Method: hsfsim.Schrodinger})
	if err != nil {
		t.Fatal(err)
	}
	// The real plane plus the interleaved result, which holds the imaginary
	// plane; an 8-qubit register has no phase tables.
	if sch.TotalBytes != 24<<8 {
		t.Fatalf("schrodinger bytes = %d, want %d", sch.TotalBytes, 24<<8)
	}
}

// TestCheckpointResumePublicAPI drives the crash/resume loop end-to-end
// through Options: fault-inject at half the paths, capture the checkpoint,
// resume, and compare with an uninterrupted run.
func TestCheckpointResumePublicAPI(t *testing.T) {
	c := interruptible(8, 8) // 256 paths
	base := hsfsim.Options{Method: hsfsim.StandardHSF, CutPos: 3, Workers: 2}

	want, err := hsfsim.Simulate(c, base)
	if err != nil {
		t.Fatal(err)
	}

	var ckpt bytes.Buffer
	crash := base
	crash.CheckpointWriter = &ckpt
	crash.FailAfterPaths = 128
	if _, err := hsfsim.Simulate(c, crash); err == nil {
		t.Fatal("fault injection did not fire")
	}
	if ckpt.Len() == 0 {
		t.Fatal("no checkpoint written")
	}

	res := base
	res.ResumeFrom = bytes.NewReader(ckpt.Bytes())
	got, err := hsfsim.Simulate(c, res)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Amplitudes {
		d := want.Amplitudes[i] - got.Amplitudes[i]
		if abs2(d) > 1e-24 { // |d| > 1e-12
			t.Fatalf("amplitude %d diverges: %v vs %v", i, got.Amplitudes[i], want.Amplitudes[i])
		}
	}

	// Resuming with a different circuit is rejected.
	other := interruptible(8, 9)
	res.ResumeFrom = bytes.NewReader(ckpt.Bytes())
	if _, err := hsfsim.Simulate(other, res); !errors.Is(err, hsfsim.ErrCheckpointMismatch) {
		t.Fatalf("mismatch: err = %v, want ErrCheckpointMismatch", err)
	}
}

func abs2(z complex128) float64 { return real(z)*real(z) + imag(z)*imag(z) }

// TestDDBackendCheckpointResume resumes, through the public API, a
// checkpoint that the retired decision-diagram backend wrote:
// testdata/dd-backend.ckpt stopped interruptible(8, 10), joint at cut 3, for
// the first 48 amplitudes, after an injected fault at half of its 128 paths.
// The dense walker finishes it, on one worker or two, to the Schrödinger
// amplitudes at 1e-12.
func TestDDBackendCheckpointResume(t *testing.T) {
	c := interruptible(8, 10)
	data, err := os.ReadFile("testdata/dd-backend.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	want, err := hsfsim.Simulate(c, hsfsim.Options{Method: hsfsim.Schrodinger, MaxAmplitudes: 48})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		got, err := hsfsim.Simulate(c, hsfsim.Options{Method: hsfsim.JointHSF, CutPos: 3, MaxAmplitudes: 48,
			Workers: workers, ResumeFrom: bytes.NewReader(data)})
		if err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		if got.NumPaths != 128 {
			t.Fatalf("%d workers: %d paths, want 128", workers, got.NumPaths)
		}
		for i := range want.Amplitudes {
			if d := got.Amplitudes[i] - want.Amplitudes[i]; real(d)*real(d)+imag(d)*imag(d) > 1e-24 {
				t.Fatalf("%d workers: amplitude %d is %v after the resume, want %v", workers, i, got.Amplitudes[i], want.Amplitudes[i])
			}
		}
	}
}
