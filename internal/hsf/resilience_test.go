package hsf

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"hsfsim/internal/circuit"
	"hsfsim/internal/cmat"
	"hsfsim/internal/cut"
	"hsfsim/internal/gate"
	"hsfsim/internal/schmidt"
	"hsfsim/internal/statevec"
)

// manyCutCircuit builds a circuit whose standard plan has many separate
// rank-2 cuts (≥ 2^cuts paths), so runs take long enough to interrupt at a
// deterministic path count.
func manyCutCircuit(n, cuts int) *circuit.Circuit {
	rng := rand.New(rand.NewSource(99))
	c := circuit.New(n)
	for q := 0; q < n; q++ {
		c.Append(gate.H(q))
	}
	for i := 0; i < cuts; i++ {
		a := rng.Intn(n / 2)
		b := n/2 + rng.Intn(n-n/2)
		c.Append(gate.RZZ(rng.Float64(), a, b))
		c.Append(gate.RX(rng.Float64(), a)) // break cascades apart
	}
	return c
}

func buildPlan(t *testing.T, c *circuit.Circuit, cutPos int, strategy cut.Strategy) *cut.Plan {
	t.Helper()
	plan, err := cut.BuildPlan(c, cut.Options{Partition: cut.Partition{CutPos: cutPos}, Strategy: strategy})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func TestRunContextPreCanceled(t *testing.T) {
	plan := buildPlan(t, manyCutCircuit(8, 6), 3, cut.StrategyNone)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(ctx, plan, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunContextMidRunCancel(t *testing.T) {
	plan := buildPlan(t, manyCutCircuit(8, 10), 3, cut.StrategyNone)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// The leaf hook cancels deterministically partway through the tree.
	opts := Options{Workers: 2, testHookLeaf: func(n int64) {
		if n == 8 {
			cancel()
		}
	}}
	res, err := RunContext(ctx, plan, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v (res %v), want context.Canceled", err, res)
	}
}

func TestRunContextParentDeadlineDistinctFromTimeout(t *testing.T) {
	plan := buildPlan(t, manyCutCircuit(10, 24), 4, cut.StrategyNone)
	// Parent deadline, no Options.Timeout: must surface DeadlineExceeded.
	ctx, cancel := context.WithTimeout(context.Background(), time.Microsecond)
	defer cancel()
	time.Sleep(time.Millisecond)
	if _, err := RunContext(ctx, plan, Options{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	// Options.Timeout with a healthy parent: must surface ErrTimeout.
	if _, err := RunContext(context.Background(), plan, Options{Timeout: time.Microsecond}); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestWorkerPanicBecomesError(t *testing.T) {
	plan := buildPlan(t, manyCutCircuit(8, 8), 3, cut.StrategyNone)
	opts := Options{Workers: 2, testHookLeaf: func(n int64) {
		if n == 5 {
			panic("injected worker panic")
		}
	}}
	_, err := Run(plan, opts)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Value != "injected worker panic" || len(pe.Stack) == 0 {
		t.Fatalf("panic error missing payload: %+v", pe)
	}
}

func TestAdmissionControl(t *testing.T) {
	plan := buildPlan(t, manyCutCircuit(8, 8), 3, cut.StrategyNone)

	_, err := Run(plan, Options{MemoryBudget: 1})
	var be *BudgetError
	if !errors.As(err, &be) || !errors.Is(err, ErrBudget) {
		t.Fatalf("memory: err = %v, want *BudgetError wrapping ErrBudget", err)
	}
	if be.Estimate.TotalBytes <= 0 {
		t.Fatalf("estimate missing: %+v", be.Estimate)
	}

	if _, err := Run(plan, Options{MaxPaths: 4}); !errors.Is(err, ErrBudget) {
		t.Fatalf("paths: err = %v, want ErrBudget", err)
	}

	// A negative budget disables the memory check.
	if _, err := Run(plan, Options{MemoryBudget: -1}); err != nil {
		t.Fatalf("unlimited: %v", err)
	}
}

func TestCostModelShape(t *testing.T) {
	plan := buildPlan(t, manyCutCircuit(8, 6), 3, cut.StrategyNone)
	est := Cost(plan, Options{Workers: 4, MaxAmplitudes: 64})
	if est.Workers != 4 {
		t.Fatalf("workers = %d", est.Workers)
	}
	if est.Paths != 1<<6 || !est.PathsExact {
		t.Fatalf("paths = %d exact=%v, want 64 exact", est.Paths, est.PathsExact)
	}
	// pair = 16·(2^4 + 2^4) = 512 B; scratch = 16·64; the leaf batch holds 8
	// leaves: 7 lower halves besides the chain's (16·16 B each) and an 8 × 4
	// coefficient table, since 64 amplitudes are 4 accumulator rows. The rows
	// read upper qubits 2 and 3 only at 0, and the chain charges what the
	// cone leaves: the root is the one full pair; nothing touches qubit 2
	// after segment 0 and qubit 3 crosses last at the final cut, so the task
	// and each of the 6 cuts fork pairs of 16 + 8 amplitudes (384 B).
	wantPair := int64(512)
	if est.StatePairBytes != wantPair {
		t.Fatalf("pair bytes = %d, want %d", est.StatePairBytes, wantPair)
	}
	wantPerWorker := wantPair + 384*int64(len(plan.Cuts)+1) + 16*64 + 7*16*16 + 16*8*4
	if est.PerWorkerBytes != wantPerWorker {
		t.Fatalf("per-worker bytes = %d, want %d", est.PerWorkerBytes, wantPerWorker)
	}
	if est.TotalBytes != 4*wantPerWorker+16*64 {
		t.Fatalf("total bytes = %d", est.TotalBytes)
	}

	// The batch term is 7 lower halves plus an 8 × rows table on the full
	// outputs of the two allocation harnesses, 16 and 64 rows. On "tail" the
	// diagonal tail fires at level 5 over three qubits at the split Cost
	// assumes too: from cut 5 on the chain forks an 8-amplitude proxy with
	// each upper half, the open node holds one more proxy, the row table has
	// 8 amplitudes per row, and the batch holds 7 proxies, not lower halves.
	for name, shape := range allocShapes {
		plan := harnessPlan(t, shape)
		lower, rows := int64(16)<<plan.Partition.NumLower(), int64(1)<<(shape.n-plan.Partition.NumLower())
		pair := lower + 16*rows
		want := pair*int64(len(plan.Cuts)+2) + 16<<shape.n + 7*lower + 8*rows*16
		e := compiledFor(plan, 1<<shape.n, 0, ChooseSplitLevels(plan, 4))
		if name == "tail" {
			const L, proxy = 5, 16 << 3
			if e.tail.level != L || len(e.tail.qubits) != 3 {
				t.Fatalf("tail: the tail is at level %d over %v, want level %d over three qubits", e.tail.level, e.tail.qubits, L)
			}
			cuts := int64(len(plan.Cuts))
			want = pair*(L+2) + (cuts-L)*(proxy+16*rows) + proxy + 16<<shape.n + rows*proxy + 7*proxy + 8*rows*16
		} else if e.tail.level >= 0 {
			t.Fatalf("%s: the tail fires at level %d", name, e.tail.level)
		}
		if est := Cost(plan, Options{Workers: 1}); est.PerWorkerBytes != want {
			t.Fatalf("%s: per-worker bytes = %d, want %d", name, est.PerWorkerBytes, want)
		}
	}
}

// TestCheckpointResumeMatchesUninterrupted is the core recovery property:
// a run killed by the deterministic fault hook at ~50% of its paths must,
// after resuming from its checkpoint, reproduce the uninterrupted
// amplitudes to 1e-12.
func TestCheckpointResumeMatchesUninterrupted(t *testing.T) {
	c := manyCutCircuit(8, 8) // 2^8 = 256 paths
	plan := buildPlan(t, c, 3, cut.StrategyNone)
	want, err := Run(plan, Options{})
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	_, err = Run(plan, Options{
		Workers:          2,
		CheckpointWriter: &buf,
		FailAfterPaths:   128, // kill at ~50% of 256 leaves
	})
	if !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("err = %v, want ErrInjectedFault", err)
	}
	if buf.Len() == 0 {
		t.Fatal("no checkpoint written")
	}

	ck, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(ck.Prefixes) == 0 || ck.PathsSimulated == 0 {
		t.Fatalf("checkpoint empty: %d prefixes, %d paths", len(ck.Prefixes), ck.PathsSimulated)
	}

	res, err := Run(plan, Options{Workers: 3, Resume: ck})
	if err != nil {
		t.Fatal(err)
	}
	if d := statevec.MaxAbsDiff(res.Amplitudes, want.Amplitudes); d > 1e-12 {
		t.Fatalf("resumed amplitudes diverge: max diff %g", d)
	}
	if res.PathsSimulated != want.PathsSimulated {
		t.Fatalf("paths = %d, want %d", res.PathsSimulated, want.PathsSimulated)
	}
}

// TestCheckpointResumeAfterCancel covers the cancel-then-resume flow with a
// joint plan (blocks, rank > 2 cuts possible).
func TestCheckpointResumeAfterCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := randomQAOAish(rng, 8, 20)
	plan := buildPlan(t, c, 3, cut.StrategyCascade)
	want, err := Run(plan, Options{})
	if err != nil {
		t.Fatal(err)
	}
	np, _ := plan.NumPaths()
	if np < 4 {
		t.Fatalf("plan too small to interrupt: %d paths", np)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var buf bytes.Buffer
	_, err = RunContext(ctx, plan, Options{
		Workers:          2,
		CheckpointWriter: &buf,
		testHookLeaf: func(n int64) {
			if n == int64(np/2) {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	ck, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(plan, Options{Resume: ck})
	if err != nil {
		t.Fatal(err)
	}
	if d := statevec.MaxAbsDiff(res.Amplitudes, want.Amplitudes); d > 1e-12 {
		t.Fatalf("resumed amplitudes diverge: max diff %g", d)
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	ck := &Checkpoint{
		PlanHash:       0xdeadbeefcafef00d,
		NumQubits:      8,
		M:              4,
		SplitLevels:    2,
		Prefixes:       [][]int{{0, 1}, {1, 0}, {1, 1}},
		PathsSimulated: 42,
		Acc:            []complex128{1, 2i, complex(3, 4), -1},
	}
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, ck); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.PlanHash != ck.PlanHash || got.NumQubits != ck.NumQubits || got.M != ck.M ||
		got.SplitLevels != ck.SplitLevels || got.PathsSimulated != ck.PathsSimulated {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Prefixes) != 3 || got.Prefixes[1][0] != 1 || got.Prefixes[1][1] != 0 {
		t.Fatalf("prefixes mismatch: %v", got.Prefixes)
	}
	for i := range ck.Acc {
		if got.Acc[i] != ck.Acc[i] {
			t.Fatalf("acc[%d] = %v, want %v", i, got.Acc[i], ck.Acc[i])
		}
	}
}

func TestCheckpointMismatchRejected(t *testing.T) {
	planA := buildPlan(t, manyCutCircuit(8, 6), 3, cut.StrategyNone)
	planB := buildPlan(t, manyCutCircuit(8, 7), 3, cut.StrategyNone)

	var buf bytes.Buffer
	_, err := Run(planA, Options{CheckpointWriter: &buf, FailAfterPaths: 16, Workers: 2})
	if !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("err = %v", err)
	}
	ck, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(planB, Options{Resume: ck}); !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("err = %v, want ErrCheckpointMismatch", err)
	}
	// Mismatched MaxAmplitudes is rejected too.
	if _, err := Run(planA, Options{Resume: ck, MaxAmplitudes: 8}); !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("err = %v, want ErrCheckpointMismatch", err)
	}
}

func TestReadCheckpointGarbage(t *testing.T) {
	if _, err := ReadCheckpoint(bytes.NewReader([]byte("not a checkpoint"))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadCheckpoint(bytes.NewReader(checkpointMagic[:])); err == nil {
		t.Fatal("truncated stream accepted")
	}
}

func TestPlanHashStability(t *testing.T) {
	c := manyCutCircuit(8, 6)
	a := PlanHash(buildPlan(t, c, 3, cut.StrategyNone))
	b := PlanHash(buildPlan(t, c, 3, cut.StrategyNone))
	if a != b {
		t.Fatalf("hash not deterministic: %x vs %x", a, b)
	}
	other := PlanHash(buildPlan(t, c, 3, cut.StrategyCascade))
	if a == other {
		t.Fatal("different strategies hash equal")
	}
}

// TestPlanHashCoversFactors rotates the basis of a degenerate σ pair: a CZ
// cut has σ = (√2, √2), so (X₀, X₁), (Y₀, Y₁) → the same real rotation of
// both is another valid factorization with bit-identical singular values. It
// gives the same amplitudes on its own, but prefixes from the two
// factorizations must never be summed, so the hashes must differ and a
// checkpoint of one must be rejected by the other.
func TestPlanHashCoversFactors(t *testing.T) {
	c := circuit.New(4)
	for q := 0; q < 4; q++ {
		c.Append(gate.H(q))
	}
	c.Append(gate.CZ(1, 2), gate.RX(0.3, 1), gate.CZ(0, 3), gate.RX(0.4, 2))
	plan := buildPlan(t, c, 1, cut.StrategyNone)
	if len(plan.Cuts) != 2 || plan.Cuts[0].Rank() != 2 || plan.Cuts[0].Terms[0].Sigma != plan.Cuts[0].Terms[1].Sigma {
		t.Fatalf("want two cuts with a degenerate σ pair, got %d cuts", len(plan.Cuts))
	}

	rotated := *plan
	rotated.Steps = append([]cut.Step(nil), plan.Steps...)
	rotated.Cuts = append([]*cut.CutPoint(nil), plan.Cuts...)
	cp := *plan.Cuts[0]
	t0, t1 := cp.Terms[0], cp.Terms[1]
	cs, sn := complex(math.Cos(0.6), 0), complex(math.Sin(0.6), 0)
	mix := func(a, b *cmat.Matrix, ca, cb complex128) *cmat.Matrix {
		return cmat.Add(cmat.Scale(ca, a), cmat.Scale(cb, b))
	}
	cp.Terms = []schmidt.Term{
		{Sigma: t0.Sigma, Upper: mix(t0.Upper, t1.Upper, cs, sn), Lower: mix(t0.Lower, t1.Lower, cs, sn)},
		{Sigma: t1.Sigma, Upper: mix(t0.Upper, t1.Upper, -sn, cs), Lower: mix(t0.Lower, t1.Lower, -sn, cs)},
	}
	rotated.Cuts[0] = &cp
	for i := range rotated.Steps {
		if rotated.Steps[i].Cut == plan.Cuts[0] {
			rotated.Steps[i].Cut = &cp
		}
	}

	want, err := Run(plan, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(&rotated, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d := statevec.MaxAbsDiff(got.Amplitudes, want.Amplitudes); d > 1e-12 {
		t.Fatalf("rotated factorization is not one of the same cut: off by %g", d)
	}
	if PlanHash(plan) == PlanHash(&rotated) {
		t.Fatal("same σ, different factors: hashes equal")
	}

	var buf bytes.Buffer
	if _, err := Run(plan, Options{CheckpointWriter: &buf, FailAfterPaths: 2, Workers: 1}); !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("err = %v, want ErrInjectedFault", err)
	}
	ck, err := ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(&rotated, Options{Resume: ck}); !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("resume on the rotated factorization: err = %v, want ErrCheckpointMismatch", err)
	}
}
