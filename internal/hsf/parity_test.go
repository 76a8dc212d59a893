package hsf

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"hsfsim/internal/circuit"
	"hsfsim/internal/cut"
	"hsfsim/internal/gate"
	"hsfsim/internal/statevec"
)

// The parity suite pins the central refactoring invariant: the dense and DD
// backends run through the identical walker, so for any plan they must agree
// with each other (and with plain Schrödinger simulation) to 1e-12 — through
// plain runs, injected faults, and checkpoint resume alike.

func runBackend(t *testing.T, plan *cut.Plan, b Backend, opts Options) *Result {
	t.Helper()
	opts.Backend = b
	res, err := Run(plan, opts)
	if err != nil {
		t.Fatalf("%v backend: %v", b, err)
	}
	return res
}

func TestParityRandomPlans(t *testing.T) {
	type tc struct {
		name     string
		build    func(rng *rand.Rand) *circuit.Circuit
		cutPos   int
		strategy cut.Strategy
	}
	cases := []tc{
		{"qaoa-cascade", func(rng *rand.Rand) *circuit.Circuit { return randomQAOAish(rng, 8, 16) }, 3, cut.StrategyCascade},
		{"qaoa-window", func(rng *rand.Rand) *circuit.Circuit { return randomQAOAish(rng, 7, 12) }, 3, cut.StrategyWindow},
		{"mixed-standard", func(rng *rand.Rand) *circuit.Circuit { return randomMixed(rng, 7, 14) }, 2, cut.StrategyNone},
		{"mixed-cascade", func(rng *rand.Rand) *circuit.Circuit { return randomMixed(rng, 8, 14) }, 4, cut.StrategyCascade},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				rng := rand.New(rand.NewSource(seed))
				circ := c.build(rng)
				plan, err := cut.BuildPlan(circ, cut.Options{
					Partition: cut.Partition{CutPos: c.cutPos},
					Strategy:  c.strategy,
				})
				if err != nil {
					t.Fatal(err)
				}
				want := schrodinger(circ)
				dense := runBackend(t, plan, BackendDense, Options{Workers: 2})
				dd := runBackend(t, plan, BackendDD, Options{})
				if d := statevec.MaxAbsDiff(dense.Amplitudes, dd.Amplitudes); d > 1e-12 {
					t.Fatalf("seed %d: dense and dd diverge: max diff %g", seed, d)
				}
				if d := statevec.MaxAbsDiff(statevec.State(dense.Amplitudes), want); d > 1e-10 {
					t.Fatalf("seed %d: dense diverges from Schrödinger: max diff %g", seed, d)
				}
				if dense.PathsSimulated != dd.PathsSimulated {
					t.Fatalf("seed %d: paths %d (dense) != %d (dd)", seed, dense.PathsSimulated, dd.PathsSimulated)
				}
			}
		})
	}
}

// kernelZoo builds a circuit exercising every specialized kernel class —
// permutation (X/CNOT/SWAP/CCX), phase-permutation (ISWAP), diagonal with and
// without controls (P/CZ/RZZ/CCZ/CRZ), controlled-dense (CRX), and plain
// dense (H/RX) — with several of them crossing the cut, so the classified
// fast paths in both backends are pitted against each other and against the
// unclassified Schrödinger reference.
func kernelZoo(rng *rand.Rand, n, cutPos int) *circuit.Circuit {
	lo := rng.Intn(cutPos + 1)              // lower-partition qubit
	hi := cutPos + 1 + rng.Intn(n-cutPos-1) // upper-partition qubit
	c := circuit.New(n)
	for q := 0; q < n; q++ {
		c.Append(gate.H(q))
	}
	c.Append(
		gate.CNOT(lo, hi), // crossing permutation
		gate.SWAP(lo, hi), // crossing permutation (3-cycle free)
		gate.ISWAP(lo, hi),
		gate.CRX(rng.Float64(), lo, hi), // crossing controlled-dense
		gate.CZ(lo, hi),                 // crossing diagonal
		gate.P(rng.Float64(), lo),
		gate.X(hi),
		gate.CRZ(rng.Float64(), lo, (lo+1)%(cutPos+1)),
		gate.RZZ(rng.Float64(), lo, hi), // crossing diagonal
	)
	if cutPos >= 2 {
		c.Append(gate.CCX(0, 1, 2), gate.CCZ(0, 1, 2)) // local 3-qubit kernels
	}
	for q := 0; q < n; q++ {
		c.Append(gate.RX(rng.Float64(), q))
	}
	return c
}

// TestParityKernelZoo runs the kernel-zoo circuit through both backends and
// the Schrödinger reference: the specialized kernels (permutation rotations,
// control-subspace updates, compacted diagonals) must be bit-for-bit
// interchangeable with the dense matvec everywhere in the walker.
func TestParityKernelZoo(t *testing.T) {
	const n, cutPos = 8, 3
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		circ := kernelZoo(rng, n, cutPos)
		for _, strategy := range []cut.Strategy{cut.StrategyNone, cut.StrategyCascade} {
			plan, err := cut.BuildPlan(circ, cut.Options{
				Partition: cut.Partition{CutPos: cutPos},
				Strategy:  strategy,
			})
			if err != nil {
				t.Fatal(err)
			}
			want := schrodinger(circ)
			dense := runBackend(t, plan, BackendDense, Options{Workers: 2})
			dd := runBackend(t, plan, BackendDD, Options{})
			if d := statevec.MaxAbsDiff(dense.Amplitudes, dd.Amplitudes); d > 1e-12 {
				t.Fatalf("seed %d strategy %v: dense and dd diverge: max diff %g", seed, strategy, d)
			}
			if d := statevec.MaxAbsDiff(statevec.State(dense.Amplitudes), want); d > 1e-10 {
				t.Fatalf("seed %d strategy %v: dense diverges from Schrödinger: max diff %g", seed, strategy, d)
			}
		}
	}
}

// TestParityFaultAndResume interrupts a run on each backend with the
// deterministic fault hook, then resumes the checkpoint on the *other*
// backend. Both recoveries must land on the identical amplitudes: the
// checkpoint format, the prefix bookkeeping, and the walker are shared, so
// backends are interchangeable mid-run.
//
// The mid-batch cases run one worker and fail 35 leaves into the second of
// four 64-leaf tasks, eight leaves per fold, with three leaves held: the
// checkpoint must hold the first task and nothing of the second.
func TestParityFaultAndResume(t *testing.T) {
	for _, tc := range []struct {
		suffix         string
		plan           *cut.Plan // 2^8 = 256 paths
		workers        int
		failAfter      int64
		wantCheckpoint int64 // PathsSimulated of the checkpoint; 0: any progress
	}{
		{"", buildPlan(t, manyCutCircuit(8, 8), 3, cut.StrategyNone), 0, 128, 0},
		{"-mid-batch", buildPlan(t, manyCutCircuit(12, 8), 5, cut.StrategyNone), 1, 64 + 35, 64},
	} {
		plan := tc.plan
		want, err := Run(plan, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, failOn := range []Backend{BackendDense, BackendDD} {
			resumeOn := BackendDD
			if failOn == BackendDD {
				resumeOn = BackendDense
			}
			t.Run("fail-"+failOn.String()+tc.suffix, func(t *testing.T) {
				var buf bytes.Buffer
				_, err := Run(plan, Options{
					Backend:          failOn,
					Workers:          tc.workers,
					CheckpointWriter: &buf,
					FailAfterPaths:   tc.failAfter,
				})
				if !errors.Is(err, ErrInjectedFault) {
					t.Fatalf("err = %v, want ErrInjectedFault", err)
				}
				ck, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()))
				if err != nil {
					t.Fatal(err)
				}
				if len(ck.Prefixes) == 0 || ck.PathsSimulated == 0 {
					t.Fatalf("checkpoint empty: %d prefixes, %d paths", len(ck.Prefixes), ck.PathsSimulated)
				}
				if tc.wantCheckpoint != 0 && ck.PathsSimulated != tc.wantCheckpoint {
					t.Fatalf("checkpoint holds %d paths, want %d", ck.PathsSimulated, tc.wantCheckpoint)
				}
				res, err := Run(plan, Options{Backend: resumeOn, Workers: tc.workers, Resume: ck})
				if err != nil {
					t.Fatalf("resume on %v: %v", resumeOn, err)
				}
				if d := statevec.MaxAbsDiff(res.Amplitudes, want.Amplitudes); d > 1e-12 {
					t.Fatalf("resume on %v diverges: max diff %g", resumeOn, d)
				}
				if res.PathsSimulated != want.PathsSimulated {
					t.Fatalf("paths = %d, want %d", res.PathsSimulated, want.PathsSimulated)
				}
			})
		}
	}
}

// TestParityPartialAmplitudes checks the bounded-accumulator mode through
// both backends.
func TestParityPartialAmplitudes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	circ := randomQAOAish(rng, 8, 14)
	plan, err := cut.BuildPlan(circ, cut.Options{
		Partition: cut.Partition{CutPos: 3},
		Strategy:  cut.StrategyCascade,
	})
	if err != nil {
		t.Fatal(err)
	}
	dense := runBackend(t, plan, BackendDense, Options{MaxAmplitudes: 16})
	dd := runBackend(t, plan, BackendDD, Options{MaxAmplitudes: 16})
	if len(dense.Amplitudes) != 16 || len(dd.Amplitudes) != 16 {
		t.Fatalf("lengths %d, %d, want 16", len(dense.Amplitudes), len(dd.Amplitudes))
	}
	if d := statevec.MaxAbsDiff(dense.Amplitudes, dd.Amplitudes); d > 1e-12 {
		t.Fatalf("partial amplitudes diverge: max diff %g", d)
	}
}
