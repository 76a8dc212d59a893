package hsf

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"hsfsim/internal/circuit"
	"hsfsim/internal/cut"
	"hsfsim/internal/gate"
	"hsfsim/internal/statevec"
)

// The parity suite pins the walker to two oracles that share none of its
// code, the Schrödinger State and the whole-circuit DD engine, at 1e-12 —
// through plain runs, injected faults, and checkpoint resume alike.

// checkParity runs plan with opts and holds its amplitudes to both oracles of
// c and its path count to the plan's.
func checkParity(t *testing.T, c *circuit.Circuit, plan *cut.Plan, opts Options) {
	t.Helper()
	res, err := Run(plan, opts)
	if err != nil {
		t.Fatal(err)
	}
	m := len(res.Amplitudes)
	if opts.MaxAmplitudes > 0 && m != opts.MaxAmplitudes {
		t.Fatalf("%d amplitudes, want %d", m, opts.MaxAmplitudes)
	}
	if d := statevec.MaxAbsDiff(res.Amplitudes, schrodinger(c)[:m]); d > 1e-12 {
		t.Fatalf("off the Schrödinger oracle by %g", d)
	}
	if d := statevec.MaxAbsDiff(res.Amplitudes, ddOracle(t, c)[:m]); d > 1e-12 {
		t.Fatalf("off the DD oracle by %g", d)
	}
	if np, _ := plan.NumPaths(); res.PathsSimulated != int64(np) {
		t.Fatalf("%d of %d paths simulated", res.PathsSimulated, np)
	}
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
				for _, workers := range []int{1, 2} {
					checkParity(t, circ, plan, Options{Workers: workers})
				}
			}
		})
	}
}

// kernelZoo builds a circuit exercising every specialized kernel class —
// permutation (X/CNOT/SWAP/CCX), phase-permutation (ISWAP), diagonal with and
// without controls (P/CZ/RZZ/CCZ/CRZ), controlled-dense (CRX), and plain
// dense (H/RX) — with several of them crossing the cut, so the classified
// fast paths of the walker are pitted against the unclassified Schrödinger
// reference and the DD engine.
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

// TestParityKernelZoo runs the kernel-zoo circuit through the walker and both
// oracles: the specialized kernels (permutation rotations,
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
			checkParity(t, circ, plan, Options{Workers: 2})
		}
	}
}

// TestParityFaultAndResume interrupts a run with the deterministic fault hook
// on one worker count, then resumes the checkpoint on another, one worker to
// two and two to one. Both recoveries must land on the uninterrupted
// amplitudes: a checkpoint names prefix tasks, not workers, so the worker
// count may change mid-run.
//
// The mid-batch cases fail one worker 35 leaves into the second of four
// 64-leaf tasks, eight leaves per fold, with three leaves held: the
// checkpoint must hold the first task and nothing of the second.
func TestParityFaultAndResume(t *testing.T) {
	for _, tc := range []struct {
		suffix         string
		circ           *circuit.Circuit
		cutPos         int
		failAfter      int64
		wantCheckpoint int64 // PathsSimulated of a one-worker checkpoint; 0: any progress
	}{
		{"", manyCutCircuit(8, 8), 3, 128, 0}, // 2^8 = 256 paths
		{"-mid-batch", manyCutCircuit(12, 8), 5, 64 + 35, 64},
	} {
		plan := buildPlan(t, tc.circ, tc.cutPos, cut.StrategyNone)
		want := schrodinger(tc.circ)
		t.Run("fail-dense"+tc.suffix, func(t *testing.T) {
			for _, w := range [][2]int{{1, 2}, {2, 1}} {
				failWorkers, resumeWorkers := w[0], w[1]
				t.Run(fmt.Sprintf("workers-%d-%d", failWorkers, resumeWorkers), func(t *testing.T) {
					var buf bytes.Buffer
					_, err := Run(plan, Options{
						Workers:          failWorkers,
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
					if failWorkers == 1 && tc.wantCheckpoint != 0 && ck.PathsSimulated != tc.wantCheckpoint {
						t.Fatalf("checkpoint holds %d paths, want %d", ck.PathsSimulated, tc.wantCheckpoint)
					}
					res, err := Run(plan, Options{Workers: resumeWorkers, Resume: ck})
					if err != nil {
						t.Fatalf("resume on %d workers: %v", resumeWorkers, err)
					}
					if d := statevec.MaxAbsDiff(res.Amplitudes, want); d > 1e-12 {
						t.Fatalf("resume on %d workers off the oracle by %g", resumeWorkers, d)
					}
					if np, _ := plan.NumPaths(); res.PathsSimulated != int64(np) {
						t.Fatalf("paths = %d, want %d", res.PathsSimulated, np)
					}
				})
			}
		})
	}
}

// TestParityPartialAmplitudes checks the bounded-accumulator mode against
// both oracles.
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
	checkParity(t, circ, plan, Options{MaxAmplitudes: 16})
}
