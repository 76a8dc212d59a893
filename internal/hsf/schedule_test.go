package hsf

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"hsfsim/internal/circuit"
	"hsfsim/internal/cut"
	"hsfsim/internal/gate"
	"hsfsim/internal/statevec"
)

// q22Circuit is the benchmark's own instance: the q22-3 SBM-QAOA circuit.
func q22Circuit(tb testing.TB) *circuit.Circuit {
	tb.Helper()
	return sbmCircuit(tb, 11, 2203)
}

// q22Plan cuts q22Circuit between its blocks with cascade grouping (2^10
// joint paths).
func q22Plan(tb testing.TB) *cut.Plan {
	tb.Helper()
	plan, err := cut.BuildPlan(q22Circuit(tb), cut.Options{Partition: cut.Partition{CutPos: 10}, Strategy: cut.StrategyCascade})
	if err != nil {
		tb.Fatal(err)
	}
	return plan
}

// compiled lowers plan for the full output on a bare engine (no telemetry,
// no tracing).
func compiled(plan *cut.Plan, fusionMaxQubits int) *engine {
	return compiledFor(plan, resolveAmplitudes(plan, 0), fusionMaxQubits, 0)
}

// randomCascades builds CNOT or CZ fans from one anchor across the cut, with
// non-diagonal gates on the fan targets and controlled gates hanging off the
// anchor between them: the gates the scheduler may and may not move across a
// cascade's terms.
func randomCascades(rng *rand.Rand, n, cutPos int, name string) *circuit.Circuit {
	c := circuit.New(n)
	for q := 0; q < n; q++ {
		c.Append(gate.H(q))
	}
	for round := 0; round < 2; round++ {
		anchor := rng.Intn(cutPos + 1)
		for _, t := range rng.Perm(n - cutPos - 1)[:2] {
			fan := cutPos + 1 + t
			if name == "cx" {
				c.Append(gate.CNOT(anchor, fan))
			} else {
				c.Append(gate.CZ(anchor, fan))
			}
			switch rng.Intn(3) {
			case 0:
				c.Append(gate.X(fan))
			case 1:
				c.Append(gate.T(fan), gate.RZ(rng.Float64(), anchor))
			default:
				c.Append(gate.CNOT(anchor, (anchor+1)%(cutPos+1)))
			}
		}
		c.Append(gate.RX(rng.Float64(), anchor))
	}
	for q := 0; q < n; q++ {
		c.Append(gate.T(q)) // trailing diagonals: path-invariant wherever no X or RX came last
	}
	return c
}

// randomGRCSLayers alternates CZ layers on a line with random non-diagonal
// single-qubit gates on every qubit, cut-touched ones included.
func randomGRCSLayers(rng *rand.Rand, n, depth int) *circuit.Circuit {
	c := circuit.New(n)
	for q := 0; q < n; q++ {
		c.Append(gate.H(q))
	}
	for d := 0; d < depth; d++ {
		for q := d % 2; q+1 < n; q += 2 {
			c.Append(gate.CZ(q, q+1))
		}
		for q := 0; q < n; q++ {
			switch rng.Intn(3) {
			case 0:
				c.Append(gate.SX(q))
			case 1:
				c.Append(gate.SY(q))
			default:
				c.Append(gate.T(q))
			}
		}
	}
	return c
}

// propertyCircuits are the random circuit families of the property tests, on
// n qubits cut after cutPos.
func propertyCircuits(n, cutPos int) map[string]func(*rand.Rand) *circuit.Circuit {
	return map[string]func(*rand.Rand) *circuit.Circuit{
		"qaoa":    func(rng *rand.Rand) *circuit.Circuit { return randomQAOAish(rng, n, 8) },
		"cx-fans": func(rng *rand.Rand) *circuit.Circuit { return randomCascades(rng, n, cutPos, "cx") },
		"cz-fans": func(rng *rand.Rand) *circuit.Circuit { return randomCascades(rng, n, cutPos, "cz") },
		"grcs":    func(rng *rand.Rand) *circuit.Circuit { return randomGRCSLayers(rng, n, 3) },
	}
}

// propertyRuns are the executions every property case holds against the
// Schrödinger oracle.
var propertyRuns = []Options{
	{Workers: 1},
	{Workers: 4},
}

// checkAgainstOracle runs plan once per propertyRuns entry for the first m
// amplitudes and compares them with want at 1e-12.
func checkAgainstOracle(t *testing.T, plan *cut.Plan, m int, want statevec.State) {
	t.Helper()
	for _, run := range propertyRuns {
		run.MaxAmplitudes = m
		res, err := Run(plan, run)
		if err != nil {
			t.Fatalf("workers %d: %v", run.Workers, err)
		}
		if d := statevec.MaxAbsDiff(res.Amplitudes, want[:m]); d > 1e-12 {
			t.Fatalf("workers %d, %d amplitudes: off the oracle by %g", run.Workers, m, d)
		}
	}
}

// TestScheduleProperty is the scheduler's safety net: over random circuits of
// the paper's families, every grouping strategy and one or four workers, the amplitudes equal the Schrödinger oracle to 1e-12, no gate
// is scheduled later than the plan placed it, and no gate is lost.
func TestScheduleProperty(t *testing.T) {
	const n, cutPos = 8, 3
	for name, build := range propertyCircuits(n, cutPos) {
		for _, strategy := range []cut.Strategy{cut.StrategyNone, cut.StrategyCascade, cut.StrategyWindow} {
			t.Run(fmt.Sprintf("%s/%v", name, strategy), func(t *testing.T) {
				total := 0
				for seed := int64(1); seed <= 3; seed++ {
					circ := build(rand.New(rand.NewSource(seed)))
					plan := buildPlan(t, circ, cutPos, strategy)
					checkAgainstOracle(t, plan, 1<<n, schrodinger(circ))

					e := compiled(plan, -1)
					at, hoisted, _ := schedule(plan, e.cuts)
					level, local, moved := 0, 0, 0
					for i, st := range plan.Steps {
						if st.Kind == cut.CutStep {
							level++
							continue
						}
						local++
						if at[i] > level {
							t.Fatalf("seed %d: step %d (%s) scheduled into segment %d, after its own %d", seed, i, st.Gate.String(), at[i], level)
						}
						if at[i] < level {
							moved++
						}
					}
					if moved != hoisted {
						t.Fatalf("seed %d: %d gates moved, schedule reports %d", seed, moved, hoisted)
					}
					placed := len(e.epiGates) // unfused: one per sunk gate
					for _, s := range e.segs {
						placed += len(s.gates[cut.Lower]) + len(s.gates[cut.Upper])
					}
					if placed != local {
						t.Fatalf("seed %d: %d local gates in the plan, %d in the segments and the epilogue", seed, local, placed)
					}
					total += hoisted
				}
				if total == 0 {
					t.Fatal("no gate was hoisted on any seed: the case exercises nothing")
				}
			})
		}
	}
}

// TestLeafFoldProperty takes the same families through the output shapes that
// decide how leaves reach the accumulator: full outputs of 16 and 64 rows (one
// per upper amplitude), which go through the blocked fold, and outputs of one
// amplitude, one lower half, and one amplitude less or more, which stop
// inside a row. The subtests are named after the leaves per fold the two
// shapes had when K grew with the rows; every shape folds leafBatchK now.
func TestLeafFoldProperty(t *testing.T) {
	const cutPos = 3
	const dimLo = 1 << (cutPos + 1)
	for _, shape := range []struct {
		n    int
		name string
	}{{8, "K=2"}, {10, "K=8"}} {
		for name, build := range propertyCircuits(shape.n, cutPos) {
			t.Run(shape.name+"/"+name, func(t *testing.T) {
				circ := build(rand.New(rand.NewSource(int64(shape.n))))
				want := schrodinger(circ)
				for _, strategy := range []cut.Strategy{cut.StrategyNone, cut.StrategyCascade, cut.StrategyWindow} {
					plan := buildPlan(t, circ, cutPos, strategy)
					for _, m := range []int{1, dimLo - 1, dimLo, dimLo + 1, 1 << shape.n} {
						checkAgainstOracle(t, plan, m, want)
					}
				}
			})
		}
	}
}

// TestQ22LargeWindowBlocks plans the benchmark instance with windows of 10,
// 11 and 12 qubits — 4|6 to 4|8 splits whose dense decomposition took 20 s to
// minutes and whose phase matrices are at most 32 × 256 — at interactive
// latency, and checks the first 2^10 amplitudes against Schrödinger.
func TestQ22LargeWindowBlocks(t *testing.T) {
	c := q22Circuit(t)
	v := statevec.NewVector(c.NumQubits)
	statevec.CompileSegment(c.Gates, c.NumQubits).Apply(v)
	const m = 1 << 10
	want := v.Slice(0, m).ToComplex()
	for _, maxBlock := range []int{10, 11, 12} {
		start := time.Now()
		plan, err := cut.BuildPlan(c, cut.Options{Partition: cut.Partition{CutPos: 10}, Strategy: cut.StrategyWindow, MaxBlockQubits: maxBlock})
		if err != nil {
			t.Fatal(err)
		}
		if el := time.Since(start); el > time.Second {
			t.Errorf("max_block_qubits %d: plan took %v, want < 1 s", maxBlock, el)
		}
		widest := 0
		for _, cp := range plan.Cuts {
			widest = max(widest, len(cp.LowerQubits)+len(cp.UpperQubits))
		}
		if widest != maxBlock {
			t.Errorf("max_block_qubits %d: widest block touches %d qubits", maxBlock, widest)
		}
		res, err := Run(plan, Options{MaxAmplitudes: m})
		if err != nil {
			t.Fatal(err)
		}
		if d := statevec.MaxAbsDiff(res.Amplitudes, want); d > 1e-12 {
			t.Errorf("max_block_qubits %d: off the oracle by %g", maxBlock, d)
		}
	}
}

// TestScheduleQ22Structure pins what the scheduler does to the benchmark's
// instance: every intra-partition RZZ runs once in segment 0 and the segment
// replayed at every leaf keeps only the last mixers.
func TestScheduleQ22Structure(t *testing.T) {
	plan := q22Plan(t)
	e := compiled(plan, 0)

	diag2 := 0
	for _, gs := range e.segs[0].gates {
		for i := range gs {
			if gs[i].NumQubits() == 2 && gs[i].Diagonal {
				diag2++
			}
		}
	}
	if diag2 != 85 {
		t.Fatalf("segment 0 holds %d two-qubit diagonals after fusion, want all 85", diag2)
	}
	at, _, _ := schedule(plan, e.cuts)
	for i, st := range plan.Steps {
		if st.Kind == cut.LocalStep && st.Gate.Name == "rzz" && at[i] != 0 {
			t.Fatalf("local %s scheduled into segment %d, want 0", st.Gate.String(), at[i])
		}
	}

	last := e.segs[len(e.segs)-1]
	for side, gs := range map[string][]gate.Gate{"lower": last.gates[cut.Lower], "upper": last.gates[cut.Upper]} {
		if len(gs) > 2 {
			t.Fatalf("last segment holds %d %s gates, want ≤ 2", len(gs), side)
		}
		for i := range gs {
			if gs[i].Diagonal {
				t.Fatalf("last segment still holds diagonal %s", gs[i].String())
			}
		}
	}
}

// TestScheduleDoesNotCrossNonCommuting covers the moves the scheduler must
// refuse: each circuit's last gate has to stay behind the cut.
func TestScheduleDoesNotCrossNonCommuting(t *testing.T) {
	cases := []struct {
		name string
		c    *circuit.Circuit
		want int // segment of the last gate
	}{
		// RX shares qubit 0 with the RZZ's (diagonal) terms.
		{"rx-after-rzz", circuitOf(4, gate.RZZ(0.4, 0, 2), gate.RX(0.3, 0)), 1},
		// X on the CNOT's target: the terms are I and X there, and the
		// conservative structural rule keeps the X behind them.
		{"x-on-cnot-target", circuitOf(4, gate.H(0), gate.CNOT(0, 2), gate.X(2)), 1},
		// H on the control, where the terms are projectors.
		{"h-on-cnot-control", circuitOf(4, gate.CNOT(0, 2), gate.H(0)), 1},
		// A non-diagonal gate blocks a diagonal one behind it on the same qubit.
		{"rz-behind-rx", circuitOf(4, gate.RZZ(0.4, 1, 2), gate.RX(0.3, 1), gate.RZ(0.2, 1)), 1},
		// Positive controls: a diagonal gate and a CNOT controlled on the
		// cut-touched qubit both cross the projector side of a CNOT's terms.
		{"rz-on-cnot-control", circuitOf(4, gate.H(0), gate.CNOT(0, 2), gate.RZ(0.2, 0)), 0},
		{"cnot-off-cnot-control", circuitOf(4, gate.H(0), gate.CNOT(0, 2), gate.CNOT(0, 1)), 0},
	}
	for _, tc := range cases {
		plan := buildPlan(t, tc.c, 1, cut.StrategyNone)
		e := compiled(plan, -1)
		at, _, _ := schedule(plan, e.cuts)
		if got := at[len(at)-1]; got != tc.want {
			t.Errorf("%s: last gate scheduled into segment %d, want %d", tc.name, got, tc.want)
		}
		res, err := Run(plan, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if d := statevec.MaxAbsDiff(res.Amplitudes, schrodinger(tc.c)); d > 1e-12 {
			t.Errorf("%s: off the oracle by %g", tc.name, d)
		}
	}
}

func circuitOf(n int, gs ...gate.Gate) *circuit.Circuit {
	c := circuit.New(n)
	c.Append(gs...)
	return c
}
