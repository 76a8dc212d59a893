package hsf

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hsfsim/internal/circuit"
	"hsfsim/internal/cut"
	"hsfsim/internal/gate"
	"hsfsim/internal/grcs"
	"hsfsim/internal/statevec"
)

func TestHSFCrossingThreeQubitGate(t *testing.T) {
	// A Toffoli with controls below and target above the cut: the general
	// block decomposition must handle k>2 crossing gates.
	c := circuit.New(5)
	c.Append(gate.H(0), gate.H(1), gate.CCX(0, 1, 3), gate.H(4), gate.CCZ(1, 3, 4))
	want := schrodinger(c)
	for _, strategy := range []cut.Strategy{cut.StrategyNone, cut.StrategyWindow} {
		res := runHSF(t, c, 1, strategy, Options{})
		if d := statevec.MaxAbsDiff(res.Amplitudes, want); d > 1e-9 {
			t.Fatalf("strategy %v: max diff %g", strategy, d)
		}
	}
}

func TestHSFWindowBlocksWithLocalGates(t *testing.T) {
	// Supremacy-style grid with mid-row cut: window blocks absorb local
	// single-qubit gates; the result must still match Schrödinger exactly.
	opts := grcs.Options{Rows: 3, Cols: 3, Depth: 6, Entangler: grcs.ISwap, Seed: 21}
	c, err := grcs.Generate(opts)
	if err != nil {
		t.Fatal(err)
	}
	want := schrodinger(c)
	plan, err := cut.BuildPlan(c, cut.Options{
		Partition: cut.Partition{CutPos: 4}, // mid-row cut
		Strategy:  cut.StrategyWindow, MaxBlockQubits: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(plan, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d := statevec.MaxAbsDiff(res.Amplitudes, want); d > 1e-8 {
		t.Fatalf("window blocks with locals diverge by %g (blocks=%d)", d, plan.NumBlocks())
	}
}

// TestHSFCPhaseCascadeAnalytic: a controlled-phase cascade sharing its anchor
// is one block at the analytic rank 2 of paper Sec. IV-D, reached by the
// numeric decomposition, and its HSF run matches Schrödinger.
func TestHSFCPhaseCascadeAnalytic(t *testing.T) {
	c := circuit.New(5)
	for q := 0; q < 5; q++ {
		c.Append(gate.H(q))
	}
	c.Append(gate.CPhase(0.3, 1, 2), gate.CPhase(0.9, 1, 3), gate.CPhase(-0.4, 1, 4))
	want := schrodinger(c)
	plan, err := cut.BuildPlan(c, cut.Options{
		Partition: cut.Partition{CutPos: 1}, Strategy: cut.StrategyCascade,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Cuts) != 1 || plan.Cuts[0].Rank() != 2 {
		t.Fatalf("cp cascade not one rank-2 block: cuts=%d", len(plan.Cuts))
	}
	res, err := Run(plan, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d := statevec.MaxAbsDiff(res.Amplitudes, want); d > 1e-9 {
		t.Fatalf("cp cascade diverges by %g", d)
	}
}

// TestHSFPropertyAgainstSchrodinger is the central property test: for random
// seeds, circuits, cut positions, and strategies, HSF must reproduce the
// Schrödinger amplitudes.
func TestHSFPropertyAgainstSchrodinger(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(4)
		c := circuit.New(n)
		gates := 6 + rng.Intn(10)
		for i := 0; i < gates; i++ {
			a := rng.Intn(n)
			b := (a + 1 + rng.Intn(n-1)) % n
			switch rng.Intn(7) {
			case 0:
				c.Append(gate.H(a))
			case 1:
				c.Append(gate.T(a))
			case 2:
				c.Append(gate.RX(rng.Float64()*3, a))
			case 3:
				c.Append(gate.RZZ(rng.Float64()*2, a, b))
			case 4:
				c.Append(gate.CNOT(a, b))
			case 5:
				c.Append(gate.ISWAP(a, b))
			default:
				c.Append(gate.FSim(rng.Float64(), rng.Float64(), a, b))
			}
		}
		want := schrodinger(c)
		cutPos := rng.Intn(n - 1)
		strategy := []cut.Strategy{cut.StrategyNone, cut.StrategyCascade, cut.StrategyWindow}[rng.Intn(3)]
		plan, err := cut.BuildPlan(c, cut.Options{Partition: cut.Partition{CutPos: cutPos}, Strategy: strategy})
		if err != nil {
			return false
		}
		res, err := Run(plan, Options{Workers: 1 + rng.Intn(4)})
		if err != nil {
			return false
		}
		return statevec.MaxAbsDiff(res.Amplitudes, want) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestHSFUnbalancedCuts(t *testing.T) {
	// Extreme cut positions (1 vs n-1 qubits per side) must still work.
	rng := rand.New(rand.NewSource(77))
	c := randomQAOAish(rng, 6, 9)
	want := schrodinger(c)
	for _, cutPos := range []int{0, 4} {
		res := runHSF(t, c, cutPos, cut.StrategyCascade, Options{})
		if d := statevec.MaxAbsDiff(res.Amplitudes, want); d > 1e-8 {
			t.Fatalf("cut %d: max diff %g", cutPos, d)
		}
	}
}

func TestHSFEmptyCircuit(t *testing.T) {
	c := circuit.New(4)
	res := runHSF(t, c, 1, cut.StrategyNone, Options{})
	if res.NumPaths != 1 {
		t.Fatalf("paths = %d", res.NumPaths)
	}
	if res.Amplitudes[0] != 1 {
		t.Fatalf("empty circuit state wrong: %v", res.Amplitudes[:4])
	}
}

func TestHSFSingleAmplitude(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	c := randomQAOAish(rng, 6, 8)
	full := runHSF(t, c, 2, cut.StrategyCascade, Options{})
	one := runHSF(t, c, 2, cut.StrategyCascade, Options{MaxAmplitudes: 1})
	if len(one.Amplitudes) != 1 {
		t.Fatalf("amplitudes = %d", len(one.Amplitudes))
	}
	if d := one.Amplitudes[0] - full.Amplitudes[0]; real(d)*real(d)+imag(d)*imag(d) > 1e-18 {
		t.Fatal("single amplitude mismatch")
	}
}
