package hsf

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"hsfsim/internal/circuit"
	"hsfsim/internal/cut"
	"hsfsim/internal/gate"
	"hsfsim/internal/statevec"
)

// schrodinger runs the plain statevector simulation for reference.
func schrodinger(c *circuit.Circuit) statevec.State {
	s := statevec.NewState(c.NumQubits)
	s.ApplyAll(c.Gates)
	return s
}

// runHSF builds a plan and executes it with the given strategy.
func runHSF(t *testing.T, c *circuit.Circuit, cutPos int, strategy cut.Strategy, opts Options) *Result {
	t.Helper()
	plan, err := cut.BuildPlan(c, cut.Options{Partition: cut.Partition{CutPos: cutPos}, Strategy: strategy})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(plan, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// randomQAOAish builds a random circuit with RZZ entanglers and RX mixers.
func randomQAOAish(rng *rand.Rand, n, edges int) *circuit.Circuit {
	c := circuit.New(n)
	for q := 0; q < n; q++ {
		c.Append(gate.H(q))
	}
	for i := 0; i < edges; i++ {
		a := rng.Intn(n)
		b := (a + 1 + rng.Intn(n-1)) % n
		c.Append(gate.RZZ(rng.Float64()*2, a, b))
	}
	for q := 0; q < n; q++ {
		c.Append(gate.RX(rng.Float64(), q))
	}
	return c
}

// randomMixed builds circuits that include high-rank crossing gates.
func randomMixed(rng *rand.Rand, n, gates int) *circuit.Circuit {
	c := circuit.New(n)
	for i := 0; i < gates; i++ {
		a := rng.Intn(n)
		b := (a + 1 + rng.Intn(n-1)) % n
		switch rng.Intn(5) {
		case 0:
			c.Append(gate.CNOT(a, b))
		case 1:
			c.Append(gate.SWAP(a, b))
		case 2:
			c.Append(gate.RZZ(rng.Float64(), a, b))
		case 3:
			c.Append(gate.H(a))
		default:
			c.Append(gate.ISWAP(a, b))
		}
	}
	return c
}

func TestHSFMatchesSchrodingerGHZ(t *testing.T) {
	n := 6
	c := circuit.New(n)
	c.Append(gate.H(0))
	for q := 1; q < n; q++ {
		c.Append(gate.CNOT(q-1, q))
	}
	want := schrodinger(c)
	for _, strategy := range []cut.Strategy{cut.StrategyNone, cut.StrategyCascade, cut.StrategyWindow} {
		res := runHSF(t, c, 2, strategy, Options{})
		if d := statevec.MaxAbsDiff(res.Amplitudes, want); d > 1e-9 {
			t.Errorf("strategy %v: max diff %g", strategy, d)
		}
	}
}

func TestHSFMatchesSchrodingerRandomQAOA(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	for trial := 0; trial < 8; trial++ {
		n := 4 + rng.Intn(4)
		c := randomQAOAish(rng, n, 6+rng.Intn(8))
		want := schrodinger(c)
		cutPos := n/2 - 1
		for _, strategy := range []cut.Strategy{cut.StrategyNone, cut.StrategyCascade} {
			res := runHSF(t, c, cutPos, strategy, Options{})
			if d := statevec.MaxAbsDiff(res.Amplitudes, want); d > 1e-8 {
				t.Fatalf("trial %d strategy %v: max diff %g (paths %d)", trial, strategy, d, res.NumPaths)
			}
		}
	}
}

func TestHSFMatchesSchrodingerMixedGates(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 6; trial++ {
		n := 4 + rng.Intn(3)
		c := randomMixed(rng, n, 8)
		want := schrodinger(c)
		cutPos := n/2 - 1
		for _, strategy := range []cut.Strategy{cut.StrategyNone, cut.StrategyWindow} {
			res := runHSF(t, c, cutPos, strategy, Options{})
			if d := statevec.MaxAbsDiff(res.Amplitudes, want); d > 1e-8 {
				t.Fatalf("trial %d strategy %v: max diff %g", trial, strategy, d)
			}
		}
	}
}

func TestHSFPartialAmplitudes(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	c := randomQAOAish(rng, 6, 8)
	full := runHSF(t, c, 2, cut.StrategyCascade, Options{})
	m := 10
	part := runHSF(t, c, 2, cut.StrategyCascade, Options{MaxAmplitudes: m})
	if len(part.Amplitudes) != m {
		t.Fatalf("got %d amplitudes, want %d", len(part.Amplitudes), m)
	}
	for i := 0; i < m; i++ {
		if d := part.Amplitudes[i] - full.Amplitudes[i]; real(d)*real(d)+imag(d)*imag(d) > 1e-18 {
			t.Fatalf("partial amplitude %d differs", i)
		}
	}
}

func TestHSFPathCountsSimulated(t *testing.T) {
	// Two separate rank-2 cuts: exactly 4 paths simulated.
	c := circuit.New(4)
	c.Append(gate.H(0), gate.RZZ(0.4, 1, 2), gate.H(3), gate.RZZ(0.8, 0, 3))
	res := runHSF(t, c, 1, cut.StrategyNone, Options{})
	if res.NumPaths != 4 || res.PathsSimulated != 4 {
		t.Fatalf("paths = %d, simulated = %d, want 4/4", res.NumPaths, res.PathsSimulated)
	}
	if math.Abs(res.Log2Paths-2) > 1e-9 {
		t.Fatalf("log2 paths = %g", res.Log2Paths)
	}
}

func TestHSFNoCrossingGates(t *testing.T) {
	c := circuit.New(4)
	c.Append(gate.H(0), gate.CNOT(0, 1), gate.H(2), gate.CNOT(2, 3))
	want := schrodinger(c)
	res := runHSF(t, c, 1, cut.StrategyNone, Options{})
	if res.NumPaths != 1 {
		t.Fatalf("paths = %d, want 1", res.NumPaths)
	}
	if d := statevec.MaxAbsDiff(res.Amplitudes, want); d > 1e-9 {
		t.Fatalf("max diff %g", d)
	}
}

func TestHSFWorkerCountsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	c := randomQAOAish(rng, 7, 12)
	r1 := runHSF(t, c, 3, cut.StrategyCascade, Options{Workers: 1})
	r8 := runHSF(t, c, 3, cut.StrategyCascade, Options{Workers: 8})
	if d := statevec.MaxAbsDiff(r1.Amplitudes, r8.Amplitudes); d > 1e-9 {
		t.Fatalf("worker counts disagree: %g", d)
	}
}

func TestHSFFusionOnOffAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	c := randomMixed(rng, 6, 14)
	on := runHSF(t, c, 2, cut.StrategyWindow, Options{FusionMaxQubits: 3})
	off := runHSF(t, c, 2, cut.StrategyWindow, Options{FusionMaxQubits: -1})
	if d := statevec.MaxAbsDiff(on.Amplitudes, off.Amplitudes); d > 1e-9 {
		t.Fatalf("fusion changed amplitudes: %g", d)
	}
}

func TestHSFTimeout(t *testing.T) {
	// A circuit with many separate cuts and an immediate timeout.
	rng := rand.New(rand.NewSource(56))
	c := circuit.New(10)
	for i := 0; i < 24; i++ {
		a := rng.Intn(5)
		b := 5 + rng.Intn(5)
		c.Append(gate.RZZ(rng.Float64(), a, b))
		c.Append(gate.RX(rng.Float64(), a)) // break cascades apart
	}
	plan, err := cut.BuildPlan(c, cut.Options{Partition: cut.Partition{CutPos: 4}, Strategy: cut.StrategyNone})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(plan, Options{Timeout: time.Microsecond})
	if err != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestHSFNormalization(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	c := randomQAOAish(rng, 6, 10)
	res := runHSF(t, c, 2, cut.StrategyCascade, Options{})
	norm := statevec.State(res.Amplitudes).Norm()
	if math.Abs(norm-1) > 1e-9 {
		t.Fatalf("HSF state norm = %g, want 1", norm)
	}
}

func BenchmarkHSFJointQAOA12(b *testing.B) {
	rng := rand.New(rand.NewSource(60))
	c := randomQAOAish(rng, 12, 18)
	plan, err := cut.BuildPlan(c, cut.Options{Partition: cut.Partition{CutPos: 5}, Strategy: cut.StrategyCascade})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(plan, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHSFStandardQAOA12(b *testing.B) {
	rng := rand.New(rand.NewSource(60))
	c := randomQAOAish(rng, 12, 18)
	plan, err := cut.BuildPlan(c, cut.Options{Partition: cut.Partition{CutPos: 5}, Strategy: cut.StrategyNone})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(plan, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
