package hsf

import (
	"math/rand"
	"testing"
	"time"

	"hsfsim/internal/circuit"
	"hsfsim/internal/cut"
	"hsfsim/internal/gate"
	"hsfsim/internal/statevec"
)

func runDDHSF(t *testing.T, c *circuit.Circuit, cutPos int, strategy cut.Strategy, opts Options) *Result {
	t.Helper()
	plan, err := cut.BuildPlan(c, cut.Options{Partition: cut.Partition{CutPos: cutPos}, Strategy: strategy})
	if err != nil {
		t.Fatal(err)
	}
	opts.Backend = BackendDD
	res, err := Run(plan, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestDDEngineMatchesSchrodinger(t *testing.T) {
	rng := rand.New(rand.NewSource(200))
	for trial := 0; trial < 5; trial++ {
		n := 4 + rng.Intn(3)
		c := randomQAOAish(rng, n, 8)
		want := schrodinger(c)
		for _, strategy := range []cut.Strategy{cut.StrategyNone, cut.StrategyCascade} {
			res := runDDHSF(t, c, n/2-1, strategy, Options{})
			if d := statevec.MaxAbsDiff(res.Amplitudes, want); d > 1e-8 {
				t.Fatalf("trial %d strategy %v: DD engine diverges by %g", trial, strategy, d)
			}
		}
	}
}

func TestDDEngineMatchesArrayEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(201))
	c := randomMixed(rng, 6, 10)
	plan, err := cut.BuildPlan(c, cut.Options{Partition: cut.Partition{CutPos: 2}, Strategy: cut.StrategyWindow})
	if err != nil {
		t.Fatal(err)
	}
	arr, err := Run(plan, Options{MaxAmplitudes: 32})
	if err != nil {
		t.Fatal(err)
	}
	ddRes, err := Run(plan, Options{Backend: BackendDD, MaxAmplitudes: 32})
	if err != nil {
		t.Fatal(err)
	}
	if arr.PathsSimulated != ddRes.PathsSimulated {
		t.Fatalf("path counts differ: %d vs %d", arr.PathsSimulated, ddRes.PathsSimulated)
	}
	if d := statevec.MaxAbsDiff(arr.Amplitudes, ddRes.Amplitudes); d > 1e-8 {
		t.Fatalf("engines disagree by %g", d)
	}
}

func TestDDEngineGHZ(t *testing.T) {
	n := 8
	c := circuit.New(n)
	c.Append(gate.H(0))
	for q := 1; q < n; q++ {
		c.Append(gate.CNOT(q-1, q))
	}
	want := schrodinger(c)
	res := runDDHSF(t, c, 3, cut.StrategyNone, Options{})
	if res.NumPaths != 2 {
		t.Fatalf("paths = %d, want 2", res.NumPaths)
	}
	if d := statevec.MaxAbsDiff(res.Amplitudes, want); d > 1e-9 {
		t.Fatalf("GHZ diverges by %g", d)
	}
}

func TestDDEngineTimeout(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	c := circuit.New(10)
	for i := 0; i < 20; i++ {
		a := rng.Intn(5)
		b := 5 + rng.Intn(5)
		c.Append(gate.RZZ(rng.Float64(), a, b), gate.RX(0.3, a))
	}
	plan, err := cut.BuildPlan(c, cut.Options{Partition: cut.Partition{CutPos: 4}, Strategy: cut.StrategyNone})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(plan, Options{Backend: BackendDD, Timeout: time.Microsecond}); err != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}
