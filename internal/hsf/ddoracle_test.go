package hsf

import (
	"math/rand"
	"testing"

	"hsfsim/internal/circuit"
	"hsfsim/internal/cut"
	"hsfsim/internal/dd"
	"hsfsim/internal/gate"
	"hsfsim/internal/statevec"
)

// The DD engine here is internal/dd run over the whole circuit: a second
// oracle next to the Schrödinger State. Its gate application shares nothing
// with the dense kernels, the cut planner or the walker (lowerCuts, schedule,
// sink, the residuals), so a walker bug has to match two unrelated engines to
// hide.

// ddOracle returns the full statevector of c from the decision-diagram
// engine.
func ddOracle(t *testing.T, c *circuit.Circuit) statevec.State {
	t.Helper()
	d := dd.New(c.NumQubits, 0)
	if err := d.ApplyCircuit(c); err != nil {
		t.Fatal(err)
	}
	return d.ToStatevector()
}

// TestDDEngineMatchesSchrodinger holds the two oracles to each other, and the
// walker to both, on random QAOA-like circuits under standard and cascade
// cuts.
func TestDDEngineMatchesSchrodinger(t *testing.T) {
	rng := rand.New(rand.NewSource(200))
	for trial := 0; trial < 5; trial++ {
		n := 4 + rng.Intn(3)
		c := randomQAOAish(rng, n, 8)
		want := schrodinger(c)
		ddWant := ddOracle(t, c)
		if d := statevec.MaxAbsDiff(ddWant, want); d > 1e-12 {
			t.Fatalf("trial %d: DD engine off the Schrödinger state by %g", trial, d)
		}
		for _, strategy := range []cut.Strategy{cut.StrategyNone, cut.StrategyCascade} {
			res := runHSF(t, c, n/2-1, strategy, Options{})
			if d := statevec.MaxAbsDiff(res.Amplitudes, ddWant); d > 1e-12 {
				t.Fatalf("trial %d strategy %v: walker off the DD engine by %g", trial, strategy, d)
			}
		}
	}
}

// TestDDEngineMatchesArrayEngine runs a window plan of a mixed circuit on the
// array walker for a partial output and holds it to the DD engine's leading
// amplitudes.
func TestDDEngineMatchesArrayEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(201))
	c := randomMixed(rng, 6, 10)
	plan := buildPlan(t, c, 2, cut.StrategyWindow)
	arr, err := Run(plan, Options{MaxAmplitudes: 32})
	if err != nil {
		t.Fatal(err)
	}
	if np, _ := plan.NumPaths(); arr.PathsSimulated != int64(np) {
		t.Fatalf("%d of %d paths simulated", arr.PathsSimulated, np)
	}
	if d := statevec.MaxAbsDiff(arr.Amplitudes, ddOracle(t, c)[:32]); d > 1e-12 {
		t.Fatalf("engines disagree by %g", d)
	}
}

// TestDDEngineGHZ cuts a GHZ chain once: two paths on the walker, a handful
// of nodes in the DD engine, and the same state from both.
func TestDDEngineGHZ(t *testing.T) {
	n := 8
	c := circuit.New(n)
	c.Append(gate.H(0))
	for q := 1; q < n; q++ {
		c.Append(gate.CNOT(q-1, q))
	}
	d := dd.New(n, 0)
	if err := d.ApplyCircuit(c); err != nil {
		t.Fatal(err)
	}
	if nodes := d.NumNodes(); nodes > 2*n {
		t.Fatalf("GHZ takes %d DD nodes, want at most %d", nodes, 2*n)
	}
	res := runHSF(t, c, 3, cut.StrategyNone, Options{})
	if res.NumPaths != 2 {
		t.Fatalf("paths = %d, want 2", res.NumPaths)
	}
	if diff := statevec.MaxAbsDiff(res.Amplitudes, d.ToStatevector()); diff > 1e-12 {
		t.Fatalf("GHZ diverges by %g", diff)
	}
}
