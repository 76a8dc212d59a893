package hsfsim

import (
	"fmt"
	"math/rand"
	"testing"

	"hsfsim/internal/graph"
	"hsfsim/internal/qaoa"
	"hsfsim/internal/statevec"
)

// q22Circuit is the benchmark's q22-3 instance (benchmark/workloads.go): one
// QAOA layer on the two-block model with 11 qubits per block.
func q22Circuit(tb testing.TB) *Circuit {
	tb.Helper()
	g, err := graph.TwoBlockModel(11, 11, 0.8, 0.20, rand.New(rand.NewSource(2203)))
	if err != nil {
		tb.Fatal(err)
	}
	if err := g.RandomizeWeights(0.5, 1.5, rand.New(rand.NewSource(2203))); err != nil {
		tb.Fatal(err)
	}
	c, err := qaoa.Build(g, qaoa.Params{Gammas: []float64{0.7}, Betas: []float64{0.5}})
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// phaseSteps lists the gate count of every phase step of seg.
func phaseSteps(seg *statevec.CompiledSegment) (sizes []int) {
	for i := 0; i < seg.NumSteps(); i++ {
		if kind, gates := seg.Step(i); kind == statevec.StepPhase {
			sizes = append(sizes, gates)
		}
	}
	return sizes
}

// TestQ22SweepStepBudget is the clock-free gate on the Schrödinger sweep of
// the schrodinger-dense workload: the prologue covers every qubit, the RZZ
// cost layer is one phase step that writes the product state, and what
// remains is the mixer layer — one tiled step below the boundary and the
// high mixers in pairs.
func TestQ22SweepStepBudget(t *testing.T) {
	c := q22Circuit(t)
	prologue, _, _ := peelPrologue(c)
	for q, v := range prologue {
		if v == [2]complex128{1, 0} {
			t.Errorf("qubit %d: no prologue gate peeled", q)
		}
	}
	cp, err := Compile(c, Options{Method: Schrodinger})
	if err != nil {
		t.Fatal(err)
	}
	if sizes := phaseSteps(cp.seg); len(sizes) != 1 || sizes[0] < 110 {
		t.Errorf("phase steps of %v gates, want one of ≥ 110", sizes)
	}
	if kind, _ := cp.seg.Step(0); kind != statevec.StepPhase {
		t.Errorf("first step is %v, want the phase step that writes the state", kind)
	}
	high, steps := 0, ""
	for i := 0; i < cp.seg.NumSteps(); i++ {
		kind, gates := cp.seg.Step(i)
		if kind == statevec.StepHigh {
			high++
		}
		steps += fmt.Sprintf(" %s×%d", []string{"high", "tiled", "phase"}[kind], gates)
	}
	t.Logf("steps:%s", steps)
	if n := cp.seg.NumSteps(); n > 7 || high > 5 {
		t.Errorf("%d sweep steps, %d of them full passes, want ≤ 7 and ≤ 5 (10 and 8 before pairing, 92 before the phase step)", n, high)
	}
}

var sinkResult *Result

// BenchmarkSchrodingerQ22 is one op of the schrodinger-dense workload without
// the QASM parse: compile and run the q22-3 circuit, full state.
func BenchmarkSchrodingerQ22(b *testing.B) {
	c := q22Circuit(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Simulate(c, Options{Method: Schrodinger, Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		sinkResult = res
	}
}
