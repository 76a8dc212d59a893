package hsfsim_test

import (
	"math/rand"
	"testing"

	"hsfsim"
	"hsfsim/internal/graph"
	"hsfsim/internal/qaoa"
)

// TestEstimateCostOfWorkloads pins EstimateCost on the benchmark workloads'
// plans — q22-3 with the cascade strategy at 2^14 amplitudes on one worker
// (joint-sweep, and schrodinger-dense's HSF probe) and at 2^20 on two and
// four (joint-accum-par), q20-3 with 8-qubit windows at 2^14 (serve-plan),
// and the Schrödinger run itself (the real plane beside the result that holds
// the imaginary one) — to the numbers Cost gave when it ran the engine's
// analysis apart from compile. A run now analyses its plan once and
// Cost reads that analysis; standing alone it still computes it, to the same
// estimate.
func TestEstimateCostOfWorkloads(t *testing.T) {
	build := func(size int, graphSeed int64) *hsfsim.Circuit {
		g, err := graph.TwoBlockModel(size, size, 0.8, 0.20, rand.New(rand.NewSource(graphSeed)))
		if err != nil {
			t.Fatal(err)
		}
		if err := g.RandomizeWeights(0.5, 1.5, rand.New(rand.NewSource(2203))); err != nil {
			t.Fatal(err)
		}
		c, err := qaoa.Build(g, qaoa.Params{Gammas: []float64{0.7}, Betas: []float64{0.4}})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	q22, q20 := build(11, 2203), build(10, 2003)
	joint := func(m, workers int) hsfsim.Options {
		return hsfsim.Options{Method: hsfsim.JointHSF, CutPos: 10, MaxAmplitudes: m, Workers: workers, BlockStrategy: hsfsim.BlockCascade}
	}
	for _, tc := range []struct {
		name string
		c    *hsfsim.Circuit
		opts hsfsim.Options
		want hsfsim.CostEstimate
	}{
		{"joint-sweep", q22, joint(1<<14, 1), hsfsim.CostEstimate{Paths: 1 << 10, PathsExact: true, Log2Paths: 10, Workers: 1,
			StatePairBytes: 65536, PerWorkerBytes: 638592, AccumulatorBytes: 262144, TotalBytes: 900736}},
		{"joint-accum-par/2", q22, joint(1<<20, 2), hsfsim.CostEstimate{Paths: 1 << 10, PathsExact: true, Log2Paths: 10, Workers: 2,
			StatePairBytes: 65536, PerWorkerBytes: 17586688, AccumulatorBytes: 16777216, TotalBytes: 51950592}},
		{"joint-accum-par/4", q22, joint(1<<20, 4), hsfsim.CostEstimate{Paths: 1 << 10, PathsExact: true, Log2Paths: 10, Workers: 4,
			StatePairBytes: 65536, PerWorkerBytes: 17586688, AccumulatorBytes: 16777216, TotalBytes: 87123968}},
		{"serve-plan", q20, hsfsim.Options{Method: hsfsim.JointHSF, CutPos: 9, MaxAmplitudes: 1 << 14, Workers: 1,
			BlockStrategy: hsfsim.BlockWindow, MaxBlockQubits: 8}, hsfsim.CostEstimate{Paths: 1 << 6, PathsExact: true, Log2Paths: 6, Workers: 1,
			StatePairBytes: 32768, PerWorkerBytes: 373760, AccumulatorBytes: 262144, TotalBytes: 635904}},
		{"schrodinger-dense", q22, hsfsim.Options{Method: hsfsim.Schrodinger, Workers: 1}, hsfsim.CostEstimate{Paths: 1, PathsExact: true, Workers: 1,
			StatePairBytes: 33554432, PerWorkerBytes: 33692480, AccumulatorBytes: 67108864, TotalBytes: 100801344}},
	} {
		got, err := hsfsim.EstimateCost(tc.c, tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if *got != tc.want {
			t.Errorf("%s: estimate %+v, want %+v", tc.name, *got, tc.want)
		}
	}
}
