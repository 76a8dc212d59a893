package cut

import (
	"math/rand"
	"runtime"
	"testing"

	"hsfsim/internal/circuit"
	"hsfsim/internal/graph"
	"hsfsim/internal/qaoa"
)

// sbmQAOA is the benchmark's instance family: one QAOA layer on a two-block
// stochastic block model with half qubits per block (q20-3 is the serve-plan
// workload's circuit, q22-3 the joint-* workloads').
func sbmQAOA(tb testing.TB, half int, graphSeed int64) *circuit.Circuit {
	tb.Helper()
	g, err := graph.TwoBlockModel(half, half, 0.8, 0.20, rand.New(rand.NewSource(graphSeed)))
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

// planCase is one plan the budget and the benchmark share.
type planCase struct {
	name      string
	half      int
	graphSeed int64
	strategy  Strategy
	maxBlock  int
}

func (pc planCase) build(tb testing.TB) (*circuit.Circuit, Options) {
	return sbmQAOA(tb, pc.half, pc.graphSeed),
		Options{Partition: Partition{CutPos: pc.half - 1}, Strategy: pc.strategy, MaxBlockQubits: pc.maxBlock}
}

var planCases = []planCase{
	{"q20-3/window-8", 10, 2003, StrategyWindow, 8},
	{"q22-3/cascade", 11, 2203, StrategyCascade, 0},
	{"q22-3/window-11", 11, 2203, StrategyWindow, 11},
}

func BenchmarkBuildPlan(b *testing.B) {
	for _, pc := range planCases {
		b.Run(pc.name, func(b *testing.B) {
			c, opts := pc.build(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := BuildPlan(c, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestBuildPlanAllocBudget is the planner's regression gate that does not
// depend on the clock. A diagonal block decomposed through its dense unitary
// allocates 4^n entries per block (18.9 MB and 158 613 objects per q20-3
// plan), through its phase matrix 2^n. The two benchmark plans are pinned at
// their figures plus ≈ 10 %: a dependency DAG built from all pairs, or a
// contraction with one map per node run for every proposed group, allocated
// 409 kB / 2347 objects (q20-3) and 768 kB / 6974 objects (q22-3 cascade),
// and the memory the engine's 8-leaf batches hold is paid from that. Maps
// per grouping step, a reordered copy of the circuit, separate-cut ranks
// built as full decompositions and library gates classified by scanning
// their matrices still allocated 267 kB / 653 and 238 kB / 1592.
func TestBuildPlanAllocBudget(t *testing.T) {
	for _, tc := range []struct {
		index               int
		maxBytes, maxObject float64
	}{
		{0, 264e3, 415}, // measured 239 552 B, 375 objects
		{1, 212e3, 895}, // measured 192 582 B, 812 objects
		{2, 16 << 20, 0},
	} {
		pc := planCases[tc.index]
		c, opts := pc.build(t)
		const runs = 5
		plan := func() {
			if _, err := BuildPlan(c, opts); err != nil {
				t.Fatal(err)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			plan()
		}
		runtime.ReadMemStats(&after)
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
		objects := testing.AllocsPerRun(runs, plan)
		t.Logf("%s: %.0f B, %.0f objects per plan", pc.name, bytes, objects)
		if bytes > tc.maxBytes {
			t.Errorf("%s: BuildPlan allocates %.0f B per plan, budget %.0f", pc.name, bytes, tc.maxBytes)
		}
		if tc.maxObject > 0 && objects > tc.maxObject {
			t.Errorf("%s: BuildPlan allocates %.0f objects per plan, budget %.0f", pc.name, objects, tc.maxObject)
		}
	}
}
