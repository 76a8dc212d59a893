package hsf

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"hsfsim/internal/circuit"
	"hsfsim/internal/cut"
	"hsfsim/internal/gate"
	"hsfsim/internal/graph"
	"hsfsim/internal/qaoa"
)

// sbmCircuit is one QAOA layer on the benchmark's two-block graphs: q22-3 is
// sbmCircuit(11, 2203), q20-3 sbmCircuit(10, 2003).
func sbmCircuit(tb testing.TB, half int, graphSeed int64) *circuit.Circuit {
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

// TestBuildPlanPinned pins what the planner makes of the benchmark's plans
// and of a CNOT-cascade instance: PlanHash, path count, blocks and every
// cut's rank. The dependency DAG and the group checks behind the grouping
// may change how they compute, never what they decide, so a checkpoint
// written by an earlier build of the same plan still resumes. The hash covers
// the SVD factors' bits, and arm64 builds fuse the SVD's multiply-adds, so
// it is pinned on amd64 only.
func TestBuildPlanPinned(t *testing.T) {
	for _, tc := range []struct {
		name   string
		c      *circuit.Circuit
		opts   cut.Options
		hash   uint64
		paths  uint64
		blocks int
		ranks  string
	}{
		{"q22-3/cascade", sbmCircuit(t, 11, 2203),
			cut.Options{Partition: cut.Partition{CutPos: 10}, Strategy: cut.StrategyCascade},
			0x29d0924dd7978980, 1024, 8, "[2 2 2 2 2 2 2 2 2 2]"},
		{"q20-3/window-8", sbmCircuit(t, 10, 2003),
			cut.Options{Partition: cut.Partition{CutPos: 9}, Strategy: cut.StrategyWindow, MaxBlockQubits: 8},
			0xaac05e3310d1877f, 64, 2, "[4 8 2]"},
		{"cx-cascade", randomCascades(rand.New(rand.NewSource(5)), 10, 4, "cx"),
			cut.Options{Partition: cut.Partition{CutPos: 4}, Strategy: cut.StrategyCascade},
			0x6f35a802720dbc8e, 4, 2, "[2 2]"},
	} {
		plan, err := cut.BuildPlan(tc.c, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		ranks := make([]int, len(plan.Cuts))
		for i, cp := range plan.Cuts {
			ranks[i] = cp.Rank()
		}
		paths, _ := plan.NumPaths()
		if paths != tc.paths || plan.NumBlocks() != tc.blocks || fmt.Sprint(ranks) != tc.ranks {
			t.Errorf("%s: %d paths, %d blocks, ranks %v; want %d, %d, %s", tc.name, paths, plan.NumBlocks(), ranks, tc.paths, tc.blocks, tc.ranks)
		}
		if h := PlanHash(plan); runtime.GOARCH == "amd64" && h != tc.hash {
			t.Errorf("%s: PlanHash %#x, want %#x", tc.name, h, tc.hash)
		}
	}
}

// TestCutTermFlagsMatchReclassify holds the classification lowerCuts gives
// every cut-term factor to what Reclassify computes from the same matrix, on
// the plans TestBuildPlanPinned pins: the q22-3 cascade and q20-3 window-8
// factors come from the diagonal route and are classified from their
// diagonals, the CNOT cascade's from the dense route and are scanned.
func TestCutTermFlagsMatchReclassify(t *testing.T) {
	for _, tc := range []struct {
		name     string
		c        *circuit.Circuit
		opts     cut.Options
		diagonal bool // every cut took the diagonal route
	}{
		{"q22-3/cascade", sbmCircuit(t, 11, 2203),
			cut.Options{Partition: cut.Partition{CutPos: 10}, Strategy: cut.StrategyCascade}, true},
		{"q20-3/window-8", sbmCircuit(t, 10, 2003),
			cut.Options{Partition: cut.Partition{CutPos: 9}, Strategy: cut.StrategyWindow, MaxBlockQubits: 8}, true},
		{"cx-cascade", randomCascades(rand.New(rand.NewSource(5)), 10, 4, "cx"),
			cut.Options{Partition: cut.Partition{CutPos: 4}, Strategy: cut.StrategyCascade}, false},
	} {
		plan, err := cut.BuildPlan(tc.c, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		terms := 0
		for l, c := range lowerCuts(plan) {
			if plan.Cuts[l].Diagonal != tc.diagonal {
				t.Errorf("%s cut %d: Diagonal = %v, want %v", tc.name, l, plan.Cuts[l].Diagonal, tc.diagonal)
			}
			for side := range c.terms {
				for i := range c.terms[side] {
					g := &c.terms[side][i]
					want := gate.Gate{Matrix: g.Matrix}
					want.Reclassify()
					if g.Diagonal != want.Diagonal || g.Controls != want.Controls ||
						!reflect.DeepEqual(g.Perm, want.Perm) || !reflect.DeepEqual(g.PermPhase, want.PermPhase) {
						t.Errorf("%s cut %d side %d term %d: flags diag=%v perm=%v phase=%v controls=%b, Reclassify gives diag=%v perm=%v phase=%v controls=%b",
							tc.name, l, side, i, g.Diagonal, g.Perm, g.PermPhase, g.Controls,
							want.Diagonal, want.Perm, want.PermPhase, want.Controls)
					}
					terms++
				}
			}
		}
		if terms == 0 {
			t.Errorf("%s: no cut terms", tc.name)
		}
	}
}
