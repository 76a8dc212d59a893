package hsfsim

import (
	"bytes"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"hsfsim/internal/graph"
	"hsfsim/internal/qaoa"
	"hsfsim/internal/qasm"
)

// q22Text is the QASM text of the joint-sweep benchmark's q22-3 circuit: one
// QAOA layer on the two-block graph of seed 2203.
func q22Text(tb testing.TB) string {
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
	var buf bytes.Buffer
	if err := qasm.Write(&buf, c); err != nil {
		tb.Fatal(err)
	}
	return buf.String()
}

// TestColdFrontEndAllocBudget is the clock-free gate on what a cold joint
// request pays before its engine: qasm.Parse of the q22-3 text and Compile's
// cut plan, nothing cached between requests. Per-gate garbage — a split or a
// map per statement, a rescanned matrix, a copied circuit — shows here as
// objects long before it shows on the clock: it came to 409 688 B and 3 473
// objects per request. The budget is the measured figure plus ≈ 10 %; hsf's
// TestEngineCompileAllocBudget covers the engine's analyze and compile of
// the same plan.
func TestColdFrontEndAllocBudget(t *testing.T) {
	const maxBytes, maxObjects = 305e3, 1530.0 // measured 277 554 B, 1389 objects
	text := q22Text(t)
	opts := Options{Method: JointHSF, CutPos: 10, MaxAmplitudes: 1 << 14, Workers: 1}
	front := func() {
		c, err := qasm.Parse(strings.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Compile(c, opts); err != nil {
			t.Fatal(err)
		}
	}
	const runs = 5
	front()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		front()
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	objects := testing.AllocsPerRun(runs, front)
	t.Logf("q22-3 parse + compile: %.0f B, %.0f objects per request", bytes, objects)
	if bytes > maxBytes {
		t.Errorf("parse + compile allocate %.0f B per request, budget %.0f", bytes, maxBytes)
	}
	if objects > maxObjects {
		t.Errorf("parse + compile allocate %.0f objects per request, budget %.0f", objects, maxObjects)
	}
}
