package hsfsim

import (
	"math/rand"
	"testing"

	"hsfsim/internal/fuse"
	"hsfsim/internal/gate"
	"hsfsim/internal/statevec"
)

// TestSchrodingerSegmentZeroAllocs mirrors the walker's TestZeroAllocsPerLeaf
// for the Schrödinger baseline: after compilation, replaying the fused gate
// sequence over the statevector must not allocate. This guards the regression
// where the baseline fused gates but never prepared them, so every k-qubit
// application rebuilt its kernel plan on the heap.
func TestSchrodingerSegmentZeroAllocs(t *testing.T) {
	const n = 12
	rng := rand.New(rand.NewSource(42))
	c := NewCircuit(n)
	for layer := 0; layer < 3; layer++ {
		for q := 0; q < n; q++ {
			c.Append(gate.H(q), gate.RZ(rng.Float64(), q))
		}
		for q := 0; q+2 < n; q += 3 {
			c.Append(gate.CNOT(q, q+1), gate.CCX(q, q+1, q+2), gate.RZZ(rng.Float64(), q+1, q+2))
		}
	}
	gates := fuse.Fuse(c.Gates, 3)
	has3q := false
	for i := range gates {
		if gates[i].NumQubits() >= 3 {
			has3q = true
		}
	}
	if !has3q {
		t.Fatal("fusion produced no k≥3 gates; the guard would not exercise kernel plans")
	}
	seg := statevec.CompileSegment(gates, n)
	s := statevec.NewVector(n)
	seg.Apply(s) // warm the scratch pool
	allocs := testing.AllocsPerRun(10, func() { seg.Apply(s) })
	if allocs != 0 {
		t.Errorf("compiled segment replay allocates %v allocs/op, want 0", allocs)
	}

	// Above one tile: a diagonal run across the tile boundary compiles to a
	// phase step, whose per-tile factor tables come from the same pool.
	const wide = statevec.DefaultTileQubits + 2
	var run []gate.Gate
	for q := 0; q < wide; q++ {
		run = append(run, gate.H(q))
	}
	for q := 0; q < wide-1; q++ {
		run = append(run, gate.RZZ(rng.Float64(), q, wide-1), gate.CZ(q, q+1))
	}
	run = append(run, gate.CCZ(0, wide-2, wide-1), gate.RX(0.3, wide-1))
	seg = statevec.CompileSegment(run, wide)
	if sizes := phaseSteps(seg); len(sizes) != 1 || sizes[0] != 2*(wide-1)+1 {
		t.Fatalf("phase steps of %v gates, want the whole diagonal layer (%d) in one", sizes, 2*(wide-1)+1)
	}
	s = statevec.NewVector(wide)
	seg.Apply(s)
	if allocs := testing.AllocsPerRun(10, func() { seg.Apply(s) }); allocs != 0 && !raceEnabled {
		t.Errorf("phase-step replay allocates %v allocs/op, want 0", allocs)
	}
}
