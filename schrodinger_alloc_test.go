package hsfsim

import (
	"math"
	"math/rand"
	"slices"
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
	// The last step run by ApplyLast, interleaving into the result that holds
	// the imaginary plane.
	amps := make([]complex128, 1<<n)
	s = seg.NewStateIn(amps)
	if allocs := testing.AllocsPerRun(10, func() { seg.ApplyLast(s, amps) }); allocs != 0 {
		t.Errorf("final interleaving pass allocates %v allocs/op, want 0", allocs)
	}

	// Above one tile: a diagonal run across the tile boundary compiles to a
	// phase step, whose per-tile factor tables come from the same pool, and
	// the two mixers above the boundary to one paired pass. Compiled from the
	// product state the H layer prepares, the phase step comes first and
	// writes the state, so it cannot move behind the pair: a tiled step with
	// no gates ends the segment, and interleaves the result. The final pass
	// allocates nothing, in the result's memory and, for a prefix, beside it,
	// and gives the planes' run bit for bit, after a last high step too.
	const wide = statevec.DefaultTileQubits + 2
	var hs, run []gate.Gate
	plus := make([][2]complex128, wide)
	for q := 0; q < wide; q++ {
		hs = append(hs, gate.H(q))
		plus[q] = [2]complex128{complex(1/math.Sqrt2, 0), complex(1/math.Sqrt2, 0)}
	}
	for q := 0; q < wide-1; q++ {
		run = append(run, gate.RZZ(rng.Float64(), q, wide-1), gate.CZ(q, q+1))
	}
	run = append(run, gate.CCZ(0, wide-2, wide-1), gate.RX(0.3, wide-1), gate.RX(0.5, wide-2))
	for _, tc := range []struct {
		name   string
		seg    *statevec.CompiledSegment
		closed bool // a tiled step with no gates follows the pair
	}{
		{"from any state", statevec.CompileSegment(append(append([]gate.Gate(nil), hs...), run...), wide), false},
		{"writing the product state", statevec.CompileProduct(plus, append([]gate.Gate(nil), run...)), true},
	} {
		seg := tc.seg
		if sizes := phaseSteps(seg); len(sizes) != 1 || sizes[0] != 2*(wide-1)+1 {
			t.Fatalf("%s: phase steps of %v gates, want the whole diagonal layer (%d) in one", tc.name, sizes, 2*(wide-1)+1)
		}
		pair := seg.NumSteps() - 1
		if tc.closed {
			if kind, gates := seg.Step(pair); kind != statevec.StepTiled || gates != 0 {
				t.Fatalf("%s: last step is %d gates of kind %v, want a tiled step with none", tc.name, gates, kind)
			}
			pair--
		}
		if kind, gates := seg.Step(pair); kind != statevec.StepHigh || gates != 2 {
			t.Fatalf("%s: step %d is %d gates of kind %v, want the paired mixers", tc.name, pair, gates, kind)
		}
		s := seg.NewState()
		seg.Apply(s)
		want := s.ToComplex()
		if allocs := testing.AllocsPerRun(10, func() { seg.Apply(s) }); allocs != 0 && !raceEnabled {
			t.Errorf("%s: phase-step and paired replay allocates %v allocs/op, want 0", tc.name, allocs)
		}
		for _, m := range []int{1 << wide, 1<<13 + 5} {
			amps := make([]complex128, m)
			s := seg.NewStateIn(amps)
			for i := 0; i < seg.NumSteps()-1; i++ {
				seg.ApplyStep(s, i)
			}
			seg.ApplyLast(s, amps)
			if !slices.Equal(amps, want[:m]) {
				t.Fatalf("%s: %d amplitudes swept in the result differ from the planes' run", tc.name, m)
			}
			if allocs := testing.AllocsPerRun(10, func() { seg.ApplyLast(s, amps) }); allocs != 0 && !raceEnabled {
				t.Errorf("%s: final interleaving pass into %d amplitudes allocates %v allocs/op, want 0", tc.name, m, allocs)
			}
		}
	}
	if kind, _ := statevec.CompileProduct(plus, run).Step(0); kind != statevec.StepPhase {
		t.Fatalf("product-state segment starts with a %v step, want the writing phase step", kind)
	}
}

// TestSchrodingerCompileAllocs bounds what compiling the schrodinger-dense
// circuit allocates: 797 objects and 367 KB without its three pairs of high
// mixers, and a pair adds only its 4×4 Kronecker product — one matrix and
// its qubit list, no temporaries.
func TestSchrodingerCompileAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	c := q22Circuit(t)
	compile := func() {
		if _, err := Compile(c, Options{Method: Schrodinger}); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(5, compile); allocs > 815 {
		t.Errorf("Compile allocates %v objects, want ≤ 815", allocs)
	}
	if bytes := allocated(5, compile); bytes > 372<<10 {
		t.Errorf("Compile allocates %d B, want ≤ %d", bytes, 372<<10)
	}
}
