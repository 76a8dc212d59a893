package statevec

import (
	"math/cmplx"
	"math/rand"
	"testing"

	"hsfsim/internal/gate"
)

// zooCircuit builds a gate list mixing every kernel class with both low
// (below tileQ) and high qubits on an n-qubit register.
func zooCircuit(rng *rand.Rand, n int) []gate.Gate {
	var gs []gate.Gate
	for q := 0; q < n; q++ {
		gs = append(gs, gate.H(q))
	}
	for layer := 0; layer < 2; layer++ {
		for q := 0; q+1 < n; q += 2 {
			gs = append(gs, gate.CNOT(q, q+1), gate.RZZ(rng.Float64(), q, q+1))
		}
		gs = append(gs,
			gate.CZ(0, n-1), // crosses the tile boundary for n > tileQ
			gate.CCX(1, n/2, n-2),
			gate.ISWAP(2, 3),
			gate.CRX(rng.Float64(), n-1, 0),
			gate.P(rng.Float64(), n-1),
			gate.New("dense3", randUnitary(rng, 8), nil, 0, 1, 2),
		)
	}
	return gs
}

// TestCompileSegmentParity checks that the compiled sweep — tiling, shared
// scratch, prepared plans — reproduces plain sequential application exactly,
// both above and below the tile boundary.
func TestCompileSegmentParity(t *testing.T) {
	for _, n := range []int{6, DefaultTileQubits, DefaultTileQubits + 2} {
		rng := rand.New(rand.NewSource(int64(n)))
		gs := zooCircuit(rng, n)
		want := randomState(rng, n)
		got := FromComplex(want)
		stepped := FromComplex(want)

		ref := make([]gate.Gate, len(gs))
		for i := range gs {
			ref[i] = gs[i].Clone() // unprepared copies for the reference path
		}
		want.ApplyAll(ref)

		cs := CompileSegment(gs, n)
		cs.Apply(got)
		for i := 0; i < cs.NumSteps(); i++ {
			cs.ApplyStep(stepped, i)
		}
		for i := range want {
			if cmplx.Abs(got.Amplitude(i)-want[i]) > parityTol || cmplx.Abs(stepped.Amplitude(i)-want[i]) > parityTol {
				t.Fatalf("n=%d amplitude %d: apply %v stepped %v want %v", n, i, got.Amplitude(i), stepped.Amplitude(i), want[i])
			}
		}
	}
}

// TestCompileSegmentGrouping pins the sweep structure: consecutive low gates
// collapse into one tiled step, high gates split the runs.
func TestCompileSegmentGrouping(t *testing.T) {
	n := DefaultTileQubits + 3
	gs := []gate.Gate{
		gate.H(0), gate.CNOT(1, 2), gate.RZZ(0.3, 3, 4), // low run
		gate.CZ(0, n-1),           // high
		gate.X(5), gate.P(0.2, 6), // low run
		gate.H(n - 2), // high
	}
	cs := CompileSegment(gs, n)
	if cs.NumSteps() != 4 {
		t.Fatalf("NumSteps = %d, want 4", cs.NumSteps())
	}
	wantKinds := []StepKind{StepTiled, StepHigh, StepTiled, StepHigh}
	wantLens := []int{3, 1, 2, 1}
	for i := range wantKinds {
		if kind, n := cs.Step(i); kind != wantKinds[i] || n != wantLens[i] {
			t.Fatalf("step %d: kind=%v len=%d, want kind=%v len=%d", i, kind, n, wantKinds[i], wantLens[i])
		}
	}
	// A register at or below the tile size has every gate "low": one step.
	cs = CompileSegment([]gate.Gate{gate.H(0), gate.CZ(0, 5), gate.H(5)}, 6)
	if kind, _ := cs.Step(0); cs.NumSteps() != 1 || kind != StepTiled {
		t.Fatalf("small register: steps=%d, want one tiled step", cs.NumSteps())
	}
}

// TestCompileSegmentEmpty: an empty segment compiles and applies as a no-op
// (the HSF engine routinely produces empty leading/trailing segments).
func TestCompileSegmentEmpty(t *testing.T) {
	cs := CompileSegment(nil, 5)
	if cs.NumSteps() != 0 {
		t.Fatalf("NumSteps = %d, want 0", cs.NumSteps())
	}
	v := NewVector(5)
	cs.Apply(v)
	if v.Amplitude(0) != 1 {
		t.Fatal("empty segment mutated the state")
	}
}
