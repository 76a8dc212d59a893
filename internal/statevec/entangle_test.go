package statevec

import (
	"math"
	"math/cmplx"
	"testing"

	"hsfsim/internal/gate"
)

func TestProductStateEntropyZero(t *testing.T) {
	v := NewVector(4)
	h := gate.H(0)
	v.ApplyGate(&h) // |+>⊗|000>: still a product across any cut
	e, err := v.EntanglementEntropy(2)
	if err != nil {
		t.Fatal(err)
	}
	if e > 1e-10 {
		t.Fatalf("product state entropy = %g", e)
	}
	r, err := v.SchmidtRank(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r != 1 {
		t.Fatalf("product state rank = %d", r)
	}
}

func TestGHZEntropyOneBit(t *testing.T) {
	n := 6
	v := NewVector(n)
	h := gate.H(0)
	v.ApplyGate(&h)
	for q := 1; q < n; q++ {
		cx := gate.CNOT(q-1, q)
		v.ApplyGate(&cx)
	}
	for _, cut := range []int{1, 2, 3} {
		e, err := v.EntanglementEntropy(cut)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(e-1) > 1e-9 {
			t.Fatalf("GHZ entropy at cut %d = %g, want 1", cut, e)
		}
		r, err := v.SchmidtRank(cut, 0)
		if err != nil {
			t.Fatal(err)
		}
		if r != 2 {
			t.Fatalf("GHZ rank = %d, want 2", r)
		}
	}
}

func TestBellPairsAdditiveEntropy(t *testing.T) {
	// Two Bell pairs across the cut: entropy 2 bits, rank 4.
	v := NewVector(4) // pairs (0,2) and (1,3), cut at 1|2
	for _, q := range []int{0, 1} {
		h := gate.H(q)
		v.ApplyGate(&h)
		cx := gate.CNOT(q, q+2)
		v.ApplyGate(&cx)
	}
	e, err := v.EntanglementEntropy(2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e-2) > 1e-9 {
		t.Fatalf("two Bell pairs entropy = %g, want 2", e)
	}
	r, err := v.SchmidtRank(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r != 4 {
		t.Fatalf("rank = %d, want 4", r)
	}
}

func TestSchmidtSpectrumNormalization(t *testing.T) {
	v := NewVector(4)
	h := gate.H(0)
	v.ApplyGate(&h)
	cx := gate.CNOT(0, 2)
	v.ApplyGate(&cx)
	spec, err := v.SchmidtSpectrum(2)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, sv := range spec {
		sum += sv * sv
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("Σλ² = %g, want 1", sum)
	}
}

func TestEntangleErrors(t *testing.T) {
	v := NewVector(3)
	if _, err := v.SchmidtSpectrum(0); err == nil {
		t.Fatal("empty partition accepted")
	}
	if _, err := v.SchmidtSpectrum(3); err == nil {
		t.Fatal("full partition accepted")
	}
}

func TestReducedDensityMatrixBell(t *testing.T) {
	s := NewState(2)
	h := gate.H(0)
	cx := gate.CNOT(0, 1)
	s.ApplyGate(&h)
	s.ApplyGate(&cx)
	rho, err := s.ReducedDensityMatrix([]int{0})
	if err != nil {
		t.Fatal(err)
	}
	// Bell pair: the single-qubit reduced state is maximally mixed I/2.
	if cmplx.Abs(rho.At(0, 0)-0.5) > 1e-12 || cmplx.Abs(rho.At(1, 1)-0.5) > 1e-12 ||
		cmplx.Abs(rho.At(0, 1)) > 1e-12 {
		t.Fatalf("rho = %v", rho)
	}
	p, err := s.Purity([]int{0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-0.5) > 1e-12 {
		t.Fatalf("purity = %g, want 0.5", p)
	}
}

func TestPurityProductState(t *testing.T) {
	s := NewState(3)
	h := gate.H(1)
	s.ApplyGate(&h)
	p, err := s.Purity([]int{1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-1) > 1e-12 {
		t.Fatalf("product purity = %g", p)
	}
}

func TestPurityMatchesSchmidtSpectrum(t *testing.T) {
	// tr(ρ_A²) = Σ λ⁴ over the Schmidt coefficients of the A|B split.
	v := NewVector(4)
	v.ApplyAll([]gate.Gate{gate.H(0), gate.CNOT(0, 2), gate.RY(0.7, 1), gate.CNOT(1, 3), gate.RZZ(0.4, 0, 1)})
	spec, err := v.SchmidtSpectrum(2)
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	for _, sv := range spec {
		want += sv * sv * sv * sv
	}
	p, err := v.ToComplex().Purity([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-want) > 1e-9 {
		t.Fatalf("purity %g vs Σλ⁴ %g", p, want)
	}
}

func TestReducedDensityMatrixValidation(t *testing.T) {
	s := NewState(3)
	if _, err := s.ReducedDensityMatrix(nil); err == nil {
		t.Fatal("empty keep accepted")
	}
	if _, err := s.ReducedDensityMatrix([]int{0, 1, 2}); err == nil {
		t.Fatal("full keep accepted")
	}
	if _, err := s.ReducedDensityMatrix([]int{1, 0}); err == nil {
		t.Fatal("unsorted keep accepted")
	}
	if _, err := s.ReducedDensityMatrix([]int{0, 0}); err == nil {
		t.Fatal("duplicate keep accepted")
	}
	if _, err := s.ReducedDensityMatrix([]int{5}); err == nil {
		t.Fatal("out of range keep accepted")
	}
}
