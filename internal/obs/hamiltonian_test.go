package obs

import (
	"math"
	"math/rand"
	"testing"

	"hsfsim/internal/cmat"
	"hsfsim/internal/gate"
	"hsfsim/internal/graph"
	"hsfsim/internal/statevec"
)

func TestHamiltonianAddValidation(t *testing.T) {
	h := NewHamiltonian(3)
	if err := h.Add(1, "ZZ"); err == nil {
		t.Fatal("short term accepted")
	}
	if err := h.Add(1, "ZQZ"); err == nil {
		t.Fatal("invalid Pauli accepted")
	}
	if err := h.Add(0.5, "ZZI"); err != nil {
		t.Fatal(err)
	}
	if h.String() != "+0.50·ZZI" {
		t.Fatalf("String = %q", h.String())
	}
}

func TestTransverseIsingGroundStateEnergy(t *testing.T) {
	// For J=-1 (ferromagnet), hx=0: |000> is a ground state with E = -(n-1).
	h, err := TransverseIsing(4, -1, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	s := statevec.NewState(4)
	e, err := h.Expectation(s)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e+3) > 1e-12 {
		t.Fatalf("E = %g, want -3", e)
	}
	if !h.IsDiagonal() {
		// hx = 0 keeps the X terms with zero coefficient — they are present
		// but the operator is not formally diagonal.
		_ = e
	}
}

func TestEnergyConservedUnderTrotterEvolution(t *testing.T) {
	// <H> is conserved by exp(-iHt); a fine second-order Trotterization
	// (half ZZ layer, field layer, half ZZ layer per step) must keep it
	// nearly constant.
	const n, j, hx, dt = 5, 1.0, 0.6, 0.01
	h, err := TransverseIsing(n, j, hx, false)
	if err != nil {
		t.Fatal(err)
	}
	start := statevec.NewState(n)
	hGate := gate.H(0)
	start.ApplyGate(&hGate) // break symmetry a little
	e0, err := h.Expectation(start)
	if err != nil {
		t.Fatal(err)
	}
	var step []gate.Gate
	halfZZ := func() {
		for q := 0; q+1 < n; q++ {
			step = append(step, gate.RZZ(j*dt, q, q+1))
		}
	}
	halfZZ()
	for q := 0; q < n; q++ {
		step = append(step, gate.RX(2*hx*dt, q))
	}
	halfZZ()
	evolved := start.Clone()
	for s := 0; s < 64; s++ {
		evolved.ApplyAll(step)
	}
	e1, err := h.Expectation(evolved)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e1-e0) > 1e-3 {
		t.Fatalf("energy drifted: %g -> %g", e0, e1)
	}
}

func TestMaxCutHamiltonianMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g, err := graph.ErdosRenyi(6, 0.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	h, constant := MaxCutHamiltonian(g)
	if !h.IsDiagonal() {
		t.Fatal("cut Hamiltonian should be diagonal")
	}
	// Random state: <C> + const must equal the probability-weighted cut.
	s := make([]complex128, 64)
	var norm float64
	for i := range s {
		s[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		norm += real(s[i])*real(s[i]) + imag(s[i])*imag(s[i])
	}
	inv := complex(1/math.Sqrt(norm), 0)
	probs := make([]float64, len(s))
	for i := range s {
		s[i] *= inv
		probs[i] = real(s[i])*real(s[i]) + imag(s[i])*imag(s[i])
	}
	viaH, err := h.DiagonalExpectation(probs)
	if err != nil {
		t.Fatal(err)
	}
	direct := g.ExpectedCutFromProbabilities(probs)
	if math.Abs(viaH+constant-direct) > 1e-10 {
		t.Fatalf("<C>+const = %g, direct = %g", viaH+constant, direct)
	}
}

func TestDiagonalExpectationRejectsOffDiagonal(t *testing.T) {
	h := NewHamiltonian(2)
	if err := h.Add(1, "XI"); err != nil {
		t.Fatal(err)
	}
	if _, err := h.DiagonalExpectation([]float64{1, 0, 0, 0}); err == nil {
		t.Fatal("off-diagonal Hamiltonian accepted")
	}
}

func TestHamiltonianMatrixConsistency(t *testing.T) {
	// <ψ|H|ψ> via obs must match the dense matrix form Σ c_i ⊗-chain.
	h, err := TransverseIsing(3, 0.8, 0.5, true)
	if err != nil {
		t.Fatal(err)
	}
	dense := cmat.New(8, 8)
	pauliM := map[Pauli]*cmat.Matrix{
		I: cmat.Identity(2),
		X: cmat.FromSlice(2, 2, []complex128{0, 1, 1, 0}),
		Z: cmat.FromSlice(2, 2, []complex128{1, 0, 0, -1}),
	}
	for _, term := range h.Terms {
		m := cmat.Identity(1)
		for q := len(term.Op.Ops) - 1; q >= 0; q-- {
			m = cmat.Kron(m, pauliM[term.Op.Ops[q]])
		}
		dense = cmat.Add(dense, cmat.Scale(complex(term.Coefficient, 0), m))
	}
	rng := rand.New(rand.NewSource(9))
	psi := make([]complex128, 8)
	var norm float64
	for i := range psi {
		psi[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		norm += real(psi[i])*real(psi[i]) + imag(psi[i])*imag(psi[i])
	}
	inv := complex(1/math.Sqrt(norm), 0)
	for i := range psi {
		psi[i] *= inv
	}
	viaObs, err := h.Expectation(psi)
	if err != nil {
		t.Fatal(err)
	}
	hv := cmat.MulVec(dense, psi)
	var viaDense complex128
	for i := range psi {
		viaDense += complex(real(psi[i]), -imag(psi[i])) * hv[i]
	}
	if math.Abs(viaObs-real(viaDense)) > 1e-9 {
		t.Fatalf("obs %g vs dense %g", viaObs, real(viaDense))
	}
}
