package schmidt

import (
	"math/cmplx"

	"hsfsim/internal/cmat"
)

// This file holds the analytic rank-2 decompositions of gate "cascades"
// from paper Sec. IV-D (Ex. 4): a fan of two-qubit gates sharing a single
// anchor qubit on one side of the cut decomposes as
//
//	C = P0_anchor ⊗ A0^(1)⊗…⊗A0^(k)  +  P1_anchor ⊗ A1^(1)⊗…⊗A1^(k)
//
// keeping the Schmidt rank at 2 regardless of the cascade length, whereas
// separate cuts would cost 2^k paths. The planner always decomposes
// numerically, as the paper's evaluation does; these closed forms are the
// oracle its diagonal and dense routes are held to.

func p0() *cmat.Matrix { return cmat.FromSlice(2, 2, []complex128{1, 0, 0, 0}) }
func p1() *cmat.Matrix { return cmat.FromSlice(2, 2, []complex128{0, 0, 0, 1}) }

// kronChain returns m_k-1 ⊗ … ⊗ m_0, i.e. element i of ms supplies bit i.
func kronChain(ms []*cmat.Matrix) *cmat.Matrix {
	out := ms[len(ms)-1]
	for i := len(ms) - 2; i >= 0; i-- {
		out = cmat.Kron(out, ms[i])
	}
	if len(ms) == 1 {
		out = ms[0].Clone()
	}
	return out
}

// cascade assembles the two-term decomposition given the per-fan factors for
// the anchor-|0> and anchor-|1> branches. When anchorUpper is true the anchor
// qubit forms the (single-qubit) upper partition; otherwise the lower one.
func cascade(branch0, branch1 []*cmat.Matrix, anchorUpper bool) *Decomposition {
	f0 := kronChain(branch0)
	f1 := kronChain(branch1)
	k := len(branch0)
	d := &Decomposition{}
	if anchorUpper {
		d.NumUpper = 1
		d.NumLower = k
		d.Terms = []Term{
			{Sigma: 1, Upper: p0(), Lower: f0},
			{Sigma: 1, Upper: p1(), Lower: f1},
		}
	} else {
		d.NumLower = 1
		d.NumUpper = k
		d.Terms = []Term{
			{Sigma: 1, Upper: f0, Lower: p0()},
			{Sigma: 1, Upper: f1, Lower: p1()},
		}
	}
	d.SingularValues = []float64{1, 1}
	return d
}

// CNOTCascade returns the analytic decomposition of k CNOT gates sharing
// their control (the anchor): P0 ⊗ I^⊗k + P1 ⊗ X^⊗k (paper Eq. 11).
func CNOTCascade(k int, anchorUpper bool) *Decomposition {
	id := cmat.Identity(2)
	x := cmat.FromSlice(2, 2, []complex128{0, 1, 1, 0})
	b0 := make([]*cmat.Matrix, k)
	b1 := make([]*cmat.Matrix, k)
	for i := range b0 {
		b0[i] = id
		b1[i] = x
	}
	return cascade(b0, b1, anchorUpper)
}

// CZCascade returns the analytic decomposition of k CZ gates sharing one
// qubit: P0 ⊗ I^⊗k + P1 ⊗ Z^⊗k.
func CZCascade(k int, anchorUpper bool) *Decomposition {
	id := cmat.Identity(2)
	z := cmat.FromSlice(2, 2, []complex128{1, 0, 0, -1})
	b0 := make([]*cmat.Matrix, k)
	b1 := make([]*cmat.Matrix, k)
	for i := range b0 {
		b0[i] = id
		b1[i] = z
	}
	return cascade(b0, b1, anchorUpper)
}

// CPhaseCascade returns the analytic decomposition of controlled-phase
// gates CP(φ_j) sharing their anchor qubit:
//
//	Π_j CP(φ_j) = P0 ⊗ I^⊗k + P1 ⊗ (⊗_j diag(1, e^{iφ_j})).
func CPhaseCascade(phis []float64, anchorUpper bool) *Decomposition {
	id := cmat.Identity(2)
	ph := func(phi float64) *cmat.Matrix {
		return cmat.FromSlice(2, 2, []complex128{1, 0, 0, cmplx.Exp(complex(0, phi))})
	}
	b0 := make([]*cmat.Matrix, len(phis))
	b1 := make([]*cmat.Matrix, len(phis))
	for i, phi := range phis {
		b0[i] = id
		b1[i] = ph(phi)
	}
	return cascade(b0, b1, anchorUpper)
}

// RZZCascade returns the analytic decomposition of RZZ(θ_j) gates all
// sharing the anchor qubit:
//
//	Π_j RZZ(θ_j) = P0 ⊗ (⊗_j RZ(θ_j)) + P1 ⊗ (⊗_j RZ(-θ_j)).
func RZZCascade(thetas []float64, anchorUpper bool) *Decomposition {
	rz := func(theta float64) *cmat.Matrix {
		return cmat.FromSlice(2, 2, []complex128{
			cmplx.Exp(complex(0, -theta/2)), 0,
			0, cmplx.Exp(complex(0, theta/2)),
		})
	}
	b0 := make([]*cmat.Matrix, len(thetas))
	b1 := make([]*cmat.Matrix, len(thetas))
	for i, th := range thetas {
		b0[i] = rz(th)
		b1[i] = rz(-th)
	}
	return cascade(b0, b1, anchorUpper)
}
