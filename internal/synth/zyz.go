// Package synth holds the ZYZ Euler decomposition of single-qubit unitaries,
// which lets the QASM writer express any 1-qubit gate without a qelib1
// primitive as an rz/ry/rz chain with its global phase.
package synth

import (
	"fmt"
	"math"
	"math/cmplx"

	"hsfsim/internal/cmat"
	"hsfsim/internal/gate"
)

// ZYZ holds the Euler decomposition of a single-qubit unitary:
//
//	U = e^{iAlpha} · Rz(Beta) · Ry(Gamma) · Rz(Delta).
type ZYZ struct {
	Alpha, Beta, Gamma, Delta float64
}

// ZYZDecompose computes the Euler angles of a 2×2 unitary.
func ZYZDecompose(u *cmat.Matrix) (ZYZ, error) {
	if u.Rows != 2 || u.Cols != 2 {
		return ZYZ{}, fmt.Errorf("synth: ZYZ needs a 2x2 matrix, got %dx%d", u.Rows, u.Cols)
	}
	if !u.IsUnitary(1e-9) {
		return ZYZ{}, fmt.Errorf("synth: ZYZ input is not unitary")
	}
	// Make det(U') = 1: U = e^{iα}·U' with α = arg(det U)/2.
	det := u.At(0, 0)*u.At(1, 1) - u.At(0, 1)*u.At(1, 0)
	alpha := cmplx.Phase(det) / 2
	phase := cmplx.Exp(complex(0, -alpha))
	a := phase * u.At(0, 0)
	c := phase * u.At(1, 0)
	// SU(2): U' = [[cos(γ/2)e^{-i(β+δ)/2}, -sin(γ/2)e^{-i(β-δ)/2}],
	//              [sin(γ/2)e^{ i(β-δ)/2},  cos(γ/2)e^{ i(β+δ)/2}]]
	// When |a| ≈ 0 we have |c| ≈ 1 and vice versa, so each phase is read
	// off whichever entry is nonzero; the vanishing entry's phase is free.
	gamma := 2 * math.Atan2(cmplx.Abs(c), cmplx.Abs(a))
	var betaPlusDelta, betaMinusDelta float64
	if cmplx.Abs(a) > 1e-12 {
		betaPlusDelta = -2 * cmplx.Phase(a)
	}
	if cmplx.Abs(c) > 1e-12 {
		betaMinusDelta = 2 * cmplx.Phase(c)
	}
	z := ZYZ{
		Alpha: alpha,
		Beta:  (betaPlusDelta + betaMinusDelta) / 2,
		Gamma: gamma,
		Delta: (betaPlusDelta - betaMinusDelta) / 2,
	}
	return z, nil
}

// Matrix reconstructs the unitary from the Euler angles.
func (z ZYZ) Matrix() *cmat.Matrix {
	rz := func(t float64) *cmat.Matrix {
		return cmat.FromSlice(2, 2, []complex128{
			cmplx.Exp(complex(0, -t/2)), 0,
			0, cmplx.Exp(complex(0, t/2)),
		})
	}
	ry := func(t float64) *cmat.Matrix {
		c, s := math.Cos(t/2), math.Sin(t/2)
		return cmat.FromSlice(2, 2, []complex128{
			complex(c, 0), complex(-s, 0),
			complex(s, 0), complex(c, 0),
		})
	}
	m := cmat.Mul(rz(z.Beta), cmat.Mul(ry(z.Gamma), rz(z.Delta)))
	return cmat.Scale(cmplx.Exp(complex(0, z.Alpha)), m)
}

// Gates returns the ZYZ rotation sequence on qubit q in circuit order
// (Rz(δ) first). The global phase e^{iα} is NOT representable as gates on q
// alone and is returned separately for callers that track it.
func (z ZYZ) Gates(q int) ([]gate.Gate, float64) {
	var out []gate.Gate
	if z.Delta != 0 {
		out = append(out, gate.RZ(z.Delta, q))
	}
	if z.Gamma != 0 {
		out = append(out, gate.RY(z.Gamma, q))
	}
	if z.Beta != 0 {
		out = append(out, gate.RZ(z.Beta, q))
	}
	return out, z.Alpha
}

// GatesWithPhase returns the sequence including the global phase folded into
// a P gate plus an RZ correction: e^{iα} = P(α)·RZ(-α)·... — concretely,
// e^{iα}I = P(2α)·RZ(-2α) up to nothing else, since P(φ)=diag(1,e^{iφ}) and
// RZ(-φ)=diag(e^{iφ/2},e^{-iφ/2}) give diag(e^{iφ/2},e^{iφ/2}).
func (z ZYZ) GatesWithPhase(q int) []gate.Gate {
	gs, alpha := z.Gates(q)
	if alpha != 0 {
		gs = append(gs, gate.P(2*alpha, q), gate.RZ(-2*alpha, q))
	}
	return gs
}
