package gate

import (
	"math"
	"math/cmplx"

	"hsfsim/internal/cmat"
)

// sqrt1_2 is 1/√2.
const sqrt1_2 = math.Sqrt2 / 2

func m2(a, b, c, d complex128) *cmat.Matrix {
	return cmat.FromSlice(2, 2, []complex128{a, b, c, d})
}

// The off-diagonal positions (row, column) where a library matrix can be
// nonzero; every other off-diagonal entry is an exact zero (see classify).
// A diagonal gate passes nil.
var (
	offAnti1 = [][2]int{{0, 1}, {1, 0}}                 // one qubit: both
	offAnti2 = [][2]int{{0, 3}, {1, 2}, {2, 1}, {3, 0}} // X⊗X's support
	offMid   = [][2]int{{1, 2}, {2, 1}}                 // |01⟩ ↔ |10⟩
	offCtl   = [][2]int{{1, 3}, {3, 1}}                 // target flip, control bit 0 set
	offCCtl  = [][2]int{{3, 7}, {7, 3}}                 // target flip, controls bits 0 and 1 set
)

// --- single-qubit gates ---

// I returns the identity gate on q (occasionally useful as a placeholder).
func I(q int) Gate { return NewDiagonal("id", cmat.Identity(2), nil, q) }

// X returns the Pauli-X (NOT) gate.
func X(q int) Gate { return newSparse("x", m2(0, 1, 1, 0), nil, offAnti1, q) }

// Y returns the Pauli-Y gate.
func Y(q int) Gate { return newSparse("y", m2(0, -1i, 1i, 0), nil, offAnti1, q) }

// Z returns the Pauli-Z gate.
func Z(q int) Gate { return NewDiagonal("z", m2(1, 0, 0, -1), nil, q) }

// H returns the Hadamard gate.
func H(q int) Gate {
	return newSparse("h", m2(sqrt1_2, sqrt1_2, sqrt1_2, -sqrt1_2), nil, offAnti1, q)
}

// S returns the phase gate diag(1, i).
func S(q int) Gate { return NewDiagonal("s", m2(1, 0, 0, 1i), nil, q) }

// Sdg returns S†.
func Sdg(q int) Gate { return NewDiagonal("sdg", m2(1, 0, 0, -1i), nil, q) }

// T returns the T gate diag(1, e^{iπ/4}).
func T(q int) Gate { return NewDiagonal("t", m2(1, 0, 0, cmplx.Exp(1i*math.Pi/4)), nil, q) }

// Tdg returns T†.
func Tdg(q int) Gate { return NewDiagonal("tdg", m2(1, 0, 0, cmplx.Exp(-1i*math.Pi/4)), nil, q) }

// SX returns the square root of X, used in supremacy-style circuits.
func SX(q int) Gate {
	return newSparse("sx", m2(0.5+0.5i, 0.5-0.5i, 0.5-0.5i, 0.5+0.5i), nil, offAnti1, q)
}

// SY returns the square root of Y, used in supremacy-style circuits.
func SY(q int) Gate {
	return newSparse("sy", m2(0.5+0.5i, -0.5-0.5i, 0.5+0.5i, 0.5+0.5i), nil, offAnti1, q)
}

// SW returns the square root of W = (X+Y)/√2, the third single-qubit gate of
// Google's random-circuit gate set. For an involution A the square root is
// e^{iπ/4}/√2 · (I - iA).
func SW(q int) Gate {
	phase := complex(0.5, 0.5) // e^{iπ/4}/√2
	w01 := complex(sqrt1_2, -sqrt1_2)
	w10 := complex(sqrt1_2, sqrt1_2)
	return newSparse("sw", m2(
		phase, phase*(-1i)*w01,
		phase*(-1i)*w10, phase,
	), nil, offAnti1, q)
}

// RX returns exp(-iθX/2).
func RX(theta float64, q int) Gate {
	c := complex(math.Cos(theta/2), 0)
	s := complex(0, -math.Sin(theta/2))
	return newSparse("rx", m2(c, s, s, c), []float64{theta}, offAnti1, q)
}

// RY returns exp(-iθY/2).
func RY(theta float64, q int) Gate {
	c := complex(math.Cos(theta/2), 0)
	s := complex(math.Sin(theta/2), 0)
	return newSparse("ry", m2(c, -s, s, c), []float64{theta}, offAnti1, q)
}

// RZ returns exp(-iθZ/2) = diag(e^{-iθ/2}, e^{iθ/2}).
func RZ(theta float64, q int) Gate {
	return NewDiagonal("rz", m2(cmplx.Exp(complex(0, -theta/2)), 0, 0, cmplx.Exp(complex(0, theta/2))), []float64{theta}, q)
}

// P returns the phase gate diag(1, e^{iφ}).
func P(phi float64, q int) Gate {
	return NewDiagonal("p", m2(1, 0, 0, cmplx.Exp(complex(0, phi))), []float64{phi}, q)
}

// U3 returns the generic single-qubit rotation with Euler angles (θ, φ, λ).
func U3(theta, phi, lambda float64, q int) Gate {
	ct := complex(math.Cos(theta/2), 0)
	st := complex(math.Sin(theta/2), 0)
	return newSparse("u3", m2(
		ct, -cmplx.Exp(complex(0, lambda))*st,
		cmplx.Exp(complex(0, phi))*st, cmplx.Exp(complex(0, phi+lambda))*ct,
	), []float64{theta, phi, lambda}, offAnti1, q)
}

// --- two-qubit gates ---

// permutationMatrix builds a 2^k×2^k matrix from a classical bit permutation
// f: input basis index -> output basis index.
func permutationMatrix(k int, f func(int) int) *cmat.Matrix {
	dim := 1 << k
	m := cmat.New(dim, dim)
	for in := 0; in < dim; in++ {
		m.Set(f(in), in, 1)
	}
	return m
}

// CNOT returns the controlled-X gate with the given control and target.
// Matrix bit 0 is the control, bit 1 the target.
func CNOT(control, target int) Gate {
	m := permutationMatrix(2, func(in int) int {
		c := in & 1
		t := (in >> 1) & 1
		if c == 1 {
			t ^= 1
		}
		return c | t<<1
	})
	return newSparse("cx", m, nil, offCtl, control, target)
}

// CZ returns the controlled-Z gate (symmetric in its qubits).
func CZ(a, b int) Gate {
	m := cmat.Identity(4)
	m.Set(3, 3, -1)
	return NewDiagonal("cz", m, nil, a, b)
}

// CPhase returns the controlled-phase gate diag(1,1,1,e^{iφ}).
func CPhase(phi float64, a, b int) Gate {
	m := cmat.Identity(4)
	m.Set(3, 3, cmplx.Exp(complex(0, phi)))
	return NewDiagonal("cp", m, []float64{phi}, a, b)
}

// SWAP returns the swap gate; its Schmidt rank across any bipartition
// separating its qubits is 4.
func SWAP(a, b int) Gate {
	m := permutationMatrix(2, func(in int) int {
		return (in&1)<<1 | (in>>1)&1
	})
	return newSparse("swap", m, nil, offMid, a, b)
}

// ISWAP returns the iSWAP gate (swap with an i phase on the exchanged
// states); Schmidt rank 4.
func ISWAP(a, b int) Gate {
	m := cmat.New(4, 4)
	m.Set(0, 0, 1)
	m.Set(3, 3, 1)
	m.Set(1, 2, 1i)
	m.Set(2, 1, 1i)
	return newSparse("iswap", m, nil, offMid, a, b)
}

// RZZ returns exp(-iθ Z⊗Z / 2), the entangler of QAOA problem layers. It is
// diagonal, commutes with every other RZZ/RZ/CZ gate, and has Schmidt rank 2
// for any θ that is not a multiple of π.
func RZZ(theta float64, a, b int) Gate {
	em := cmplx.Exp(complex(0, -theta/2))
	ep := cmplx.Exp(complex(0, theta/2))
	m := cmat.New(4, 4)
	m.Set(0, 0, em) // |00>: ZZ=+1
	m.Set(1, 1, ep) // |01>: ZZ=-1
	m.Set(2, 2, ep) // |10>: ZZ=-1
	m.Set(3, 3, em) // |11>: ZZ=+1
	return NewDiagonal("rzz", m, []float64{theta}, a, b)
}

// RXX returns exp(-iθ X⊗X / 2).
func RXX(theta float64, a, b int) Gate {
	c := complex(math.Cos(theta/2), 0)
	s := complex(0, -math.Sin(theta/2))
	m := cmat.New(4, 4)
	for i := 0; i < 4; i++ {
		m.Set(i, i, c)
		m.Set(i, 3-i, s)
	}
	return newSparse("rxx", m, []float64{theta}, offAnti2, a, b)
}

// RYY returns exp(-iθ Y⊗Y / 2).
func RYY(theta float64, a, b int) Gate {
	c := complex(math.Cos(theta/2), 0)
	s := complex(0, -math.Sin(theta/2))
	m := cmat.New(4, 4)
	m.Set(0, 0, c)
	m.Set(1, 1, c)
	m.Set(2, 2, c)
	m.Set(3, 3, c)
	m.Set(0, 3, -s)
	m.Set(3, 0, -s)
	m.Set(1, 2, s)
	m.Set(2, 1, s)
	return newSparse("ryy", m, []float64{theta}, offAnti2, a, b)
}

// FSim returns the fermionic-simulation gate used by Google's processors:
// a partial iSWAP by angle θ plus a conditional phase φ on |11>.
func FSim(theta, phi float64, a, b int) Gate {
	m := cmat.New(4, 4)
	m.Set(0, 0, 1)
	m.Set(1, 1, complex(math.Cos(theta), 0))
	m.Set(2, 2, complex(math.Cos(theta), 0))
	m.Set(1, 2, complex(0, -math.Sin(theta)))
	m.Set(2, 1, complex(0, -math.Sin(theta)))
	m.Set(3, 3, cmplx.Exp(complex(0, -phi)))
	return newSparse("fsim", m, []float64{theta, phi}, offMid, a, b)
}

// CRX returns the controlled-RX gate: RX(θ) on the target when the control
// (bit 0) is set.
func CRX(theta float64, control, target int) Gate {
	return controlled1q("crx", RX(theta, 0).Matrix, []float64{theta}, control, target)
}

// CRY returns the controlled-RY gate.
func CRY(theta float64, control, target int) Gate {
	return controlled1q("cry", RY(theta, 0).Matrix, []float64{theta}, control, target)
}

// CRZ returns the controlled-RZ gate.
func CRZ(theta float64, control, target int) Gate {
	return controlled1q("crz", RZ(theta, 0).Matrix, []float64{theta}, control, target)
}

// controlled1q embeds |0><0|⊗I + |1><1|⊗U with the control on bit 0.
func controlled1q(name string, u *cmat.Matrix, params []float64, control, target int) Gate {
	m := cmat.New(4, 4)
	m.Set(0, 0, 1)
	m.Set(2, 2, 1)
	m.Set(1, 1, u.At(0, 0))
	m.Set(1, 3, u.At(0, 1))
	m.Set(3, 1, u.At(1, 0))
	m.Set(3, 3, u.At(1, 1))
	return newSparse(name, m, params, offCtl, control, target)
}

// --- three-qubit gates ---

// CCX returns the Toffoli gate; bits 0 and 1 are controls, bit 2 the target.
func CCX(c1, c2, target int) Gate {
	m := permutationMatrix(3, func(in int) int {
		if in&1 == 1 && in&2 == 2 {
			return in ^ 4
		}
		return in
	})
	return newSparse("ccx", m, nil, offCCtl, c1, c2, target)
}

// CCZ returns the doubly-controlled Z gate.
func CCZ(a, b, c int) Gate {
	m := cmat.Identity(8)
	m.Set(7, 7, -1)
	return NewDiagonal("ccz", m, nil, a, b, c)
}
