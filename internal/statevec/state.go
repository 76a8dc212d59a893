// Package statevec implements Schrödinger-style statevector simulation: the
// full 2^n amplitude array with in-place k-qubit gate application. It is the
// kernel shared by the Schrödinger baseline and the per-path subcircuit
// simulations of the HSF engine, mirroring the role qsim plays in the paper.
//
// Vector — split real/imag float64 planes (SoA) driven by the
// startup-selected span kernels in soa.go — is the one amplitude layout every
// simulation runs on. State ([]complex128) is the interleaved conversion type
// at API edges plus a dense-matvec oracle the kernel parity suites check
// Vector against. See DESIGN.md § "Amplitude layout".
package statevec

import (
	"fmt"
	"math"
	"math/cmplx"

	"hsfsim/internal/gate"
)

// State is a quantum statevector with 2^n amplitudes for an n-qubit register.
// Amplitude index bit k is the value of qubit k (qubit 0 least significant).
//
// State is the interleaved-complex conversion type: the execution engine
// stores amplitudes as split real/imag planes (Vector) and only converts at
// public boundaries (FromComplex/Vector.ToComplex). Its ApplyGate is the
// parity oracle, not a kernel — simulation code applies gates to a Vector.
type State []complex128

// NewState returns the all-zeros computational basis state |0...0> on n
// qubits.
func NewState(n int) State {
	if n < 0 || n > 62 {
		panic(fmt.Sprintf("statevec: invalid qubit count %d", n))
	}
	s := make(State, 1<<n)
	s[0] = 1
	return s
}

// NumQubits returns n for a state of length 2^n.
func (s State) NumQubits() int {
	n := 0
	for 1<<n < len(s) {
		n++
	}
	return n
}

// Clone returns a copy of the state.
func (s State) Clone() State {
	c := make(State, len(s))
	copy(c, s)
	return c
}

// Norm returns the 2-norm of the state (1 for a normalized state).
func (s State) Norm() float64 {
	var sum float64
	for _, a := range s {
		sum += real(a)*real(a) + imag(a)*imag(a)
	}
	return math.Sqrt(sum)
}

// ApplyGate applies g to the state in place as a plain dense matvec: for each
// of the 2^(n−k) base indices with every gate qubit clear, gather the 2^k
// amplitudes the gate addresses, multiply by g.Matrix, and scatter back.
// Qubits[j] is bit j of the matrix index. It is the oracle the Vector kernels
// are checked against, so it reads only g.Qubits and g.Matrix — no structure
// flags, no cached kernel plan, no parallel split — and shares no code with
// them.
func (s State) ApplyGate(g *gate.Gate) {
	kdim := 1 << len(g.Qubits)
	off := make([]int, kdim) // off[t]: matrix index t spread over the qubits
	mask := 0
	for j, q := range g.Qubits {
		mask |= 1 << q
		for t := range off {
			off[t] |= (t >> j & 1) << q
		}
	}
	m := g.Matrix.Data
	in := make([]complex128, kdim)
	for base := range s {
		if base&mask != 0 {
			continue
		}
		for t, o := range off {
			in[t] = s[base|o]
		}
		for t, o := range off {
			var acc complex128
			for u, x := range m[t*kdim : (t+1)*kdim] {
				acc += x * in[u]
			}
			s[base|o] = acc
		}
	}
}

// ApplyAll applies a sequence of gates in order.
func (s State) ApplyAll(gs []gate.Gate) {
	for i := range gs {
		s.ApplyGate(&gs[i])
	}
}

// Probability returns |s[i]|².
func (s State) Probability(i int) float64 {
	a := s[i]
	return real(a)*real(a) + imag(a)*imag(a)
}

// Fidelity returns |<s|t>|² for two states of equal dimension.
func Fidelity(s, t State) float64 {
	if len(s) != len(t) {
		panic("statevec: Fidelity dimension mismatch")
	}
	var dot complex128
	for i := range s {
		dot += cmplx.Conj(s[i]) * t[i]
	}
	return real(dot)*real(dot) + imag(dot)*imag(dot)
}

// MaxAbsDiff returns max_i |s[i]-t[i]|.
func MaxAbsDiff(s, t State) float64 {
	if len(s) != len(t) {
		panic("statevec: MaxAbsDiff dimension mismatch")
	}
	var d float64
	for i := range s {
		if e := cmplx.Abs(s[i] - t[i]); e > d {
			d = e
		}
	}
	return d
}

// Kron returns the tensor product upper ⊗ lower: the resulting amplitude at
// index (a<<nLower | b) is upper[a]*lower[b]. This is the HSF reconstruction
// primitive (paper Sec. II-B).
func Kron(upper, lower State) State {
	out := make(State, len(upper)*len(lower))
	i := 0
	for _, ua := range upper {
		if ua == 0 {
			i += len(lower)
			continue
		}
		for _, lb := range lower {
			out[i] = ua * lb
			i++
		}
	}
	return out
}

// EqualUpToGlobalPhase reports whether s = e^{iφ}·t for some φ, within tol.
func EqualUpToGlobalPhase(s, t State, tol float64) bool {
	if len(s) != len(t) {
		return false
	}
	// Find the largest amplitude of s to fix the phase.
	best := 0
	bestAbs := 0.0
	for i := range s {
		if a := cmplx.Abs(s[i]); a > bestAbs {
			bestAbs = a
			best = i
		}
	}
	if bestAbs < tol {
		return MaxAbsDiff(s, t) < tol
	}
	if cmplx.Abs(t[best]) < tol {
		return false
	}
	phase := s[best] / t[best]
	phase /= complex(cmplx.Abs(phase), 0)
	for i := range s {
		if cmplx.Abs(s[i]-phase*t[i]) > tol {
			return false
		}
	}
	return true
}
