package statevec

import (
	"fmt"
	"math"

	"hsfsim/internal/cmat"
)

// ReducedDensityMatrix traces out all qubits except those in keep (sorted
// ascending) and returns the 2^k × 2^k density matrix of the kept
// subsystem. Exponential in both the state and the kept size; intended for
// small-subsystem diagnostics.
func (s State) ReducedDensityMatrix(keep []int) (*cmat.Matrix, error) {
	n := s.NumQubits()
	seen := make(map[int]bool, len(keep))
	for i, q := range keep {
		if q < 0 || q >= n {
			return nil, fmt.Errorf("statevec: kept qubit %d out of range", q)
		}
		if seen[q] {
			return nil, fmt.Errorf("statevec: duplicate kept qubit %d", q)
		}
		seen[q] = true
		if i > 0 && keep[i] <= keep[i-1] {
			return nil, fmt.Errorf("statevec: keep list must be sorted ascending")
		}
	}
	k := len(keep)
	if k == 0 || k >= n {
		return nil, fmt.Errorf("statevec: trivial subsystem of size %d", k)
	}
	rest := make([]int, 0, n-k)
	for q := 0; q < n; q++ {
		if !seen[q] {
			rest = append(rest, q)
		}
	}
	dimK := 1 << k
	rho := cmat.New(dimK, dimK)
	spread := func(bits int, qs []int) int {
		x := 0
		for j, q := range qs {
			x |= ((bits >> j) & 1) << q
		}
		return x
	}
	for e := 0; e < 1<<len(rest); e++ {
		env := spread(e, rest)
		for a := 0; a < dimK; a++ {
			xa := env | spread(a, keep)
			va := s[xa]
			if va == 0 {
				continue
			}
			for b := 0; b < dimK; b++ {
				xb := env | spread(b, keep)
				rho.Set(a, b, rho.At(a, b)+va*conj(s[xb]))
			}
		}
	}
	return rho, nil
}

func conj(v complex128) complex128 { return complex(real(v), -imag(v)) }

// Purity returns tr(ρ²) of the reduced state on keep: 1 for product states,
// 1/2^k for maximal mixing.
func (s State) Purity(keep []int) (float64, error) {
	rho, err := s.ReducedDensityMatrix(keep)
	if err != nil {
		return 0, err
	}
	return real(cmat.Mul(rho, rho).Trace()), nil
}

func rankOf(spec []float64, tol float64) int {
	if tol <= 0 {
		tol = 1e-10
	}
	if len(spec) == 0 || spec[0] == 0 {
		return 0
	}
	r := 0
	for _, sv := range spec {
		if sv > tol*spec[0] {
			r++
		}
	}
	return r
}

// SchmidtSpectrum computes the Schmidt coefficients of a pure state across
// the bipartition (qubits 0..nLower-1 | rest): the singular values of the
// state reshaped to a 2^{n_upper} × 2^{n_lower} matrix, filled straight from
// the split planes. Their squares are the eigenvalues of either reduced
// density matrix. This is the *state* analogue of the operator decomposition
// driving HSF cuts: a state produced by a circuit whose crossing gates have
// small joint rank has few Schmidt coefficients.
func (v Vector) SchmidtSpectrum(nLower int) ([]float64, error) {
	n := v.NumQubits()
	if nLower <= 0 || nLower >= n {
		return nil, fmt.Errorf("statevec: bipartition %d|%d invalid", nLower, n-nLower)
	}
	dimLo := 1 << nLower
	dimUp := 1 << (n - nLower)
	m := cmat.New(dimUp, dimLo)
	re, im := v.Re, v.Im
	for a := 0; a < dimUp; a++ {
		row := a << nLower
		for b := 0; b < dimLo; b++ {
			m.Set(a, b, complex(re[row|b], im[row|b]))
		}
	}
	svd, err := cmat.SVD(m)
	if err != nil {
		return nil, err
	}
	return svd.S, nil
}

// EntanglementEntropy returns the von Neumann entropy (in bits) of the
// reduced state across the bipartition: S = -Σ λ² log2 λ².
func (v Vector) EntanglementEntropy(nLower int) (float64, error) {
	spec, err := v.SchmidtSpectrum(nLower)
	if err != nil {
		return 0, err
	}
	var h float64
	for _, sv := range spec {
		p := sv * sv
		if p > 1e-15 {
			h -= p * math.Log2(p)
		}
	}
	return h, nil
}

// SchmidtRank returns the number of Schmidt coefficients above tol (state
// entanglement rank across the cut). tol ≤ 0 selects 1e-10.
func (v Vector) SchmidtRank(nLower int, tol float64) (int, error) {
	spec, err := v.SchmidtSpectrum(nLower)
	if err != nil {
		return 0, err
	}
	return rankOf(spec, tol), nil
}
