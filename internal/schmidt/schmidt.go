// Package schmidt implements the Schmidt decomposition of quantum operators
// across a qubit bipartition (paper Sec. IV-A): the operator matrix is
// reshaped so that the row index collects the lower-partition in/out indices
// and the column index the upper-partition ones, an SVD is performed, and the
// factors are absorbed into per-partition operators, yielding
//
//	A = Σ_m σ_m · X_m ⊗ Y_m
//
// with X_m acting on the upper partition, Y_m on the lower partition, and the
// number of terms equal to the Schmidt rank r ≤ min(4^{n_a}, 4^{n_b}). A
// diagonal operator needs only the SVD of its 2^{n_b} × 2^{n_a} phase matrix
// (DecomposeDiagonal).
package schmidt

import (
	"fmt"
	"math"

	"hsfsim/internal/cmat"
)

// DefaultTol is the relative singular-value threshold below which a Schmidt
// term is discarded as numerically zero.
const DefaultTol = 1e-10

// Term is one summand of a Schmidt decomposition. Upper has dimension
// 2^{n_a} × 2^{n_a}, Lower 2^{n_b} × 2^{n_b}. Neither factor needs to be
// unitary (cf. the projector decomposition of a CNOT in paper Ex. 2).
type Term struct {
	Sigma float64
	Upper *cmat.Matrix // X_m: acts on the upper partition (high bits)
	Lower *cmat.Matrix // Y_m: acts on the lower partition (low bits)
}

// Decomposition is the full result of a Schmidt decomposition.
type Decomposition struct {
	Terms          []Term
	NumLower       int // n_b: qubits in the lower partition (low bits)
	NumUpper       int // n_a: qubits in the upper partition (high bits)
	SingularValues []float64
	// Diagonal records that every factor is a diagonal matrix with exact
	// zeros off its diagonal, as DecomposeDiagonal builds them.
	Diagonal bool
}

// Rank returns the number of retained terms (the Schmidt rank).
func (d *Decomposition) Rank() int { return len(d.Terms) }

// MaxRank returns the theoretical rank bound min(4^{n_a}, 4^{n_b}) from
// paper Sec. IV-B (Nielsen et al. 2003).
func MaxRank(nLower, nUpper int) int {
	a := 1 << (2 * nUpper)
	b := 1 << (2 * nLower)
	if a < b {
		return a
	}
	return b
}

// Decompose computes the Schmidt decomposition of op, an operator on
// nLower+nUpper qubits whose matrix index uses bits [0,nLower) for the lower
// partition and [nLower, nLower+nUpper) for the upper partition. Terms with
// σ ≤ tol·σ_max are dropped; tol ≤ 0 selects DefaultTol.
func Decompose(op *cmat.Matrix, nLower, nUpper int, tol float64) (*Decomposition, error) {
	svd, err := reshapedSVD(op, nLower, nUpper)
	if err != nil {
		return nil, err
	}
	return termsFromSVD(svd, nLower, nUpper, tol), nil
}

// reshapedSVD is the SVD of op's reshape across the bipartition, whose
// singular values are the Schmidt coefficients.
func reshapedSVD(op *cmat.Matrix, nLower, nUpper int) (*cmat.SVDResult, error) {
	n := nLower + nUpper
	dim := 1 << n
	if op.Rows != dim || op.Cols != dim {
		return nil, fmt.Errorf("schmidt: operator is %dx%d, want %dx%d for %d qubits", op.Rows, op.Cols, dim, dim, n)
	}
	if nLower == 0 || nUpper == 0 {
		return nil, fmt.Errorf("schmidt: trivial bipartition (%d, %d)", nLower, nUpper)
	}
	dimLo := 1 << nLower
	dimUp := 1 << nUpper

	// Reshape: Ã[(i_b, j_b), (i_a, j_a)] = A[i, j] with i = i_a·dimLo + i_b.
	rows := dimLo * dimLo
	cols := dimUp * dimUp
	reshaped := cmat.New(rows, cols)
	for ia := 0; ia < dimUp; ia++ {
		for ib := 0; ib < dimLo; ib++ {
			i := ia*dimLo + ib
			for ja := 0; ja < dimUp; ja++ {
				for jb := 0; jb < dimLo; jb++ {
					j := ja*dimLo + jb
					reshaped.Set(ib*dimLo+jb, ia*dimUp+ja, op.At(i, j))
				}
			}
		}
	}

	svd, err := cmat.SVD(reshaped)
	if err != nil {
		return nil, fmt.Errorf("schmidt: %w", err)
	}
	return svd, nil
}

// DecomposeDiagonal computes the Schmidt decomposition of the diagonal
// operator Σ_i diag[i]·|i⟩⟨i| (index bits as in Decompose) from the SVD of its
// 2^nLower × 2^nUpper phase matrix d[i_b, i_a] = diag[i_a·2^nLower + i_b].
// The full reshape of a diagonal operator is that matrix padded with zero rows
// and columns, so the singular values are those Decompose finds (Ufrecht et
// al., "Optimal joint cutting of two-qubit rotation gates"); the factors are
// diagonal with exact zeros elsewhere.
func DecomposeDiagonal(diag []complex128, nLower, nUpper int, tol float64) (*Decomposition, error) {
	svd, err := phaseSVD(diag, nLower, nUpper)
	if err != nil {
		return nil, err
	}
	d := termsFromSVD(svd, nLower, nUpper, tol)
	d.Diagonal = true
	return d, nil
}

// DiagonalSchmidtRank returns the rank DecomposeDiagonal finds, without
// building the factors.
func DiagonalSchmidtRank(diag []complex128, nLower, nUpper int, tol float64) (int, error) {
	svd, err := phaseSVD(diag, nLower, nUpper)
	if err != nil {
		return 0, err
	}
	return svd.Rank(resolveTol(tol)), nil
}

// phaseSVD is the SVD of a diagonal operator's phase matrix.
func phaseSVD(diag []complex128, nLower, nUpper int) (*cmat.SVDResult, error) {
	if len(diag) != 1<<(nLower+nUpper) {
		return nil, fmt.Errorf("schmidt: diagonal has %d entries, want %d for %d qubits", len(diag), 1<<(nLower+nUpper), nLower+nUpper)
	}
	if nLower == 0 || nUpper == 0 {
		return nil, fmt.Errorf("schmidt: trivial bipartition (%d, %d)", nLower, nUpper)
	}
	dimLo := 1 << nLower
	dimUp := 1 << nUpper
	phase := cmat.New(dimLo, dimUp)
	for ia := 0; ia < dimUp; ia++ {
		for ib := 0; ib < dimLo; ib++ {
			phase.Data[ib*dimUp+ia] = diag[ia*dimLo+ib]
		}
	}
	svd, err := cmat.SVD(phase)
	if err != nil {
		return nil, fmt.Errorf("schmidt: %w", err)
	}
	return svd, nil
}

// resolveTol maps tol ≤ 0 to DefaultTol.
func resolveTol(tol float64) float64 {
	if tol <= 0 {
		return DefaultTol
	}
	return tol
}

// termsFromSVD absorbs the SVD of a reshaped operator into Schmidt terms:
// column m of U unfolds into Y_m and the conjugate of column m of V (row m of
// V†) into X_m. Terms with σ ≤ tol·σ_max are dropped; tol ≤ 0 selects
// DefaultTol.
func termsFromSVD(svd *cmat.SVDResult, nLower, nUpper int, tol float64) *Decomposition {
	d := &Decomposition{NumLower: nLower, NumUpper: nUpper, SingularValues: svd.S}
	d.Terms = make([]Term, svd.Rank(resolveTol(tol)))
	for m := range d.Terms {
		d.Terms[m] = Term{
			Sigma: svd.S[m],
			Upper: unfold(svd.V, m, 1<<nUpper, true),
			Lower: unfold(svd.U, m, 1<<nLower, false),
		}
	}
	return d
}

// unfold lays column m of u out as a dim×dim operator: a column of dim²
// entries is the operator row by row (full reshape), one of dim entries its
// diagonal (phase matrix).
func unfold(u *cmat.Matrix, m, dim int, conj bool) *cmat.Matrix {
	out := cmat.New(dim, dim)
	stride := 1
	if u.Rows == dim {
		stride = dim + 1
	}
	for k := 0; k < u.Rows; k++ {
		v := u.Data[k*u.Cols+m]
		if conj {
			v = complex(real(v), -imag(v))
		}
		out.Data[k*stride] = v
	}
	return out
}

// Reconstruct recomputes Σ σ_m X_m ⊗ Y_m for verification.
func (d *Decomposition) Reconstruct() *cmat.Matrix {
	dim := 1 << (d.NumLower + d.NumUpper)
	out := cmat.New(dim, dim)
	for _, t := range d.Terms {
		out = cmat.Add(out, cmat.Scale(complex(t.Sigma, 0), cmat.Kron(t.Upper, t.Lower)))
	}
	return out
}

// ReconstructionError returns max |op - Σ σ X⊗Y| entry-wise.
func (d *Decomposition) ReconstructionError(op *cmat.Matrix) float64 {
	return cmat.MaxAbsDiff(op, d.Reconstruct())
}

// OperatorSchmidtRank computes just the Schmidt rank of op across the given
// bipartition, without building the term matrices.
func OperatorSchmidtRank(op *cmat.Matrix, nLower, nUpper int, tol float64) (int, error) {
	svd, err := reshapedSVD(op, nLower, nUpper)
	if err != nil {
		return 0, err
	}
	return svd.Rank(resolveTol(tol)), nil
}

// WeightedNorm returns sqrt(Σ σ_m²); for a unitary on n qubits this equals
// 2^{n/2}·... — more precisely it equals the Frobenius norm of the operator,
// a useful sanity invariant.
func (d *Decomposition) WeightedNorm() float64 {
	var s float64
	for _, t := range d.Terms {
		s += t.Sigma * t.Sigma
	}
	return math.Sqrt(s)
}
