// Package cmat provides dense complex linear algebra for quantum circuit
// simulation: matrices over complex128, Kronecker products, and a complex
// singular value decomposition built from scratch on the standard library.
//
// Matrices are stored in row-major order. Dimensions in this package are
// typically powers of two (operators on qubit registers), but nothing in the
// package requires that.
package cmat

import (
	"fmt"
	"math"
	"math/cmplx"
	"strings"
)

// Matrix is a dense, row-major complex matrix.
type Matrix struct {
	Rows, Cols int
	Data       []complex128
}

// New returns a zero matrix with the given shape. A matrix of at most 16
// entries — every one- and two-qubit gate — is one allocation, its entries
// stored behind its header.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("cmat: negative dimension %dx%d", rows, cols))
	}
	switch n := rows * cols; {
	case n <= 4:
		m := new(struct {
			Matrix
			data [4]complex128
		})
		m.Matrix = Matrix{Rows: rows, Cols: cols, Data: m.data[:n:n]}
		return &m.Matrix
	case n <= 16:
		m := new(struct {
			Matrix
			data [16]complex128
		})
		m.Matrix = Matrix{Rows: rows, Cols: cols, Data: m.data[:n:n]}
		return &m.Matrix
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]complex128, rows*cols)}
}

// FromSlice builds a matrix from a row-major slice. The slice is copied.
func FromSlice(rows, cols int, data []complex128) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("cmat: data length %d does not match %dx%d", len(data), rows, cols))
	}
	m := New(rows, cols)
	copy(m.Data, data)
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) complex128 { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v complex128) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// IsSquare reports whether m has equal row and column counts.
func (m *Matrix) IsSquare() bool { return m.Rows == m.Cols }

// Mul returns the matrix product a·b.
func Mul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("cmat: dimension mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	c := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		crow := c.Data[i*b.Cols : (i+1)*b.Cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
	return c
}

// MulVec returns the matrix-vector product m·v.
func MulVec(m *Matrix, v []complex128) []complex128 {
	if m.Cols != len(v) {
		panic(fmt.Sprintf("cmat: dimension mismatch %dx%d · vec(%d)", m.Rows, m.Cols, len(v)))
	}
	out := make([]complex128, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var s complex128
		for j, rv := range row {
			s += rv * v[j]
		}
		out[i] = s
	}
	return out
}

// Kron returns the Kronecker product a ⊗ b.
// The result has entry (a⊗b)[i_a·Rb+i_b, j_a·Cb+j_b] = a[i_a,j_a]·b[i_b,j_b],
// i.e. a occupies the high-order index bits.
func Kron(a, b *Matrix) *Matrix {
	c := New(a.Rows*b.Rows, a.Cols*b.Cols)
	for ia := 0; ia < a.Rows; ia++ {
		for ja := 0; ja < a.Cols; ja++ {
			av := a.At(ia, ja)
			if av == 0 {
				continue
			}
			for ib := 0; ib < b.Rows; ib++ {
				ci := (ia*b.Rows + ib) * c.Cols
				bi := ib * b.Cols
				for jb := 0; jb < b.Cols; jb++ {
					c.Data[ci+ja*b.Cols+jb] = av * b.Data[bi+jb]
				}
			}
		}
	}
	return c
}

// Add returns a + b.
func Add(a, b *Matrix) *Matrix {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("cmat: Add dimension mismatch")
	}
	c := New(a.Rows, a.Cols)
	for i, v := range a.Data {
		c.Data[i] = v + b.Data[i]
	}
	return c
}

// Sub returns a - b.
func Sub(a, b *Matrix) *Matrix {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("cmat: Sub dimension mismatch")
	}
	c := New(a.Rows, a.Cols)
	for i, v := range a.Data {
		c.Data[i] = v - b.Data[i]
	}
	return c
}

// Scale returns s·m.
func Scale(s complex128, m *Matrix) *Matrix {
	c := New(m.Rows, m.Cols)
	for i, v := range m.Data {
		c.Data[i] = s * v
	}
	return c
}

// Dagger returns the conjugate transpose m†.
func (m *Matrix) Dagger() *Matrix {
	c := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			c.Data[j*m.Rows+i] = cmplx.Conj(m.Data[i*m.Cols+j])
		}
	}
	return c
}

// Transpose returns the (non-conjugated) transpose of m.
func (m *Matrix) Transpose() *Matrix {
	c := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			c.Data[j*m.Rows+i] = m.Data[i*m.Cols+j]
		}
	}
	return c
}

// Conj returns the element-wise complex conjugate of m.
func (m *Matrix) Conj() *Matrix {
	c := New(m.Rows, m.Cols)
	for i, v := range m.Data {
		c.Data[i] = cmplx.Conj(v)
	}
	return c
}

// Trace returns the trace of a square matrix.
func (m *Matrix) Trace() complex128 {
	if !m.IsSquare() {
		panic("cmat: Trace of non-square matrix")
	}
	var t complex128
	for i := 0; i < m.Rows; i++ {
		t += m.Data[i*m.Cols+i]
	}
	return t
}

// FrobeniusNorm returns the Frobenius norm sqrt(Σ|m_ij|²).
func (m *Matrix) FrobeniusNorm() float64 {
	var s float64
	for _, v := range m.Data {
		s += real(v)*real(v) + imag(v)*imag(v)
	}
	return math.Sqrt(s)
}

// MaxAbsDiff returns max_ij |a_ij - b_ij|.
func MaxAbsDiff(a, b *Matrix) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("cmat: MaxAbsDiff dimension mismatch")
	}
	var d float64
	for i, v := range a.Data {
		if e := cmplx.Abs(v - b.Data[i]); e > d {
			d = e
		}
	}
	return d
}

// EqualTol reports whether all entries of a and b agree within tol.
func EqualTol(a, b *Matrix, tol float64) bool {
	return a.Rows == b.Rows && a.Cols == b.Cols && MaxAbsDiff(a, b) <= tol
}

// IsUnitary reports whether m†m = I within tol.
func (m *Matrix) IsUnitary(tol float64) bool {
	if !m.IsSquare() {
		return false
	}
	return EqualTol(Mul(m.Dagger(), m), Identity(m.Rows), tol)
}

// IsDiagonal reports whether all off-diagonal entries are below tol in
// magnitude.
func (m *Matrix) IsDiagonal(tol float64) bool {
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if i != j && cmplx.Abs(m.Data[i*m.Cols+j]) > tol {
				return false
			}
		}
	}
	return true
}

// Commutator returns ab - ba for square matrices of equal size.
func Commutator(a, b *Matrix) *Matrix {
	return Sub(Mul(a, b), Mul(b, a))
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%dx%d [\n", m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		sb.WriteString("  ")
		for j := 0; j < m.Cols; j++ {
			v := m.Data[i*m.Cols+j]
			fmt.Fprintf(&sb, "(%+.3f%+.3fi) ", real(v), imag(v))
		}
		sb.WriteString("\n")
	}
	sb.WriteString("]")
	return sb.String()
}
