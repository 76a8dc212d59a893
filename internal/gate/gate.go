// Package gate defines the quantum gate library used throughout the
// simulator: a Gate couples a unitary matrix with the circuit qubits it acts
// on and bookkeeping (name, parameters, diagonality) needed by the cut
// planner and the fusion pass.
//
// Bit convention: Qubits[k] supplies bit k of the matrix index, i.e.
// Qubits[0] is the least significant bit. A gate on qubits [c, t] therefore
// has a 4×4 matrix indexed by (t<<1 | c).
package gate

import (
	"fmt"
	"math"
	"math/cmplx"
	"slices"
	"strings"

	"hsfsim/internal/cmat"
)

// Gate is a k-qubit operation. The matrix is 2^k × 2^k with k = len(Qubits).
// Gates need not be unitary: the Schmidt-decomposed cut terms produced by HSF
// simulation (e.g. the projectors of a CNOT decomposition) reuse this type.
type Gate struct {
	// Name identifies the gate family (e.g. "h", "rzz", "fused", "cut-term").
	Name string
	// Qubits lists the circuit qubits the gate acts on; Qubits[k] is bit k of
	// the matrix index.
	Qubits []int
	// Params holds gate parameters (rotation angles), if any.
	Params []float64
	// Matrix is the 2^k×2^k operator in the bit convention above.
	Matrix *cmat.Matrix
	// Diagonal records that Matrix is diagonal, enabling cheap commutation
	// checks and faster application.
	Diagonal bool

	// Perm, when non-nil, records that Matrix is a (phase-)permutation:
	// exactly one nonzero entry per row and column, so column c maps basis
	// state |c> to PermPhase[c]·|Perm[c]> and the simulator can move
	// amplitudes instead of running a matvec. Like Diagonal it lives in
	// matrix-index space, so it is independent of qubit labels and survives
	// Clone/Remap unchanged.
	Perm []int
	// PermPhase holds the nonzero entry of each column when Perm is non-nil
	// and at least one entry differs from 1. A pure permutation (X, CNOT,
	// CCX, SWAP) has PermPhase == nil, letting kernels skip the multiply.
	PermPhase []complex128
	// Controls is a bitmask of matrix bit positions b on which the gate acts
	// as a control: the operator is the identity on the subspace where bit b
	// is 0 (both the columns and the rows of that subspace match the
	// identity). Kernels iterate only the control-satisfied amplitudes.
	Controls int

	// kernel caches a simulator-kernel precomputation for this gate (see
	// statevec.PrepareGate). It must be attached before the gate is shared
	// across goroutines — attachment is not synchronized — and is dropped by
	// Clone/Remap because it may depend on the qubit labels.
	kernel any
}

// KernelCache returns the precomputation attached with SetKernelCache, or nil.
func (g *Gate) KernelCache() any { return g.kernel }

// SetKernelCache attaches a simulator-kernel precomputation to the gate. Call
// it only while the gate is still owned by a single goroutine.
func (g *Gate) SetKernelCache(v any) { g.kernel = v }

// NumQubits returns the number of qubits the gate acts on.
func (g *Gate) NumQubits() int { return len(g.Qubits) }

// Validate checks internal consistency: matching matrix size, distinct
// qubits, and non-negative indices.
func (g *Gate) Validate() error {
	k := len(g.Qubits)
	if k == 0 {
		return fmt.Errorf("gate %q: no qubits", g.Name)
	}
	dim := 1 << k
	if g.Matrix == nil || g.Matrix.Rows != dim || g.Matrix.Cols != dim {
		return fmt.Errorf("gate %q: matrix is not %dx%d", g.Name, dim, dim)
	}
	for i, q := range g.Qubits {
		if q < 0 {
			return fmt.Errorf("gate %q: negative qubit %d", g.Name, q)
		}
		if slices.Contains(g.Qubits[:i], q) {
			return fmt.Errorf("gate %q: duplicate qubit %d", g.Name, q)
		}
	}
	return nil
}

// MaxQubit returns the largest qubit index the gate touches.
func (g *Gate) MaxQubit() int {
	m := 0
	for _, q := range g.Qubits {
		if q > m {
			m = q
		}
	}
	return m
}

// Touches reports whether the gate acts on qubit q.
func (g *Gate) Touches(q int) bool {
	for _, x := range g.Qubits {
		if x == q {
			return true
		}
	}
	return false
}

// SharesQubit reports whether g and h act on at least one common qubit.
func (g *Gate) SharesQubit(h *Gate) bool {
	for _, q := range g.Qubits {
		if h.Touches(q) {
			return true
		}
	}
	return false
}

// DiagonalOn reports whether the gate acts diagonally on matrix bit b (qubit
// Qubits[b]): the operator is block-diagonal in that qubit's computational
// basis, because the whole matrix is diagonal or because the bit is a
// control. It is the per-qubit input of circuit.Commute's structural rule.
func (g *Gate) DiagonalOn(b int) bool {
	return g.Diagonal || g.Controls>>b&1 != 0
}

// Clone returns a deep copy of the gate.
func (g *Gate) Clone() Gate {
	c := Gate{
		Name:     g.Name,
		Qubits:   append([]int(nil), g.Qubits...),
		Diagonal: g.Diagonal,
		Controls: g.Controls,
		Matrix:   g.Matrix.Clone(),
	}
	if g.Params != nil {
		c.Params = append([]float64(nil), g.Params...)
	}
	if g.Perm != nil {
		c.Perm = append([]int(nil), g.Perm...)
	}
	if g.PermPhase != nil {
		c.PermPhase = append([]complex128(nil), g.PermPhase...)
	}
	return c
}

// Remap returns a copy of the gate with each qubit q replaced by f(q).
// Used when extracting partition-local subcircuits in HSF simulation.
func (g *Gate) Remap(f func(int) int) Gate {
	c := g.Clone()
	for i, q := range c.Qubits {
		c.Qubits[i] = f(q)
	}
	return c
}

// Dagger returns the adjoint gate: the conjugate-transposed matrix with the
// kernel classification recomputed (a permutation inverts and its phases
// conjugate; diagonality and the control mask are preserved, but recomputing
// from the new matrix keeps the flags trustworthy by construction).
func (g *Gate) Dagger() Gate {
	c := g.Clone()
	c.Matrix = c.Matrix.Dagger()
	c.Reclassify()
	return c
}

// Reclassify recomputes Diagonal, Perm, PermPhase, and Controls from the
// current matrix and drops any attached kernel cache. It is for matrices of
// unknown structure — fusion output, Dagger, a gate built from a raw matrix
// with New — and after mutating Matrix in place. A matrix that passes the
// diagonal scan is classified from its diagonal alone (classify); any other
// is scanned for a permutation and for controls.
func (g *Gate) Reclassify() {
	if checkDiagonal(g.Matrix) {
		g.classify(nil)
		return
	}
	g.Diagonal = false
	g.Perm, g.PermPhase = checkPermutation(g.Matrix)
	g.Controls = checkControls(g.Matrix)
	g.kernel = nil
}

// classify sets the classification flags of a matrix that is known to be
// zero off its diagonal except, possibly, at the (row, column) positions in
// off: every other off-diagonal entry is an exact zero. It reads only the
// diagonal and those positions, with the nonzero rule the scans use, so it
// sets the flags Reclassify would: the library constructors and the
// planner's diagonal factors pass their structure here instead of having
// their matrices scanned. A non-nil off needs at most 8 rows.
//
// The control mask is one AND: bit b is a control exactly when every entry
// outside the bit-b-set block matches the identity, so every diagonal index
// whose entry is not 1 and both the row and the column of every nonzero
// off-diagonal entry must have bit b set.
func (g *Gate) classify(off [][2]int) {
	m := g.Matrix
	n := m.Rows
	controls := n - 1
	var rowBuf [8]int
	row := rowBuf[:0] // row of each column's one nonzero; -1 none, -2 several
	if off != nil {
		row = rowBuf[:n]
	}
	for i := range row {
		row[i] = -1
	}
	g.Diagonal = true
	for _, rc := range off {
		r, c := rc[0], rc[1]
		if nonzero(m.Data[r*n+c]) {
			g.Diagonal = false
			controls &= r & c
			if row[c] == -1 {
				row[c] = r
			} else {
				row[c] = -2
			}
		}
	}
	perm := true
	for i := 0; i < n; i++ {
		d := m.Data[i*(n+1)]
		if nonzero(d - 1) {
			controls &= i
		}
		switch {
		case off == nil:
			perm = perm && nonzero(d)
		case nonzero(d):
			perm = perm && row[i] == -1
			row[i] = i
		default:
			perm = perm && row[i] >= 0
		}
	}
	g.Controls = controls
	g.Perm, g.PermPhase, g.kernel = nil, nil, nil
	if !perm {
		return
	}
	if off != nil {
		// One nonzero per column; a permutation when they land on distinct
		// rows.
		seen := 0
		for _, r := range row {
			if seen&(1<<r) != 0 {
				return
			}
			seen |= 1 << r
		}
	}
	// Perm and PermPhase share one allocation up to four entries.
	var phase []complex128
	if n <= 4 {
		pp := new(struct {
			perm  [4]int
			phase [4]complex128
		})
		g.Perm, phase = pp.perm[:n:n], pp.phase[:n:n]
	} else {
		g.Perm = make([]int, n)
	}
	pure := true
	for c := range g.Perm {
		g.Perm[c] = c
		if off != nil {
			g.Perm[c] = row[c]
		}
		pure = pure && m.Data[g.Perm[c]*n+c] == 1
	}
	if pure {
		return
	}
	if phase == nil {
		phase = make([]complex128, n)
	}
	for c, r := range g.Perm {
		phase[c] = m.Data[r*n+c]
	}
	g.PermPhase = phase
}

// IsUnitary reports whether the gate matrix is unitary within tol.
func (g *Gate) IsUnitary(tol float64) bool { return g.Matrix.IsUnitary(tol) }

// Kind names the most specific simulator kernel class the gate's matrix
// structure admits; see Class.
type Kind int

const (
	// KindDense is the fallback: a full k-qubit matvec.
	KindDense Kind = iota
	// KindDiagonal multiplies each amplitude by a diagonal entry (CZ, RZZ,
	// CCZ, CRZ). Gates that are also controlled (nontrivial Controls mask)
	// touch only the control-satisfied amplitudes.
	KindDiagonal
	// KindPermutation moves amplitudes without arithmetic (X, CNOT, CCX,
	// SWAP).
	KindPermutation
	// KindPhasePermutation moves amplitudes with one multiply per move
	// (ISWAP, Y).
	KindPhasePermutation
	// KindControlled applies a dense sub-matrix on the non-control qubits,
	// iterating only the control-satisfied subspace (CRX, CRY, controlled-U).
	KindControlled
)

func (k Kind) String() string {
	switch k {
	case KindDiagonal:
		return "diagonal"
	case KindPermutation:
		return "permutation"
	case KindPhasePermutation:
		return "phase-permutation"
	case KindControlled:
		return "controlled"
	}
	return "dense"
}

// Class reports the kernel class the classification flags select, in
// dispatch priority order: diagonal beats permutation beats controlled beats
// dense. A gate may satisfy several structures at once (CZ is diagonal,
// controlled, and a phase-permutation); Class names the one the simulator's
// cheapest kernel uses.
func (g *Gate) Class() Kind {
	switch {
	case g.Diagonal:
		return KindDiagonal
	case g.Perm != nil && g.PermPhase == nil:
		return KindPermutation
	case g.Perm != nil:
		return KindPhasePermutation
	case g.Controls != 0:
		return KindControlled
	}
	return KindDense
}

// String renders a compact description like "rzz(0.500)[2 5]".
func (g Gate) String() string {
	var sb strings.Builder
	sb.WriteString(g.Name)
	if len(g.Params) > 0 {
		sb.WriteString("(")
		for i, p := range g.Params {
			if i > 0 {
				sb.WriteString(",")
			}
			fmt.Fprintf(&sb, "%.3f", p)
		}
		sb.WriteString(")")
	}
	fmt.Fprintf(&sb, "%v", g.Qubits)
	return sb.String()
}

// classifyTol is the entry threshold below which classification treats a
// matrix element as zero (and within which it treats an element as 1). It
// matches the tolerance the diagonal flag has always used, so specialized
// kernels drop exactly the entries the diagonal kernel already dropped.
const classifyTol = 1e-14

// nonzero reports cmplx.Abs(z) > classifyTol, calling math.Hypot only when
// z's components leave it open: |z| is at least the larger component and at
// most √2 times it, so a component above the tolerance decides true and
// components at most half of it decide false.
func nonzero(z complex128) bool {
	a := max(math.Abs(real(z)), math.Abs(imag(z)))
	switch {
	case a > classifyTol:
		return true
	case a <= classifyTol/2:
		return false
	}
	return cmplx.Abs(z) > classifyTol // NaN components land here too
}

// checkDiagonal computes the Diagonal flag from the matrix.
func checkDiagonal(m *cmat.Matrix) bool {
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if i != j && nonzero(m.At(i, j)) {
				return false
			}
		}
	}
	return true
}

// checkPermutation detects a (phase-)permutation matrix: exactly one nonzero
// per column landing on pairwise-distinct rows, which with one per column is
// at most one per row. It returns the column→row map and, when any nonzero
// differs from exactly 1, the per-column values; it allocates them only once
// the matrix has passed.
func checkPermutation(m *cmat.Matrix) ([]int, []complex128) {
	n := m.Rows
	for i := 0; i < n; i++ {
		col, row := 0, 0 // nonzeros in column i and in row i
		for j := 0; j < n && col < 2 && row < 2; j++ {
			if nonzero(m.At(j, i)) {
				col++
			}
			if nonzero(m.At(i, j)) {
				row++
			}
		}
		if col != 1 || row > 1 {
			return nil, nil
		}
	}
	perm := make([]int, n)
	var phase []complex128
	for c := 0; c < n; c++ {
		r := 0
		for !nonzero(m.At(r, c)) {
			r++
		}
		perm[c] = r
		if v := m.At(r, c); v != 1 && phase == nil {
			phase = make([]complex128, n)
			for k := range c {
				phase[k] = 1
			}
		}
		if phase != nil {
			phase[c] = m.At(r, c)
		}
	}
	return perm, phase
}

// checkControls returns the bitmask of matrix bit positions b on which the
// gate is a control: every row and column whose bit b is 0 must match the
// identity, so the operator leaves the bit-b=0 subspace untouched and never
// couples into it.
func checkControls(m *cmat.Matrix) int {
	n := m.Rows
	k := 0
	for 1<<k < n {
		k++
	}
	mask := 0
	for b := 0; b < k; b++ {
		bit := 1 << b
		ok := true
	scan:
		for r := 0; r < n; r++ {
			for c := 0; c < n; c++ {
				if r&bit != 0 && c&bit != 0 {
					continue // both in the control-on block: unconstrained
				}
				want := complex128(0)
				if r == c {
					want = 1
				}
				if nonzero(m.At(r, c) - want) {
					ok = false
					break scan
				}
			}
		}
		if ok {
			mask |= bit
		}
	}
	return mask
}

// New builds a gate from an explicit matrix of unknown structure, computing
// the kernel classification (diagonal flag, permutation structure, control
// mask) with Reclassify.
func New(name string, matrix *cmat.Matrix, params []float64, qubits ...int) Gate {
	g := Gate{Name: name, Qubits: qubits, Params: params, Matrix: matrix}
	g.Reclassify()
	return g
}

// NewDiagonal builds a gate from a matrix that is diagonal by construction —
// every off-diagonal entry an exact zero — and classifies it from its
// diagonal alone, as Reclassify would after scanning the rest.
func NewDiagonal(name string, matrix *cmat.Matrix, params []float64, qubits ...int) Gate {
	return newSparse(name, matrix, params, nil, qubits...)
}

// newSparse builds a library gate whose matrix can be nonzero off the
// diagonal only at the positions in off (see classify).
func newSparse(name string, matrix *cmat.Matrix, params []float64, off [][2]int, qubits ...int) Gate {
	g := Gate{Name: name, Qubits: qubits, Params: params, Matrix: matrix}
	g.classify(off)
	return g
}
