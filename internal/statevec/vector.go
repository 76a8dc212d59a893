package statevec

import (
	"fmt"
	"math"
	"unsafe"
)

// Vector is a statevector in split real/imaginary (structure-of-arrays)
// layout: amplitude i is complex(Re[i], Im[i]). This is the canonical storage
// of every hot path — the Schrödinger baseline, the HSF walker's pairs, the
// path-tree accumulators — because stride-1 sweeps over two flat []float64
// arrays are what the gate kernels (and the Go-assembly kernels planned
// behind the same seam) vectorize over; the interleaved State layout defeats
// that.
//
// The two slices always have equal length. Vector is a pair of slice
// headers: copying a Vector aliases the same storage, exactly like a slice.
// Conversions to and from the interleaved []complex128 layout happen only at
// API edges (FromComplex/ToComplex, the checkpoint encoder, Result
// amplitudes), never inside kernels.
type Vector struct {
	Re, Im []float64
}

// MakeVector returns a zeroed n-amplitude vector. The backing arrays are
// 64-byte aligned on builds that support it (see alignedFloats), so SIMD
// kernels can assume aligned loads on both planes.
func MakeVector(n int) Vector {
	if n < 0 {
		panic(fmt.Sprintf("statevec: invalid vector length %d", n))
	}
	return Vector{Re: alignedFloats(n), Im: alignedFloats(n)}
}

// MakeVectors returns count zeroed n-amplitude vectors carved from one
// allocation per plane, each starting one cache line past the end of the one
// before. Equal-size vectors a power of two apart put the same amplitude of
// every vector in one cache set, so a fold that reads many of them at one
// offset (the HSF engine's held tail nodes and their row tables) would evict
// its own lines; the line of padding spreads them over the sets.
func MakeVectors(count, n int) []Vector {
	stride := (n+7)&^7 + 8
	slab := MakeVector(count * stride)
	vs := make([]Vector, count)
	for i := range vs {
		vs[i] = slab.Slice(i*stride, i*stride+n)
	}
	return vs
}

// NewVector returns the all-zeros computational basis state |0...0> on n
// qubits in SoA layout — the Vector analogue of NewState.
func NewVector(nQubits int) Vector {
	if nQubits < 0 || nQubits > 62 {
		panic(fmt.Sprintf("statevec: invalid qubit count %d", nQubits))
	}
	v := MakeVector(1 << nQubits)
	v.Re[0] = 1
	return v
}

// NewProductVector returns the product state ⊗_q (qs[q][0]|0⟩ + qs[q][1]|1⟩)
// on len(qs) qubits. The first tile is built by doubling and every further
// tile written once as a multiple of it: a circuit's layer of leading 1-qubit
// gates costs one streaming write instead of one sweep per gate over |0…0⟩.
func NewProductVector(qs [][2]complex128) Vector {
	v := NewVector(len(qs))
	v.basisToProduct(qs)
	return v
}

// basisToProduct turns v, which holds |0…0⟩, into the product state qs.
func (v Vector) basisToProduct(qs [][2]complex128) {
	n := len(qs)
	tileQ := min(n, DefaultTileQubits)
	base := v.Slice(0, 1<<tileQ)
	for q, size := 0, 1; q < tileQ; q, size = q+1, size<<1 {
		lo, hi := base.Slice(0, size), base.Slice(size, 2*size)
		hi.CopyFrom(lo)
		ops.scale(hi.Re, hi.Im, real(qs[q][1]), imag(qs[q][1]))
		ops.scale(lo.Re, lo.Im, real(qs[q][0]), imag(qs[q][0]))
	}
	// Descending, so that tile 0 is still the unscaled base when read.
	for t := v.Len()>>tileQ - 1; t >= 0; t-- {
		c := complex(1, 0)
		for q := tileQ; q < n; q++ {
			c *= qs[q][t>>(q-tileQ)&1]
		}
		switch {
		case t == 0:
			ops.scale(base.Re, base.Im, real(c), imag(c))
		case c != 0:
			// The tile is still zero: adding c·base writes it.
			dst := v.Slice(t<<tileQ, (t+1)<<tileQ)
			ops.axpy(dst.Re, dst.Im, base.Re, base.Im, real(c), imag(c))
		}
	}
}

// imagPlane returns the upper half of dst's memory as len(dst) float64s: the
// imaginary plane of a register that sweeps inside its interleaved result.
func imagPlane(dst []complex128) []float64 {
	all := unsafe.Slice((*float64)(unsafe.Pointer(unsafe.SliceData(dst))), 2*len(dst))
	return all[len(dst):]
}

// FromComplex converts an interleaved amplitude slice into a freshly
// allocated SoA vector. It is the inbound edge conversion: call it once at an
// API boundary, not inside a loop.
func FromComplex(s []complex128) Vector {
	v := MakeVector(len(s))
	v.CopyFromComplex(s)
	return v
}

// Len returns the number of amplitudes.
func (v Vector) Len() int { return len(v.Re) }

// NumQubits returns n for a vector of length 2^n.
func (v Vector) NumQubits() int {
	n := 0
	for 1<<n < len(v.Re) {
		n++
	}
	return n
}

// Amplitude returns amplitude i as a complex128. This is the element-access
// compatibility API; kernels never use it — they sweep the planes directly.
func (v Vector) Amplitude(i int) complex128 {
	return complex(v.Re[i], v.Im[i])
}

// SetAmplitude stores a into amplitude i.
func (v Vector) SetAmplitude(i int, a complex128) {
	v.Re[i] = real(a)
	v.Im[i] = imag(a)
}

// Clear zeroes every amplitude in place.
func (v Vector) Clear() {
	clear(v.Re)
	clear(v.Im)
}

// SetBasis resets v to |0...0> in place.
func (v Vector) SetBasis() {
	v.Clear()
	v.Re[0] = 1
}

// Clone returns an independent copy.
func (v Vector) Clone() Vector {
	c := MakeVector(v.Len())
	c.CopyFrom(v)
	return c
}

// CopyFrom copies u's amplitudes into v (lengths must match).
func (v Vector) CopyFrom(u Vector) {
	copy(v.Re, u.Re)
	copy(v.Im, u.Im)
}

// Slice returns the sub-vector of amplitudes [lo, hi), sharing storage —
// the Vector analogue of s[lo:hi]. Cache-blocked segment sweeps tile with it.
func (v Vector) Slice(lo, hi int) Vector {
	return Vector{Re: v.Re[lo:hi], Im: v.Im[lo:hi]}
}

// CopyFromComplex fills v from an interleaved slice of the same length.
func (v Vector) CopyFromComplex(s []complex128) {
	re, im := v.Re, v.Im
	if len(s) != len(re) {
		panic("statevec: CopyFromComplex length mismatch")
	}
	for i, a := range s {
		re[i] = real(a)
		im[i] = imag(a)
	}
}

// ToComplex converts v into a freshly allocated interleaved State. It is the
// outbound edge conversion (Result amplitudes, checkpoint encoding).
func (v Vector) ToComplex() State {
	s := make(State, v.Len())
	v.CopyToComplex(s)
	return s
}

// CopyToComplex interleaves v into dst (lengths must match). It goes in
// ascending order and reads amplitude i before it writes dst[i], so a plane
// of v may lie in dst's memory as long as its entry i sits no lower than
// dst[i] does (CompiledSegment.ApplyLast).
func (v Vector) CopyToComplex(dst []complex128) {
	re, im := v.Re, v.Im
	if len(dst) != len(re) {
		panic("statevec: CopyToComplex length mismatch")
	}
	for i := range dst {
		dst[i] = complex(re[i], im[i])
	}
}

// AddToComplex adds v's amplitudes into dst: dst[i] += v[i]. The engine uses
// it to merge a worker's SoA scratch accumulator into the interleaved
// checkpoint accumulator at the merge (edge) boundary.
func (v Vector) AddToComplex(dst []complex128) {
	re, im := v.Re, v.Im
	if len(dst) != len(re) {
		panic("statevec: AddToComplex length mismatch")
	}
	for i := range dst {
		dst[i] += complex(re[i], im[i])
	}
}

// Norm returns the 2-norm of the vector.
func (v Vector) Norm() float64 {
	var sum float64
	re, im := v.Re, v.Im
	im = im[:len(re)]
	for i, r := range re {
		sum += r*r + im[i]*im[i]
	}
	return math.Sqrt(sum)
}

// Probability returns |v[i]|².
func (v Vector) Probability(i int) float64 {
	return v.Re[i]*v.Re[i] + v.Im[i]*v.Im[i]
}

// MaxAbsDiffVec returns max_i |a[i]-b[i]| for two vectors of equal length.
func MaxAbsDiffVec(a, b Vector) float64 {
	if a.Len() != b.Len() {
		panic("statevec: MaxAbsDiffVec dimension mismatch")
	}
	var d float64
	for i := range a.Re {
		dr := a.Re[i] - b.Re[i]
		di := a.Im[i] - b.Im[i]
		if e := math.Hypot(dr, di); e > d {
			d = e
		}
	}
	return d
}

// FoldKron adds Σ_k coeffs[k] · (ups[k] ⊗ los[k]) to the first acc.Len()
// amplitudes of acc: acc[a<<nLower|b] += coeffs[k]·ups[k][a]·los[k][b], the
// product Upᵀ·diag(coeffs)·Lo of K = len(coeffs) HSF leaves (ups and los may
// be longer). It reads ups[k][a] only for the ⌈acc.Len()/2^nLower⌉ rows acc
// has. On an arm with a fold body, whole rows of a multiple of 4 columns go
// in blocks of foldRows through the packed fold (foldBlocks); the other
// rows, a short last row among them, take one stride-1 complex AXPY per row
// and leaf. Either way every amplitude receives its leaves in slice order.
func FoldKron(acc Vector, coeffs []complex128, ups, los []Vector, nLower int) {
	m := acc.Len()
	if m == 0 {
		return
	}
	stride := 1 << nLower
	cols := min(stride, m)
	blocks := 0 // rows in whole blocks
	if ops.fold != foldNone && cols&3 == 0 {
		blocks = (m / cols) &^ (foldRows - 1)
	}
	if blocks > 0 {
		foldBlocks(acc, coeffs, ups, los, stride, cols, blocks)
	}
	for a := blocks; a<<nLower < m; a++ {
		x0 := a << nLower
		n := min(cols, m-x0) // the last row may be short
		for k, coeff := range coeffs {
			if ur, ui := rowCoeff(coeff, ups[k], a); ur != 0 || ui != 0 {
				ops.axpy(acc.Re[x0:x0+n], acc.Im[x0:x0+n], los[k].Re[:n], los[k].Im[:n], ur, ui)
			}
		}
	}
}

// foldBlocks is FoldKron's packed fold of its first rows rows, cols columns
// each, FoldChunk leaves per call. It packs the smaller of the two operands
// with the coefficients in, up to foldPanel of its rows or columns per call,
// and reads the other in place: with no more rows than columns the panel
// holds C = diag(coeffs)·Up, coeff_k·up_k[a] for the call's rows, and the
// call streams them once; otherwise it holds coeff_k·lo_k for the call's
// columns, and C is the ups themselves. A leaf whose coefficients are all
// zero on the call's rows is dropped and its lower half never read.
func foldBlocks(acc Vector, coeffs []complex128, ups, los []Vector, stride, cols, rows int) {
	var (
		panel [FoldChunk][2][foldPanel]float64
		c, lo [FoldChunk]Vector
	)
	byRows := rows <= cols
	span := cols
	if byRows {
		span = rows
	}
	for k0 := 0; k0 < len(coeffs); k0 += FoldChunk {
		for i0 := 0; i0 < span; i0 += foldPanel {
			w := min(foldPanel, span-i0)
			op := foldOp{acc: acc.Slice(i0, acc.Len()), stride: stride, n: w, blocks: rows / foldRows, cStride: 1}
			a0, a1 := 0, rows // the call's rows
			if byRows {
				op.acc, op.n, op.blocks = acc.Slice(i0*stride, acc.Len()), cols, w/foldRows
				a0, a1 = i0, i0+w
			}
			n := 0
			for k := k0; k < min(k0+FoldChunk, len(coeffs)); k++ {
				up := ups[k].Slice(a0, a1)
				if coeffs[k] == 0 || zeroRows(up) {
					continue
				}
				p := Vector{panel[n][0][:w], panel[n][1][:w]}
				if byRows {
					c[n], lo[n] = p, los[k]
					scaleInto(p, up, coeffs[k])
				} else {
					c[n], lo[n] = ups[k], p
					scaleInto(p, los[k].Slice(i0, i0+w), coeffs[k])
				}
				n++
			}
			if n > 0 {
				op.lo, op.c = lo[:n], c[:n]
				op.check()
				op.run()
			}
		}
	}
}

// foldPanel is the number of rows or columns one foldBlocks call packs at
// most: a multiple of foldRows and of 4, and small enough that the stack
// panel of FoldChunk leaves' operands stays 4 KiB.
const foldPanel = 32

// scaleInto sets dst to coeff·src amplitude by amplitude, with rowCoeff's
// arithmetic.
func scaleInto(dst, src Vector, coeff complex128) {
	cr, ci := real(coeff), imag(coeff)
	n := len(dst.Re)
	dr, di, sr, si := dst.Re[:n], dst.Im[:n], src.Re[:n], src.Im[:n]
	for i, r := range sr {
		m := si[i]
		dr[i], di[i] = cr*r-ci*m, cr*m+ci*r
	}
}

// zeroRows reports whether every amplitude of up is zero.
func zeroRows(up Vector) bool {
	for a := range up.Re {
		if up.Re[a] != 0 || up.Im[a] != 0 {
			return false
		}
	}
	return true
}

// rowCoeff returns the real and imaginary parts of coeff·up[a], the factor
// row a of a leaf's lower half is added with.
func rowCoeff(coeff complex128, up Vector, a int) (float64, float64) {
	cr, ci := real(coeff), imag(coeff)
	return cr*up.Re[a] - ci*up.Im[a], cr*up.Im[a] + ci*up.Re[a]
}

// AccumulateKron adds coeff · (up ⊗ lo) to the first acc.Len() amplitudes of
// acc: the one-leaf call of FoldKron.
func AccumulateKron(acc Vector, coeff complex128, up, lo Vector, nLower int) {
	FoldKron(acc, []complex128{coeff}, []Vector{up}, []Vector{lo}, nLower)
}
