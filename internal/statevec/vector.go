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

// AccumulateKron adds coeff · (up ⊗ lo) to the first acc.Len() amplitudes of
// acc, acc[a<<nLower|b] += coeff·up[a]·lo[b]: one axpy of lo per row a, with
// coeff·up[a] as its factor. It is the per-row reference of the leaf fold
// (Diagonal.FoldRowsN with a nil D over rows weighted at emit).
func AccumulateKron(acc Vector, coeff complex128, up, lo Vector, nLower int) {
	for a, x0 := 0, 0; x0 < acc.Len(); a, x0 = a+1, x0+1<<nLower {
		n, u := min(1<<nLower, acc.Len()-x0), coeff*up.Amplitude(a) // the last row may be short
		ops.axpy(acc.Re[x0:x0+n], acc.Im[x0:x0+n], lo.Re[:n], lo.Im[:n], real(u), imag(u))
	}
}
