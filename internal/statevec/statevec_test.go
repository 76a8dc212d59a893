package statevec

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"hsfsim/internal/cmat"
	"hsfsim/internal/gate"
)

const tol = 1e-10

// randomState returns a normalized random state on n qubits.
func randomState(rng *rand.Rand, n int) State {
	s := make(State, 1<<n)
	for i := range s {
		s[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	norm := complex(1/s.Norm(), 0)
	for i := range s {
		s[i] *= norm
	}
	return s
}

// randomGate builds a random unitary gate on k random distinct qubits of an
// n-qubit register.
func randomGate(rng *rand.Rand, n, k int) gate.Gate {
	perm := rng.Perm(n)
	qs := perm[:k]
	return gate.New("rand", randUnitary(rng, 1<<k), nil, qs...)
}

// randUnitary builds a Haar-ish random dim×dim unitary via Gram-Schmidt.
func randUnitary(rng *rand.Rand, dim int) *cmat.Matrix {
	m := cmat.New(dim, dim)
	for i := range m.Data {
		m.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	for j := 0; j < dim; j++ {
		for c := 0; c < j; c++ {
			var dot complex128
			for i := 0; i < dim; i++ {
				dot += cmplx.Conj(m.At(i, c)) * m.At(i, j)
			}
			for i := 0; i < dim; i++ {
				m.Set(i, j, m.At(i, j)-dot*m.At(i, c))
			}
		}
		var norm float64
		for i := 0; i < dim; i++ {
			v := m.At(i, j)
			norm += real(v)*real(v) + imag(v)*imag(v)
		}
		inv := complex(1/math.Sqrt(norm), 0)
		for i := 0; i < dim; i++ {
			m.Set(i, j, m.At(i, j)*inv)
		}
	}
	return m
}

func TestNewState(t *testing.T) {
	s := NewState(3)
	if len(s) != 8 || s[0] != 1 {
		t.Fatalf("bad initial state %v", s)
	}
	if s.NumQubits() != 3 {
		t.Fatal("NumQubits wrong")
	}
	if math.Abs(s.Norm()-1) > tol {
		t.Fatal("initial norm != 1")
	}
}

// TestBellState and TestGHZState pin the oracle State.ApplyGate on the
// textbook entangled states; TestOracleConventions covers what they cannot.
func TestBellState(t *testing.T) {
	s := NewState(2)
	h := gate.H(0)
	cx := gate.CNOT(0, 1)
	s.ApplyGate(&h)
	s.ApplyGate(&cx)
	want := complex(math.Sqrt2/2, 0)
	if cmplx.Abs(s[0]-want) > tol || cmplx.Abs(s[3]-want) > tol ||
		cmplx.Abs(s[1]) > tol || cmplx.Abs(s[2]) > tol {
		t.Fatalf("Bell state wrong: %v", s)
	}
}

func TestGHZState(t *testing.T) {
	n := 5
	s := NewState(n)
	h := gate.H(0)
	s.ApplyGate(&h)
	for q := 1; q < n; q++ {
		cx := gate.CNOT(q-1, q)
		s.ApplyGate(&cx)
	}
	want := complex(math.Sqrt2/2, 0)
	if cmplx.Abs(s[0]-want) > tol || cmplx.Abs(s[(1<<n)-1]-want) > tol {
		t.Fatalf("GHZ state wrong: s[0]=%v s[max]=%v", s[0], s[(1<<n)-1])
	}
}

// TestOracleConventions checks the oracle against hand-derived amplitudes
// where a kernel-style shortcut would go wrong: non-unitary cut terms (a
// projector and the raising operator |0⟩⟨1|), and a weighted 3-qubit shift
// on unsorted, non-adjacent qubits whose matrix index has Qubits[k] as bit k.
// The shift gate also carries classification flags that contradict its
// matrix, which the oracle must ignore.
func TestOracleConventions(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	const n = 6
	bit := func(i, q int) int { return i >> q & 1 }
	for _, tc := range []struct {
		name string
		m    [4]complex128
		want func(s State, i int) complex128 // amplitude i after the gate on qubit 3
	}{
		{"projector |1⟩⟨1|", [4]complex128{0, 0, 0, 1}, func(s State, i int) complex128 {
			return complex(float64(bit(i, 3)), 0) * s[i]
		}},
		{"raising |0⟩⟨1|", [4]complex128{0, 1, 0, 0}, func(s State, i int) complex128 {
			if bit(i, 3) == 1 {
				return 0
			}
			return s[i|1<<3]
		}},
	} {
		m := cmat.New(2, 2)
		copy(m.Data, tc.m[:])
		g := gate.New("cut-term", m, nil, 3)
		s := randomState(rng, n)
		got := s.Clone()
		got.ApplyGate(&g)
		for i := range got {
			if w := tc.want(s, i); cmplx.Abs(got[i]-w) > parityTol {
				t.Fatalf("%s: amplitude %d = %v, want %v", tc.name, i, got[i], w)
			}
		}
	}

	qs := []int{4, 0, 2}
	m := cmat.New(8, 8)
	for c := 0; c < 8; c++ {
		m.Set((c+1)%8, c, complex(float64(c+1), 0)) // |c⟩ → (c+1)·|c+1 mod 8⟩
	}
	g := gate.New("shift", m, nil, qs...)
	g.Diagonal, g.Controls = true, 7
	for x := 0; x < 1<<n; x++ {
		c := bit(x, 4) | bit(x, 0)<<1 | bit(x, 2)<<2
		r := (c + 1) % 8
		y := x&^(1<<4|1<<0|1<<2) | (r&1)<<4 | (r>>1&1)<<0 | (r>>2)<<2
		s := make(State, 1<<n)
		s[x] = 1
		s.ApplyGate(&g)
		for i := range s {
			w := complex128(0)
			if i == y {
				w = complex(float64(c+1), 0)
			}
			if s[i] != w {
				t.Fatalf("shift on %v from |%06b⟩: amplitude %06b = %v, want %v", qs, x, i, s[i], w)
			}
		}
	}
}

// TestApply1MatchesReference, TestApply2MatchesReference and
// TestApplyKMatchesReference hold Vector.ApplyGate to the oracle for random
// dense gates on random qubits of random-size registers.
func TestApply1MatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(5)
		g := randomGate(rng, n, 1)
		checkSoAParity(t, rng, &g, n)
	}
}

func TestApply2MatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(5)
		g := randomGate(rng, n, 2)
		checkSoAParity(t, rng, &g, n)
	}
}

func TestApplyKMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 15; trial++ {
		n := 3 + rng.Intn(4)
		k := 3
		if n > 3 && rng.Intn(2) == 0 {
			k = 4
		}
		if k > n {
			k = n
		}
		g := randomGate(rng, n, k)
		checkSoAParity(t, rng, &g, n)
	}
}

func TestDiagonalKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, g := range []gate.Gate{gate.RZ(0.7, 2), gate.RZZ(0.9, 1, 4), gate.CZ(0, 3), gate.CPhase(0.4, 2, 4), gate.CCZ(0, 2, 4), gate.CCZ(4, 1, 3)} {
		checkSoAParity(t, rng, &g, 5)
	}
}

func TestUnitaryPreservesNorm(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		v := FromComplex(randomState(rng, n))
		for i := 0; i < 5; i++ {
			g := randomGate(rng, n, 1+rng.Intn(min(n, 3)))
			v.ApplyGate(&g)
		}
		return math.Abs(v.Norm()-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestGateOrderNonCommuting(t *testing.T) {
	// HX|0> != XH|0>
	s1 := NewState(1)
	s2 := NewState(1)
	h, x := gate.H(0), gate.X(0)
	s1.ApplyGate(&h)
	s1.ApplyGate(&x)
	s2.ApplyGate(&x)
	s2.ApplyGate(&h)
	if MaxAbsDiff(s1, s2) < 0.1 {
		t.Fatal("HX and XH should differ on |0>")
	}
}

func TestKron(t *testing.T) {
	upper := State{1, 2}      // 1 qubit
	lower := State{3, 4}      // 1 qubit
	out := Kron(upper, lower) // index a<<1 | b
	want := State{3, 4, 6, 8}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("Kron = %v, want %v", out, want)
		}
	}
}

func TestKronOfStatesMatchesCircuit(t *testing.T) {
	// (H|0>) ⊗ (X|0>) over a 2-qubit register equals applying H(1), X(0).
	up := NewState(1)
	lo := NewState(1)
	h0 := gate.H(0)
	x0 := gate.X(0)
	up.ApplyGate(&h0)
	lo.ApplyGate(&x0)
	combined := Kron(up, lo)

	full := NewState(2)
	h1 := gate.H(1)
	full.ApplyGate(&h1)
	full.ApplyGate(&x0)
	if MaxAbsDiff(combined, full) > tol {
		t.Fatalf("Kron mismatch: %v vs %v", combined, full)
	}
}

func TestFidelity(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	s := randomState(rng, 4)
	if math.Abs(Fidelity(s, s)-1) > tol {
		t.Fatal("self-fidelity != 1")
	}
	o := s.Clone()
	// Orthogonalize o against s.
	var dot complex128
	for i := range s {
		dot += cmplx.Conj(s[i]) * o[i]
	}
	// o == s, so build an orthogonal state manually.
	o = make(State, len(s))
	o[0] = cmplx.Conj(s[1])
	o[1] = -cmplx.Conj(s[0])
	norm := complex(1/o.Norm(), 0)
	for i := range o {
		o[i] *= norm
	}
	var d2 complex128
	for i := range s {
		d2 += cmplx.Conj(s[i]) * o[i]
	}
	if f := Fidelity(s, o); math.Abs(f-real(d2)*real(d2)-imag(d2)*imag(d2)) > tol {
		t.Fatal("fidelity formula inconsistent")
	}
}

func TestEqualUpToGlobalPhase(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	s := randomState(rng, 3)
	phase := cmplx.Exp(1i * 0.8)
	p := s.Clone()
	for i := range p {
		p[i] *= phase
	}
	if !EqualUpToGlobalPhase(s, p, 1e-9) {
		t.Fatal("global phase copy not recognized")
	}
	q := randomState(rng, 3)
	if EqualUpToGlobalPhase(s, q, 1e-9) {
		t.Fatal("different states reported phase-equal")
	}
}

func TestLargeStateParallelPath(t *testing.T) {
	// Exercise the parallel branch (size above parallelThreshold).
	n := 16
	v := NewVector(n)
	h := gate.H(0)
	v.ApplyGate(&h)
	for q := 1; q < n; q++ {
		cx := gate.CNOT(q-1, q)
		v.ApplyGate(&cx)
	}
	want := complex(math.Sqrt2/2, 0)
	if cmplx.Abs(v.Amplitude(0)-want) > tol || cmplx.Abs(v.Amplitude(v.Len()-1)-want) > tol {
		t.Fatal("large GHZ state wrong")
	}
	if math.Abs(v.Norm()-1) > tol {
		t.Fatal("norm drifted")
	}
}

// BenchmarkApplyVec1Q20, BenchmarkApplyVec2Q20 and
// BenchmarkApplyVecDiagonalQ20 time one dense, one permutation and one
// diagonal gate on a 2^20-amplitude vector through the selected dispatch arm.

func BenchmarkApplyVec1Q20(b *testing.B) {
	v := NewVector(20)
	g := gate.H(7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v.ApplyGate(&g)
	}
}

func BenchmarkApplyVec2Q20(b *testing.B) {
	v := NewVector(20)
	g := gate.CNOT(3, 15)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v.ApplyGate(&g)
	}
}

func BenchmarkApplyVecDiagonalQ20(b *testing.B) {
	v := NewVector(20)
	g := gate.RZZ(0.4, 3, 15)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v.ApplyGate(&g)
	}
}

// BenchmarkKernelRot1PerQubit applies RX to every qubit of one hot 2^13
// tile — the sweep's tile — on every kernel arm and reports ns per
// amplitude: a per-run dispatch shows as a cliff at small q, where a run
// is 2^q amplitudes long.
func BenchmarkKernelRot1PerQubit(b *testing.B) {
	orig := KernelISA()
	defer func() {
		if err := SelectKernelISA(orig); err != nil {
			b.Fatalf("restoring arm %q: %v", orig, err)
		}
	}()
	const n = DefaultTileQubits
	v := FromComplex(randomState(rand.New(rand.NewSource(42)), n))
	for q := 0; q < n; q++ {
		g := gate.RX(0.3, q)
		for _, isa := range KernelISAs() {
			b.Run(fmt.Sprintf("q=%d/%s", q, isa), func(b *testing.B) {
				if err := SelectKernelISA(isa); err != nil {
					b.Fatal(err)
				}
				for i := 0; i < b.N; i++ {
					v.kernel1(&g, 0, 1<<(n-1))
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N<<n), "ns/amp")
			})
		}
	}
}

// BenchmarkLeafFold measures the HSF leaf fold at the benchmark's shapes —
// joint-sweep (2^14 amplitudes, 11-qubit lower halves), serve-plan (2^14,
// 10-qubit), the long rows of a 2^20 output (11-qubit) and joint-accum-par's
// diagonal tail, whose leaves fold into a 512-row table of 2^|Q| = 32
// columns — eight leaves per pass as the engine folds them (their weights
// already multiplied in, as emit leaves them), on every kernel arm this
// process has, and reports the time per leaf and the rate at 8·m flops per
// leaf.
func BenchmarkLeafFold(b *testing.B) {
	orig := KernelISA()
	defer func() {
		if err := SelectKernelISA(orig); err != nil {
			b.Fatalf("restoring arm %q: %v", orig, err)
		}
	}()
	rng := rand.New(rand.NewSource(41))
	for _, tc := range []struct{ m, nLower, k int }{{1 << 14, 11, 8}, {1 << 14, 10, 8}, {1 << 20, 11, 8}, {1 << 14, 5, 8}} {
		acc := MakeVector(tc.m)
		ups := make([]Vector, tc.k)
		los := make([]Vector, tc.k)
		var plain *Diagonal // nil: one class per row, the leaf fold
		for k := range los {
			ups[k] = FromComplex(randomState(rng, bits.Len(uint(tc.m))-1-tc.nLower))
			los[k] = FromComplex(randomState(rng, tc.nLower))
		}
		for _, isa := range KernelISAs() {
			b.Run(fmt.Sprintf("m=2^%d/nLower=%d/K=%d/%s", bits.Len(uint(tc.m))-1, tc.nLower, tc.k, isa), func(b *testing.B) {
				if err := SelectKernelISA(isa); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					plain.FoldRowsN(acc, 0, ups, los)
				}
				leaves := float64(b.N * tc.k)
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/leaves, "ns/leaf")
				b.ReportMetric(8*float64(tc.m)*leaves/float64(b.Elapsed().Nanoseconds()), "GFlop/s")
			})
		}
	}
}
