package statevec

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"math/rand"
	"strings"
	"testing"

	"hsfsim/internal/cmat"
	"hsfsim/internal/gate"
)

// SoA parity suite: every Vector kernel arm against the dense-matvec oracle
// State.ApplyGate, in one hop. The kernel tables run under every arm this
// process has (forEachArm), and the whole suite again under `-tags purego`
// (scalar only) — CI runs both — so every dispatch path is held to the same
// 1e-12 bound.

// checkSoAParity applies g to the same random state through the Vector
// kernels and through the oracle and compares amplitudes.
func checkSoAParity(t *testing.T, rng *rand.Rand, g *gate.Gate, n int) {
	t.Helper()
	s := randomState(rng, n)
	want := s.Clone()
	want.ApplyGate(g)
	v := FromComplex(s)
	v.ApplyGate(g)
	for i := range want {
		if cmplx.Abs(v.Amplitude(i)-want[i]) > parityTol {
			t.Fatalf("%s on %v [%s arm]: amplitude %d: got %v want %v",
				g.Name, g.Qubits, KernelISA(), i, v.Amplitude(i), want[i])
		}
	}
}

// TestSoAKernel1Parity sweeps the five single-qubit arms over every qubit
// position of the register, so both the scalar fallback (low qubits, runs
// shorter than spanMin) and the span path (high qubits) are exercised.
func TestSoAKernel1Parity(t *testing.T) {
	forEachArm(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(21))
		const n = 9
		for q := 0; q < n; q++ {
			for iter := 0; iter < 5; iter++ {
				gates := []gate.Gate{
					gate.P(rng.Float64()*6, q),
					gate.RZ(rng.Float64()*6, q),
					gate.X(q),
					func() gate.Gate {
						m := cmat.New(2, 2)
						m.Set(1, 0, randPhase(rng))
						m.Set(0, 1, randPhase(rng))
						return gate.New("pp", m, nil, q)
					}(),
					gate.New("u", randUnitary(rng, 2), nil, q),
				}
				for i := range gates {
					checkSoAParity(t, rng, &gates[i], n)
				}
			}
		}
	})
}

// TestSoAKernel2Parity sweeps the two-qubit arms over ordered and swapped
// qubit pairs including adjacent low pairs (pure scalar), mixed (one span
// boundary), and high pairs (full span path).
func TestSoAKernel2Parity(t *testing.T) {
	forEachArm(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(22))
		const n = 9
		pairs := [][2]int{{0, 1}, {1, 0}, {0, n - 1}, {n - 1, 0}, {4, 7}, {n - 2, n - 1}}
		for iter := 0; iter < 8; iter++ {
			p := rng.Perm(n)
			pairs = append(pairs, [2]int{p[0], p[1]})
		}
		for _, pr := range pairs {
			q0, q1 := pr[0], pr[1]
			gates := []gate.Gate{
				randDiagGate(rng, 0, q0, q1),
				randDiagGate(rng, 1, q0, q1),
				randDiagGate(rng, 2, q0, q1),
				randDiagGate(rng, 3, q0, q1),
				gate.CNOT(q0, q1),
				gate.SWAP(q0, q1),
				gate.ISWAP(q0, q1),
				randPermGate(rng, false, q0, q1),
				randPermGate(rng, true, q0, q1),
				randCtrlGate(rng, 1, q0, q1),
				randCtrlGate(rng, 2, q0, q1),
				gate.New("u4", randUnitary(rng, 4), nil, q0, q1),
			}
			for i := range gates {
				checkSoAParity(t, rng, &gates[i], n)
			}
		}
	})
}

// TestSoAKernelKParity sweeps every k-qubit plan kind — diagonal, controlled
// diagonal, (phase-)permutation, controlled, sparse, dense — at k=3..5,
// through both the on-the-fly and the prepared (cached-plan) paths.
func TestSoAKernelKParity(t *testing.T) {
	forEachArm(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(23))
		const n = 10
		for _, k := range []int{3, 4, 5} {
			iters := 8
			if k == 5 {
				iters = 3 // 32×32 dense matvec; keep runtime bounded
			}
			for iter := 0; iter < iters; iter++ {
				perm := rng.Perm(n)
				qs := append([]int(nil), perm[:k]...)
				kdim := 1 << k
				gates := []gate.Gate{
					randDiagGate(rng, 0, qs...),
					randDiagGate(rng, 1<<rng.Intn(k), qs...),
					randDiagGate(rng, kdim-1, qs...), // CCZ-like: every bit a control
					randPermGate(rng, false, qs...),
					randPermGate(rng, true, qs...),
					randCtrlGate(rng, 1, qs...),
					randCtrlGate(rng, (kdim-1)&^2, qs...),
					randSparseGate(rng, qs...),
					gate.New(fmt.Sprintf("dense%d", k), randUnitary(rng, kdim), nil, qs...),
				}
				for i := range gates {
					checkSoAParity(t, rng, &gates[i], n)
					PrepareGate(&gates[i])
					checkSoAParity(t, rng, &gates[i], n)
				}
			}
		}
	})
}

// TestSoAParityParallel reruns a kernel zoo on a state crossing
// parallelThreshold, exercising the chunked parallelRange path of every
// Vector kernel (when the host has more than one core) on every arm.
func TestSoAParityParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("large state")
	}
	rng := rand.New(rand.NewSource(24))
	const n = 16
	gates := []gate.Gate{
		gate.P(0.8, 13),
		gate.RZ(0.4, 2),
		gate.X(11),
		gate.Y(6),
		gate.New("pp", func() *cmat.Matrix {
			m := cmat.New(2, 2)
			m.Set(1, 0, randPhase(rng))
			m.Set(0, 1, randPhase(rng))
			return m
		}(), nil, 9),
		gate.H(15),
		gate.CZ(3, 14),
		gate.CRZ(1.2, 0, 12),
		gate.CNOT(15, 0),
		gate.SWAP(1, 13),
		gate.ISWAP(5, 11),
		randCtrlGate(rng, 2, 1, 12),
		gate.New("u4", randUnitary(rng, 4), nil, 9, 2),
		gate.CCX(4, 10, 15),
		gate.CCZ(0, 7, 13),
		randCtrlGate(rng, 1, 2, 8, 14),
		randSparseGate(rng, 3, 9, 15),
		gate.New("dense3", randUnitary(rng, 8), nil, 6, 1, 11),
	}
	PrepareGates(gates)
	s := randomState(rng, n)
	want := s.Clone()
	want.ApplyAll(gates)
	forEachArm(t, func(t *testing.T) {
		v := FromComplex(s)
		v.ApplyAll(gates)
		for i := range want {
			if cmplx.Abs(v.Amplitude(i)-want[i]) > parityTol {
				t.Fatalf("amplitude %d: got %v want %v", i, v.Amplitude(i), want[i])
			}
		}
	})
}

// TestSoAApplyInlineMatchesApplyGate checks the Vector segment-sweep entry
// point (shared scratch, no parallel split) against the oracle's ApplyGate,
// with and without caller scratch, on every arm.
func TestSoAApplyInlineMatchesApplyGate(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	const n = 8
	gates := []gate.Gate{
		gate.H(0),
		gate.CNOT(0, 5),
		gate.CCX(1, 3, 6),
		randSparseGate(rng, 2, 4, 7),
		gate.New("dense3", randUnitary(rng, 8), nil, 0, 2, 5),
	}
	PrepareGates(gates)
	s := randomState(rng, n)
	oracle := s.Clone()
	oracle.ApplyAll(gates)
	want := FromComplex(oracle)
	forEachArm(t, func(t *testing.T) {
		got := FromComplex(s)
		_, scratch := getScratch(16)
		for i := range gates {
			got.applyInline(&gates[i], scratch)
		}
		got2 := FromComplex(s)
		for i := range gates {
			got2.applyInline(&gates[i], nil) // nil scratch borrows from the pool
		}
		if d := MaxAbsDiffVec(got, want); d > parityTol {
			t.Fatalf("inline diverges from the oracle: max diff %g", d)
		}
		if d := MaxAbsDiffVec(got2, want); d > parityTol {
			t.Fatalf("pooled inline diverges from the oracle: max diff %g", d)
		}
	})
}

// TestSoAPreparedKernelZeroAllocs: sequential Vector application of every
// prepared kernel kind must not allocate on any arm — the dense HSF walker
// applies every per-path gate through these kernels.
func TestSoAPreparedKernelZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops scratch buffers at random under the race detector")
	}
	rng := rand.New(rand.NewSource(26))
	const n = 10 // below parallelThreshold: sequential dispatch
	gates := []gate.Gate{
		gate.P(0.3, 4),
		gate.X(1),
		gate.Y(8),
		gate.CZ(2, 8),
		gate.CNOT(0, 9),
		gate.SWAP(3, 9),
		gate.CRX(0.5, 3, 7),
		gate.New("u4", randUnitary(rng, 4), nil, 2, 9),
		randDiagGate(rng, 0, 1, 4, 6),
		gate.CCZ(0, 4, 9),
		gate.CCX(1, 5, 8),
		randCtrlGate(rng, 1, 2, 6, 9),
		randSparseGate(rng, 0, 3, 7),
		gate.New("dense3", randUnitary(rng, 8), nil, 2, 5, 8),
	}
	PrepareGates(gates)
	v := FromComplex(randomState(rng, n))
	forEachArm(t, func(t *testing.T) {
		v.ApplyAll(gates) // warm the scratch pool
		for i := range gates {
			g := &gates[i]
			allocs := testing.AllocsPerRun(20, func() { v.ApplyGate(g) })
			if allocs != 0 {
				t.Errorf("%s: %v allocs/op, want 0", g.Name, allocs)
			}
		}
	})
}

// TestAccumulateKronParity pins the SoA leaf accumulate against the naive
// complex tensor accumulation, including a truncated accumulator
// (MaxAmplitudes cutting mid-block).
func TestAccumulateKronParity(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	const nLower, nUpper = 4, 3
	lo := randomState(rng, nLower)
	up := randomState(rng, nUpper)
	for _, m := range []int{1 << (nLower + nUpper), 100, 1 << nLower, 7} {
		coeff := complex(rng.NormFloat64(), rng.NormFloat64())
		want := make([]complex128, m)
		for i := range want {
			want[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		acc := FromComplex(want)
		for x := 0; x < m; x++ {
			want[x] += coeff * up[x>>nLower] * lo[x&(1<<nLower-1)]
		}
		AccumulateKron(acc, coeff, FromComplex(up), FromComplex(lo), nLower)
		for i := range want {
			if cmplx.Abs(acc.Amplitude(i)-want[i]) > parityTol {
				t.Fatalf("m=%d AccumulateKron amplitude %d: got %v want %v", m, i, acc.Amplitude(i), want[i])
			}
		}
	}
}

// TestFoldRowsNLeavesAllArms holds the leaf fold, FoldRowsN with a nil D over
// leaves whose weights emit has multiplied in, on every kernel arm and for
// both operands emit weights, against the naive complex tensor accumulation at
// 1e-12 and bit for bit (±0 counted equal) against one AccumulateKron call
// per leaf on the same weighted operands with coefficient 1: blocking may
// reorder work across amplitudes, never the operations one receives. Output lengths sit on and around one lower half, inside
// a row and at the full state, and give every remainder of a foldRows block,
// with a short last row inside one. Rows are 2^nLower columns wide: 2 is
// narrower than one YMM vector, 8 fills only the avx2 head of the avx512 arm,
// 16 is exactly one ZMM block, and the 32-column shape also takes every
// sub-row length from 17 to 31 and short last rows of 20 and 28 columns
// (other column remainders mod 16 reach the fold bodies only directly, in
// TestSpanPrimitivesAllArms). A sequence of leaves is folded K at a time, so
// unless K divides it the last batch is short, and K runs past FoldChunk. The
// 512-row shape of 32 columns is the diagonal tail's leaf fold (with 13 rows,
// and with a short 512th row, beside it), where emit weights the proxies; the
// 128-row shape of 64 columns has its 101st row short. Everything the fold
// has no business reading is NaN: the upper amplitudes past the
// accumulator's rows, the lower amplitudes past a sub-row output, and the
// table rows past the held leaves. One leaf is zero on the rows of one block
// only, and row 2 is zero for every leaf. An empty accumulator is a no-op, and
// the fold allocates nothing. (Dropping a leaf whose rows are all zero is
// emit's business: TestEmitDropsZeroLeaf.)
func TestFoldRowsNLeavesAllArms(t *testing.T) {
	orig := KernelISA()
	defer func() {
		if err := SelectKernelISA(orig); err != nil {
			t.Fatalf("restoring arm %q: %v", orig, err)
		}
	}()
	const (
		leaves   = 19
		partLeaf = 11 // zero on rows [foldRows, 2·foldRows)
		zeroRow  = 2  // zero for every leaf
	)
	shapes := []struct {
		nLower, nUpper int
		ms             []int
	}{
		{10, 3, []int{1, 1<<10 - 1, 1 << 10, 1<<10 + 1, 3<<10 + 1<<9 + 5, 1 << 13}},
		{6, 4, []int{3 << 6, 4<<6 + 17, 6 << 6, 6<<6 + 7, 9 << 6, 12<<6 + 33, 16 << 6}},
		{5, 3, []int{17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 4<<5 + 20, 5<<5 + 28, 8 << 5}},
		{4, 3, []int{4 << 4, 5<<4 + 9, 8 << 4}},
		{3, 4, []int{4 << 3, 7<<3 + 5, 16 << 3}},
		{1, 4, []int{19, 32}},
		{5, 9, []int{13 << 5, 511<<5 + 20, 1 << 14}},
		{6, 7, []int{100<<6 + 9, 1 << 13}},
	}
	nan := math.NaN()
	poison := func(v Vector, from int) {
		for i := from; i < v.Len(); i++ {
			v.Re[i], v.Im[i] = nan, nan
		}
	}
	// scaled is c·v amplitude by amplitude, with emit's arithmetic.
	scaled := func(v Vector, c complex128) Vector {
		w := v.Clone()
		cr, ci := real(c), imag(c)
		for i, r := range v.Re {
			m := v.Im[i]
			w.Re[i], w.Im[i] = cr*r-ci*m, cr*m+ci*r
		}
		return w
	}
	var plain *Diagonal
	for _, isa := range KernelISAs() {
		t.Run(isa, func(t *testing.T) {
			if err := SelectKernelISA(isa); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(43))
			for _, sh := range shapes {
				nLower, dimLo := sh.nLower, 1<<sh.nLower
				for _, m := range sh.ms {
					rows := (m + dimLo - 1) >> nLower
					coeffs := make([]complex128, leaves)
					ups, los := make([]Vector, leaves), make([]Vector, leaves)
					start := make([]complex128, m)
					for i := range start {
						start[i] = complex(rng.NormFloat64(), rng.NormFloat64())
					}
					want := append([]complex128(nil), start...)
					for k := range coeffs {
						coeffs[k] = complex(rng.NormFloat64(), rng.NormFloat64())
						ups[k] = FromComplex(randomState(rng, sh.nUpper))
						los[k] = FromComplex(randomState(rng, nLower))
						poison(ups[k], rows)
						poison(los[k], min(m, dimLo))
						if k == partLeaf && rows > foldRows {
							ups[k].Slice(foldRows, min(2*foldRows, rows)).Clear()
						}
						if rows > zeroRow {
							ups[k].Slice(zeroRow, zeroRow+1).Clear()
						}
						for x := range want {
							want[x] += coeffs[k] * ups[k].Amplitude(x>>nLower) * los[k].Amplitude(x&(dimLo-1))
						}
					}
					spare := MakeVector(1 << sh.nUpper)
					poison(spare, 0)
					for _, byRows := range []bool{true, false} {
						ws, ls := make([]Vector, leaves), make([]Vector, leaves)
						for k := range coeffs {
							if byRows {
								ws[k], ls[k] = scaled(ups[k], coeffs[k]), los[k]
							} else {
								ws[k], ls[k] = ups[k], scaled(los[k], coeffs[k])
							}
						}
						oneRow := FromComplex(start)
						for k := range coeffs {
							AccumulateKron(oneRow, 1, ws[k], ls[k], nLower)
						}
						for _, K := range []int{1, 2, 7, 8, 9, 17} {
							acc := FromComplex(start)
							for k0 := 0; k0 < leaves; k0 += K {
								k1 := min(k0+K, leaves)
								// A short batch leaves table rows past its leaves.
								table := append(append([]Vector(nil), ws[k0:k1]...), spare)
								plain.FoldRowsN(acc, 0, table, ls[k0:k1])
							}
							for i := range want {
								if d := cmplx.Abs(acc.Amplitude(i) - want[i]); !(d <= parityTol) { // NaN fails too
									t.Fatalf("nLower=%d m=%d byRows=%v K=%d amplitude %d: got %v want %v", nLower, m, byRows, K, i, acc.Amplitude(i), want[i])
								}
								if acc.Re[i] != oneRow.Re[i] || acc.Im[i] != oneRow.Im[i] {
									t.Fatalf("nLower=%d m=%d byRows=%v K=%d amplitude %d: fold %v, leaf by leaf %v", nLower, m, byRows, K, i, acc.Amplitude(i), oneRow.Amplitude(i))
								}
							}
						}
						if m == 1<<(nLower+sh.nUpper) {
							acc := FromComplex(start)
							for _, K := range []int{1, 8, 9} {
								if allocs := testing.AllocsPerRun(10, func() { plain.FoldRowsN(acc, 0, ws[:K], ls[:K]) }); allocs != 0 {
									t.Errorf("nLower=%d K=%d: %v allocs per fold", nLower, K, allocs)
								}
							}
						}
					}
				}
			}
			empty := MakeVector(0)
			plain.FoldRowsN(empty, 0, []Vector{MakeVector(8), MakeVector(8)}, []Vector{MakeVector(8), MakeVector(8)})
			AccumulateKron(empty, 1, MakeVector(8), MakeVector(8), 3)
		})
	}
}

// TestFoldBatchBitIdentical holds, on every kernel arm, one leaf fold of
// FoldChunk leaves to FoldChunk one-leaf folds bit for bit (±0 counted
// equal): batching leaves changes which pass reads the accumulator, never the
// operations one amplitude receives or their order, so the HSF engine's batch
// size cannot move a result. The shapes are the joint-sweep (8 rows × 2048)
// and serve-plan (16 × 1024) accumulators and outputs of one row and of
// three, the last one short, which take the per-row axpy alone.
func TestFoldBatchBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	var plain *Diagonal
	forEachArm(t, func(t *testing.T) {
		for _, sh := range []struct{ m, nLower int }{
			{8 << 11, 11}, {16 << 10, 10}, {1 << 11, 11}, {2<<10 + 100, 10},
		} {
			rows := (sh.m + 1<<sh.nLower - 1) >> sh.nLower
			ws, los := make([]Vector, FoldChunk), make([]Vector, FoldChunk)
			for k := range ws {
				ws[k] = FromComplex(randomState(rng, bits.Len(uint(rows-1))))
				los[k] = FromComplex(randomState(rng, sh.nLower))
			}
			start := make([]complex128, sh.m)
			for i := range start {
				start[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
			batch, single := FromComplex(start), FromComplex(start)
			plain.FoldRowsN(batch, 0, ws, los)
			for k := range ws {
				plain.FoldRowsN(single, 0, ws[k:k+1], los[k:k+1])
			}
			for i := range start {
				if batch.Re[i] != single.Re[i] || batch.Im[i] != single.Im[i] {
					t.Fatalf("%d rows × 2^%d, amplitude %d: %d-leaf fold %v, leaf by leaf %v",
						rows, sh.nLower, i, FoldChunk, batch.Amplitude(i), single.Amplitude(i))
				}
			}
		}
	})
}

// TestFoldAVX512MatchesAVX2 holds the ZMM fold to the avx2 one bit for bit
// (±0 counted equal): the leaf fold on the benchmark's three shapes and a
// ragged 7-leaf one, and the fold primitive itself on every column count up to 48
// that the bodies take (multiples of 4), which splits into a ZMM head and an
// avx2 head in every combination, over one to three row blocks.
func TestFoldAVX512MatchesAVX2(t *testing.T) {
	var zmm, ymm kernelOps
	for _, arm := range arms {
		switch arm.name {
		case "avx512":
			zmm = arm
		case "avx2":
			ymm = arm
		}
	}
	if zmm.fold != foldAVX512 {
		t.Skipf("no avx512 arm here (available: %v)", KernelISAs())
	}
	orig := KernelISA()
	defer func() {
		if err := SelectKernelISA(orig); err != nil {
			t.Fatalf("restoring arm %q: %v", orig, err)
		}
	}()
	rng := rand.New(rand.NewSource(47))
	randomVector := func(n int) Vector {
		v := MakeVector(n)
		for i := range v.Re {
			v.Re[i], v.Im[i] = rng.NormFloat64(), rng.NormFloat64()
		}
		return v
	}
	same := func(what string, a, b Vector) {
		t.Helper()
		for i := range a.Re {
			if a.Re[i] != b.Re[i] || a.Im[i] != b.Im[i] {
				t.Fatalf("%s: amplitude %d: avx512 %v, avx2 %v", what, i, a.Amplitude(i), b.Amplitude(i))
			}
		}
	}
	for _, sh := range []struct{ m, nLower, nUpper, k int }{
		{1 << 14, 11, 3, 8}, {1 << 14, 10, 4, 8}, {1 << 20, 11, 9, 8}, {13<<9 + 100, 9, 4, 7},
	} {
		ups, los := make([]Vector, sh.k), make([]Vector, sh.k)
		for k := range ups {
			ups[k] = FromComplex(randomState(rng, sh.nUpper))
			los[k] = FromComplex(randomState(rng, sh.nLower))
		}
		start := randomVector(sh.m)
		var got [2]Vector
		for i, isa := range []string{"avx512", "avx2"} {
			if err := SelectKernelISA(isa); err != nil {
				t.Fatal(err)
			}
			got[i] = start.Clone()
			(*Diagonal)(nil).FoldRowsN(got[i], 0, ups, los)
		}
		same(fmt.Sprintf("leaf fold m=%d nLower=%d K=%d", sh.m, sh.nLower, sh.k), got[0], got[1])
	}
	for n := 4; n <= 48; n += 4 {
		k := 1 + n%FoldChunk
		op := foldOp{stride: n + 3, n: n, blocks: 1 + n%3, lo: make([]Vector, k), c: make([]Vector, k), cOff: 1, cStride: 2}
		for p := range k {
			op.lo[p] = randomVector(n)
			op.c[p] = randomVector(2*op.blocks*foldRows + 1)
		}
		a := randomVector((op.blocks*foldRows-1)*op.stride + n)
		b := a.Clone()
		op.acc = a
		op.check()
		archFold(zmm.fold, &op)
		op.acc = b
		archFold(ymm.fold, &op)
		same(fmt.Sprintf("fold n=%d K=%d", n, k), a, b)
	}
}

// TestVectorConversionRoundTrip pins the compatibility API: FromComplex /
// ToComplex / CopyToComplex / AddToComplex / Amplitude agree with the
// interleaved representation exactly (conversion must be lossless, not just
// 1e-12-close).
func TestVectorConversionRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	s := randomState(rng, 6)
	v := FromComplex(s)
	if v.Len() != len(s) || v.NumQubits() != 6 {
		t.Fatalf("Len/NumQubits = %d/%d, want %d/6", v.Len(), v.NumQubits(), len(s))
	}
	back := v.ToComplex()
	for i := range s {
		if back[i] != s[i] || v.Amplitude(i) != s[i] {
			t.Fatalf("amplitude %d: round trip %v, Amplitude %v, want %v", i, back[i], v.Amplitude(i), s[i])
		}
	}
	dst := make([]complex128, len(s))
	v.CopyToComplex(dst)
	acc := make([]complex128, len(s))
	copy(acc, s)
	v.AddToComplex(acc)
	for i := range s {
		if dst[i] != s[i] || acc[i] != s[i]+s[i] {
			t.Fatalf("amplitude %d: copy %v add %v, want %v / %v", i, dst[i], acc[i], s[i], s[i]+s[i])
		}
	}
	v.SetAmplitude(3, 2+3i)
	if v.Amplitude(3) != 2+3i {
		t.Fatalf("SetAmplitude: got %v", v.Amplitude(3))
	}
	if got, want := v.Probability(3), 13.0; got != want {
		t.Fatalf("Probability = %v, want %v", got, want)
	}
}

// realHH is H⊗H: a real orthogonal 4×4 dense matrix, chosen so the u4 kernel
// hits the all-real rot4x4 fast path in every arm.
func realHH() *cmat.Matrix {
	m := cmat.New(4, 4)
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			sign := 1.0
			if r&c&1 != 0 {
				sign = -sign
			}
			if (r>>1)&(c>>1)&1 != 0 {
				sign = -sign
			}
			m.Set(r, c, complex(sign*0.5, 0))
		}
	}
	return m
}

// TestSoAParityAllArms re-runs a condensed gate zoo under every kernel arm
// this process has (scalar always; span and the assembly arm when compiled
// in and the CPU supports it), switching arms with SelectKernelISA. The zoo
// deliberately covers both coefficient classes of each primitive: real
// (Hadamard, X, CZ, H⊗H) and complex (phases, ISWAP, random unitaries).
func TestSoAParityAllArms(t *testing.T) {
	orig := KernelISA()
	defer func() {
		if err := SelectKernelISA(orig); err != nil {
			t.Fatalf("restoring arm %q: %v", orig, err)
		}
	}()
	for _, isa := range KernelISAs() {
		t.Run(isa, func(t *testing.T) {
			if err := SelectKernelISA(isa); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(30))
			const n = 9
			for q := 0; q < n; q++ {
				q2, q3 := (q+3)%n, (q+6)%n
				gates := []gate.Gate{
					gate.H(q),
					gate.X(q),
					gate.RZ(rng.Float64()*6, q),
					gate.RX(rng.Float64()*6, q),
					gate.P(rng.Float64()*6, q),
					gate.New("u", randUnitary(rng, 2), nil, q),
					gate.CZ(q, q2),
					gate.CNOT(q, q2),
					gate.SWAP(q, q2),
					gate.ISWAP(q, q2),
					gate.New("hh", realHH(), nil, q, q2),
					gate.New("u4", randUnitary(rng, 4), nil, q, q2),
					gate.CCX(q, q2, q3),
					gate.New("cphaseswap", phasedPerm3(), nil, q, q2, q3),
				}
				for i := range gates {
					checkSoAParity(t, rng, &gates[i], n)
				}
			}
		})
	}
}

// TestSoADiagKAllArms sweeps the k≥3 diagonal kernel under every arm: k = 3…6
// gates whose lowest qubit is 0, 1, 2 or higher (contiguous runs of 1, 2, 4
// and ≥ 8 amplitudes — the low-qubit pair path, the shortest span, the plain
// span), plain and controlled (on the lowest qubit, on another, on all but
// one), unprepared, prepared and inline, plus a gate on both qubits 0 and 1
// and ragged sub-ranges that force the one-amplitude fallback — all against
// the oracle at 1e-12.
func TestSoADiagKAllArms(t *testing.T) {
	orig := KernelISA()
	defer func() {
		if err := SelectKernelISA(orig); err != nil {
			t.Fatalf("restoring arm %q: %v", orig, err)
		}
	}()
	const n = 10
	for _, isa := range KernelISAs() {
		t.Run(isa, func(t *testing.T) {
			if err := SelectKernelISA(isa); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(33))
			check := func(g gate.Gate) {
				t.Helper()
				checkSoAParity(t, rng, &g, n) // builds its plan per call
				PrepareGate(&g)
				checkSoAParity(t, rng, &g, n)

				s := randomState(rng, n)
				oracle := s.Clone()
				oracle.ApplyGate(&g)
				want := FromComplex(oracle)
				inline := FromComplex(s)
				inline.applyInline(&g, nil)
				if d := MaxAbsDiffVec(inline, want); d > parityTol {
					t.Fatalf("%s on %v: inline diverges by %g", g.Name, g.Qubits, d)
				}
				plan := planOf(&g)
				dom := plan.domain(1 << n)
				a, b := 1+rng.Intn(dom/2), dom/2+rng.Intn(dom/2)
				ragged := FromComplex(s)
				ragged.diagK(plan, 0, a)
				ragged.diagK(plan, a, b)
				ragged.diagK(plan, b, dom)
				if d := MaxAbsDiffVec(ragged, want); d > parityTol {
					t.Fatalf("%s on %v: split at %d,%d diverges by %g", g.Name, g.Qubits, a, b, d)
				}
			}
			for k := 3; k <= 6; k++ {
				for lowest := 0; lowest <= 3; lowest++ {
					qs := []int{lowest}
					for _, q := range rng.Perm(n - lowest - 1)[:k-1] {
						qs = append(qs, lowest+1+q)
					}
					rng.Shuffle(k, func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
					lowBit, otherBit := 0, 1
					for b, q := range qs {
						if q == lowest {
							lowBit, otherBit = b, (b+1)%k
						}
					}
					for _, ctrl := range []int{0, 1 << lowBit, 1 << otherBit, (1<<k - 1) &^ (1 << otherBit)} {
						check(randDiagGate(rng, ctrl, qs...))
					}
				}
				both := append([]int{1, 0}, rng.Perm(n - 2)[:k-2]...)
				for i := 2; i < k; i++ {
					both[i] += 2
				}
				check(randDiagGate(rng, 0, both...))
				check(randDiagGate(rng, 2, both...))
			}
		})
	}
}

// phasedPerm3 builds a 3q phased permutation — one 2-cycle carrying phase i
// on both moves plus a fixed state with phase −1 — so permK's
// single-transposition fast path exercises both its cross branch and its
// fixed-phase span scaling, under every arm.
func phasedPerm3() *cmat.Matrix {
	m := cmat.New(8, 8)
	for i := 0; i < 8; i++ {
		m.Set(i, i, 1)
	}
	m.Set(5, 5, 0)
	m.Set(6, 6, 0)
	m.Set(5, 6, 1i)
	m.Set(6, 5, 1i)
	m.Set(7, 7, -1)
	return m
}

// TestLoQubitKernelsAllArms pins Vector.rot1, diag1 and phase1 — through the
// installed arm's dispatch: the interleaved low-qubit kernels on qubits 0 and
// 1, the whole-range rot1 slot above them, or the span and scalar loops —
// against the scalar pair bodies on q = 0…8 over uneven [lo,hi) splits,
// including the odd-lo and mid-group starts and ends parallelRange can
// produce (the q=1 alignment peel, the grouped body's partial head and tail
// groups), for both coefficient classes, and checks that rot1 does not
// allocate.
func TestLoQubitKernelsAllArms(t *testing.T) {
	orig := KernelISA()
	defer func() {
		if err := SelectKernelISA(orig); err != nil {
			t.Fatalf("restoring arm %q: %v", orig, err)
		}
	}()
	rng := rand.New(rand.NewSource(33))
	const n = 10
	half := 1 << (n - 1)
	coeffs := func(re bool) [8]float64 {
		var c [8]float64
		for i := range c {
			if re || i%2 == 0 {
				c[i] = rng.NormFloat64()
			}
		}
		return c
	}
	for _, isa := range KernelISAs() {
		t.Run(isa, func(t *testing.T) {
			if err := SelectKernelISA(isa); err != nil {
				t.Fatal(err)
			}
			for q := 0; q <= 8; q++ {
				for _, sp := range rot1Ranges(q, half) {
					lo, hi := sp[0], sp[1]
					for _, re := range []bool{true, false} {
						c := coeffs(re)
						s := randomState(rng, n)
						got, want := FromComplex(s), FromComplex(s)
						got.rot1(complex(c[0], c[1]), complex(c[2], c[3]),
							complex(c[4], c[5]), complex(c[6], c[7]), q, lo, hi)
						for o := lo; o < hi; o++ {
							rot1Pair(want.Re, want.Im, q, o, c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7])
						}
						for i := 0; i < want.Len(); i++ {
							if cmplx.Abs(got.Amplitude(i)-want.Amplitude(i)) > parityTol {
								t.Fatalf("rot1 q=%d lo=%d hi=%d re=%v: amplitude %d: got %v want %v",
									q, lo, hi, re, i, got.Amplitude(i), want.Amplitude(i))
							}
						}
						got, want = FromComplex(s), FromComplex(s)
						got.diag1(complex(c[0], c[1]), complex(c[6], c[7]), q, lo, hi)
						for o := lo; o < hi; o++ {
							diag1Pair(want.Re, want.Im, q, o, c[0], c[1], c[6], c[7])
						}
						for i := 0; i < want.Len(); i++ {
							if cmplx.Abs(got.Amplitude(i)-want.Amplitude(i)) > parityTol {
								t.Fatalf("diag1 q=%d lo=%d hi=%d re=%v: amplitude %d: got %v want %v",
									q, lo, hi, re, i, got.Amplitude(i), want.Amplitude(i))
							}
						}
						got, want = FromComplex(s), FromComplex(s)
						got.phase1(complex(c[6], c[7]), q, lo, hi)
						for o := lo; o < hi; o++ {
							diag1Pair(want.Re, want.Im, q, o, 1, 0, c[6], c[7])
						}
						for i := 0; i < want.Len(); i++ {
							if cmplx.Abs(got.Amplitude(i)-want.Amplitude(i)) > parityTol {
								t.Fatalf("phase1 q=%d lo=%d hi=%d re=%v: amplitude %d: got %v want %v",
									q, lo, hi, re, i, got.Amplitude(i), want.Amplitude(i))
							}
						}
					}
				}
			}
			v := FromComplex(randomState(rng, n))
			for _, q := range []int{1, 3, 7} {
				if allocs := testing.AllocsPerRun(10, func() { v.rot1(0.6, -0.8i, -0.8i, 0.6, q, 1, half-1) }); allocs != 0 {
					t.Errorf("rot1 on qubit %d allocates %v per call", q, allocs)
				}
			}
		})
	}
}

// TestSpanPrimitivesAllArms hammers the span primitives and the fold body of
// every arm directly against the scalar reference bodies (the fold against
// one axpy per node and row), over lengths below spanMin, every length up to
// 36 (so every remainder mod 16 the fold takes follows one and two 16-column
// heads), and unaligned offsets — the span shapes kernel
// dispatch produces at low qubit positions and odd gate offsets. Both
// coefficient classes (real-only and complex) are exercised so the Re/Cx
// assembly entry points and their tail epilogues are all covered.
func TestSpanPrimitivesAllArms(t *testing.T) {
	ref := scalarArm()
	lengths := []int{100}
	for n := 1; n <= 36; n++ {
		lengths = append(lengths, n)
	}
	offsets := []int{0, 1, 3}
	rng := rand.New(rand.NewSource(31))
	window := func(n, off int) []float64 {
		buf := alignedFloats(n + off)
		for i := range buf {
			buf[i] = rng.NormFloat64()
		}
		return buf[off:]
	}
	maxDiff := func(a, b []float64) float64 {
		d := 0.0
		for i := range a {
			if e := a[i] - b[i]; e > d {
				d = e
			} else if -e > d {
				d = -e
			}
		}
		return d
	}
	check := func(t *testing.T, what string, n, off int, got, want [][]float64) {
		t.Helper()
		for p := range got {
			if d := maxDiff(got[p], want[p]); d > parityTol {
				t.Fatalf("%s n=%d off=%d plane %d: max diff %g", what, n, off, p, d)
			}
		}
	}
	for _, arm := range arms {
		arm := arm
		t.Run(arm.name, func(t *testing.T) {
			for _, n := range lengths {
				for _, off := range offsets {
					planes := func(k int) (a, b [][]float64) {
						a = make([][]float64, k)
						b = make([][]float64, k)
						for p := 0; p < k; p++ {
							a[p] = window(n, off)
							b[p] = append([]float64(nil), a[p]...)
						}
						return a, b
					}
					cr, ci := rng.NormFloat64(), rng.NormFloat64()
					br, bi := rng.NormFloat64(), rng.NormFloat64()
					ar, ai := rng.NormFloat64(), rng.NormFloat64()
					dr, di := rng.NormFloat64(), rng.NormFloat64()

					for _, im := range []float64{0, ci} {
						g, w := planes(2)
						arm.scale(g[0], g[1], cr, im)
						ref.scale(w[0], w[1], cr, im)
						check(t, "scale", n, off, g, w)
					}
					{
						g, w := planes(4)
						arm.swap(g[0], g[1], g[2], g[3])
						ref.swap(w[0], w[1], w[2], w[3])
						check(t, "swap", n, off, g, w)
					}
					for _, im := range []float64{0, 1} {
						g, w := planes(4)
						arm.cross(g[0], g[1], g[2], g[3], br, bi*im, cr, ci*im)
						ref.cross(w[0], w[1], w[2], w[3], br, bi*im, cr, ci*im)
						check(t, "cross", n, off, g, w)
						g, w = planes(4)
						arm.axpy(g[0], g[1], g[2], g[3], cr, ci*im)
						ref.axpy(w[0], w[1], w[2], w[3], cr, ci*im)
						check(t, "axpy", n, off, g, w)
						g, w = planes(4)
						arm.rot2x2(g[0], g[1], g[2], g[3], ar, ai*im, br, bi*im, cr, ci*im, dr, di*im)
						ref.rot2x2(w[0], w[1], w[2], w[3], ar, ai*im, br, bi*im, cr, ci*im, dr, di*im)
						check(t, "rot2x2", n, off, g, w)
					}
					if arm.fold != foldNone && n&3 == 0 {
						op := foldOp{stride: n + 5, n: n, blocks: 1, lo: make([]Vector, 3), c: make([]Vector, 3), cStride: 1}
						for p := range op.lo {
							op.lo[p] = Vector{window(n, off), window(n, off)}
							op.c[p] = MakeVector(foldRows)
							for r := range foldRows {
								op.c[p].Re[r], op.c[p].Im[r] = rng.NormFloat64(), rng.NormFloat64()
							}
						}
						g := [][]float64{window(3*op.stride+n, off), window(3*op.stride+n, off)}
						w := [][]float64{append([]float64(nil), g[0]...), append([]float64(nil), g[1]...)}
						op.acc = Vector{g[0], g[1]}
						op.check()
						archFold(arm.fold, &op)
						for p, lo := range op.lo {
							for r := range foldRows {
								x := r * op.stride
								ref.axpy(w[0][x:x+n], w[1][x:x+n], lo.Re, lo.Im, op.c[p].Re[r], op.c[p].Im[r])
							}
						}
						check(t, "fold", n, off, g, w)
					}
					for _, im := range []float64{0, 1} {
						m := make([]complex128, 16)
						for k := range m {
							m[k] = complex(rng.NormFloat64(), im*rng.NormFloat64())
						}
						g, w := planes(8)
						arm.rot4x4(g[0], g[1], g[2], g[3], g[4], g[5], g[6], g[7], m)
						ref.rot4x4(w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7], m)
						check(t, "rot4x4", n, off, g, w)
					}
				}
			}
			if arm.rot1 != nil {
				checkRot1Slot(t, arm, rng)
			}
		})
	}
}

// rot1Ranges returns half-block ranges [lo,hi) for qubit q of a register
// with half pairs: whole; odd starts and ends, including the single pairs
// {7,8} and {9,10} that the q=1 alignment peel consumes whole, leaving the
// vector body nothing; ragged ones that start and end mid-group (head and
// tail in one group, in neighbouring groups, far apart); and the chunks of a
// three-way parallelRange split.
func rot1Ranges(q, half int) [][2]int {
	g := 1 << q
	rs := [][2]int{{0, half}, {1, half}, {0, half - 1}, {1, half - 1}, {3, half - 3},
		{5, 29}, {7, 8}, {9, 10}, {3, min(3*g+1, half)}, {g/2 + 1, min(g+g/2+1, half)}}
	if g >= 4 {
		rs = append(rs, [2]int{g + 1, 2*g - 1})
	}
	chunk := (half + 2) / 3
	for lo := 0; lo < half; lo += chunk {
		rs = append(rs, [2]int{lo, min(lo+chunk, half)})
	}
	return rs
}

// checkRot1Slot drives an arm's rot1 slot directly on q = 0…8, real and
// complex coefficients, whole and ragged ranges: within 1e-12 of the scalar
// pair body everywhere, and for q ≥ 2 bit for bit (±0 equal) what the span
// path gives — one rot2x2 call per run of the same arm — because the grouped
// body keeps the span body's per-element FMA sequence.
func checkRot1Slot(t *testing.T, arm kernelOps, rng *rand.Rand) {
	t.Helper()
	const n = 10
	half := 1 << (n - 1)
	for q := 0; q <= 8; q++ {
		for _, r := range rot1Ranges(q, half) {
			lo, hi := r[0], r[1]
			for _, re := range []bool{true, false} {
				var c [8]float64
				for i := range c {
					if !re || i%2 == 0 {
						c[i] = rng.NormFloat64()
					}
				}
				s := randomState(rng, n)
				got, ref, span := FromComplex(s), FromComplex(s), FromComplex(s)
				arm.rot1(got.Re, got.Im, q, lo, hi, c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7])
				for o := lo; o < hi; o++ {
					rot1Pair(ref.Re, ref.Im, q, o, c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7])
				}
				if d := MaxAbsDiffVec(got, ref); !(d <= parityTol) {
					t.Fatalf("rot1 q=%d [%d,%d) real=%v: %g from the scalar pair body", q, lo, hi, re, d)
				}
				if q < 2 {
					continue
				}
				rot1Runs(span.Re, span.Im, q, lo, hi, arm.rot2x2, c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7])
				for i := range span.Re {
					if got.Re[i] != span.Re[i] || got.Im[i] != span.Im[i] {
						t.Fatalf("rot1 q=%d [%d,%d) real=%v: amplitude %d = %v, span path %v",
							q, lo, hi, re, i, got.Amplitude(i), span.Amplitude(i))
					}
				}
			}
		}
	}
	v := FromComplex(randomState(rng, n))
	if allocs := testing.AllocsPerRun(10, func() {
		arm.rot1(v.Re, v.Im, 5, 3, half-3, 0.6, 0, 0, -0.8, 0, -0.8, 0.6, 0)
	}); allocs != 0 {
		t.Errorf("rot1 allocates %v per call", allocs)
	}
}

// TestSelectKernelISA pins the override surface: the installed arm is always
// one of KernelISAs, scalar is always available, every available arm can be
// selected and reported, an unavailable-but-known arm errors with "not
// available" (leaving the installed arm unchanged), and an unknown name
// errors with "unknown".
func TestSelectKernelISA(t *testing.T) {
	orig := KernelISA()
	defer func() {
		if err := SelectKernelISA(orig); err != nil {
			t.Fatalf("restoring arm %q: %v", orig, err)
		}
	}()
	t.Logf("installed %q, available %v", orig, KernelISAs())
	avail := map[string]bool{}
	for _, name := range KernelISAs() {
		avail[name] = true
	}
	if !avail[orig] {
		t.Fatalf("installed arm %q not in KernelISAs %v", orig, KernelISAs())
	}
	if !avail["scalar"] {
		t.Fatalf("scalar arm missing from KernelISAs %v", KernelISAs())
	}
	if err := SelectKernelISA("sse9"); err == nil || !strings.Contains(err.Error(), "unknown kernel ISA") {
		t.Fatalf("unknown arm: err = %v", err)
	}
	if got := KernelISA(); got != orig {
		t.Fatalf("failed select changed the arm to %q", got)
	}
	for _, known := range kernelISANames {
		if avail[known] {
			if err := SelectKernelISA(known); err != nil {
				t.Fatalf("selecting available arm %q: %v", known, err)
			}
			if got := KernelISA(); got != known {
				t.Fatalf("KernelISA() = %q after selecting %q", got, known)
			}
		} else {
			before := KernelISA()
			if err := SelectKernelISA(known); err == nil || !strings.Contains(err.Error(), "not available") {
				t.Fatalf("unavailable arm %q: err = %v", known, err)
			}
			if got := KernelISA(); got != before {
				t.Fatalf("failed select changed the arm to %q", got)
			}
		}
	}
}
