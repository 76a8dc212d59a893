package statevec

import (
	"fmt"
	"math/cmplx"
	"math/rand"
	"testing"

	"hsfsim/internal/cmat"
	"hsfsim/internal/gate"
)

// TestDiagonalMatchesOracle holds Diagonal.Apply to the dense-matvec oracle
// on every kernel arm, at 1e-12: one-qubit phases diag(1, d) and general
// diag(a, d) on every qubit, and k-qubit diagonals whose lowest qubit takes
// each path — run tables (lowest qubit ≥ 2, short and long periods), the
// repeating 8-amplitude block (every qubit below 3), pairs around a low
// qubit, and single amplitudes — with entries of 1 mixed in. A 2^15-amplitude
// case crosses the parallel threshold.
func TestDiagonalMatchesOracle(t *testing.T) {
	cases := []struct {
		n      int
		qubits []int
	}{
		{9, []int{0}}, {9, []int{1}}, {9, []int{2}}, {9, []int{3}}, {9, []int{8}},
		{9, []int{2, 3, 5}}, {10, []int{3, 5, 9}}, {9, []int{3, 4, 5, 6, 7}}, {10, []int{8, 2}},
		{9, []int{1, 2}}, {9, []int{2, 0, 1}}, {3, []int{0, 2}},
		{9, []int{0, 3, 6, 7, 8}}, {9, []int{0, 8}}, {9, []int{1, 8}}, {4, []int{1, 3}},
		{15, []int{4, 9}}, {15, []int{6}},
	}
	forEachArm(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(33))
		for _, tc := range cases {
			for _, phase := range []bool{true, false} {
				d := make([]complex128, 1<<len(tc.qubits))
				for i := range d {
					if rng.Intn(4) == 0 {
						d[i] = 1
					} else {
						d[i] = cmplx.Rect(0.5+rng.Float64(), 2*rng.Float64())
					}
				}
				if phase {
					d[0] = 1
				}
				name := fmt.Sprintf("n=%d qubits %v d[0]=%v", tc.n, tc.qubits, d[0])
				in := randomState(rng, tc.n)
				got := FromComplex(in)
				NewDiagonal(tc.qubits, d).Apply(got)

				m := cmat.New(len(d), len(d))
				for i, x := range d {
					m.Set(i, i, x)
				}
				want := append(State(nil), in...)
				want.ApplyGate(&gate.Gate{Name: "diag", Qubits: tc.qubits, Matrix: m})
				if diff := MaxAbsDiff(got.ToComplex(), want); diff > 1e-12 {
					t.Fatalf("%s: off the oracle by %g", name, diff)
				}
			}
		}
	})
}

// TestDiagonalTakesRunTables pins which diagonals stream through the
// scaleRuns body: runs of at least 4 amplitudes with a period of at most
// maxRunPeriod runs, and a one-qubit diagonal's table is its own entries.
func TestDiagonalTakesRunTables(t *testing.T) {
	for _, tc := range []struct {
		qubits []int
		period int // 0: no table
	}{
		{[]int{2}, 2}, {[]int{9}, 2}, {[]int{1}, 0}, {[]int{3, 4, 5, 6, 7}, 32},
		{[]int{3, 5, 9}, 128}, {[]int{2, 10}, 0}, {[]int{0, 3}, 0}, {[]int{1, 2}, 0},
	} {
		D := NewDiagonal(tc.qubits, make([]complex128, 1<<len(tc.qubits)))
		if len(D.runs) != tc.period {
			t.Errorf("qubits %v: run table of %d factors, want %d", tc.qubits, len(D.runs), tc.period)
		}
	}
}

// TestDiagonalFoldRowsMatchesOracle holds the diagonal tail's node fold,
// acc_r += W_r ⊙ lo with W_r row r of the table read as a diagonal over the
// qubits, to a dense oracle at 1e-12 on every kernel arm: on joint-sweep's
// shape (8 rows of 2^11, qubits 5–9), with qubit 0 among the qubits (runs of
// one amplitude), on qubits that are not contiguous with a short last row,
// with a last row that ends inside a run of eight, and into a one-row
// accumulator; and the leaf fold, a nil D whose one class is the row, on the
// same shapes. Every operand is a buffer a poisoned pool handed back, so
// what the test does not write is NaN: the fold must read only the rows and
// entries it is given and write nothing past the accumulator. It allocates
// nothing.
func TestDiagonalFoldRowsMatchesOracle(t *testing.T) {
	cases := []struct {
		name   string
		nLower int
		qubits []int
		m      int
	}{
		{"joint-sweep", 11, []int{5, 6, 7, 8, 9}, 8 << 11},
		{"joint-accum-par", 11, []int{5, 6, 7, 8, 9}, 1 << 20},
		{"qubit 0", 6, []int{0, 3}, 4 << 6},
		{"not contiguous", 8, []int{1, 4, 7}, 3<<8 + 37},
		{"ragged in a run", 8, []int{3, 6}, 2<<8 + 45},
		{"one row", 7, []int{2, 5}, 1 << 7},
		{"leaves, joint-sweep", 11, nil, 8 << 11},
		{"leaves, short last row", 8, nil, 3<<8 + 37},
		{"leaves, sub-row", 8, nil, 45},
	}
	forEachArm(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(37))
		pool := NewPool()
		pool.Poison = true
		// poisoned returns a pool buffer of n amplitudes that has been
		// released once, and so holds NaN, with its first fill amplitudes
		// random.
		poisoned := func(n, fill int) Vector {
			pool.Put(pool.Get(n))
			v := pool.Get(n)
			for i := range fill {
				v.SetAmplitude(i, complex(rng.NormFloat64(), rng.NormFloat64()))
			}
			return v
		}
		for _, tc := range cases {
			n, k := 1<<tc.nLower, 1<<len(tc.qubits)
			rows := (tc.m + n - 1) / n
			lo := poisoned(n, n)
			w := poisoned((rows+1)*k, rows*k)
			buf := poisoned(tc.m+n, tc.m)
			acc := buf.Slice(0, tc.m)
			want := acc.ToComplex()
			for i := range want {
				x, y := i%n, 0
				for j, q := range tc.qubits {
					y |= (x >> q & 1) << j
				}
				want[i] += w.Amplitude(i/n*k+y) * lo.Amplitude(x)
			}
			D := foldDiagonal(tc.qubits)
			ws, los := []Vector{w}, []Vector{lo}
			D.FoldRowsN(acc, 0, ws, los)
			if d := MaxAbsDiff(acc.ToComplex(), want); !(d <= 1e-12) {
				t.Fatalf("%s: off the oracle by %g", tc.name, d)
			}
			for i := tc.m; i < buf.Len(); i++ {
				if a := buf.Amplitude(i); !cmplx.IsNaN(a) {
					t.Fatalf("%s: amplitude %d past the accumulator written: %v", tc.name, i, a)
				}
			}
			if !raceEnabled {
				if allocs := testing.AllocsPerRun(5, func() { D.FoldRowsN(acc, 0, ws, los) }); allocs != 0 {
					t.Fatalf("%s: FoldRowsN allocated %.1f times", tc.name, allocs)
				}
			}
			pool.Put(lo)
			pool.Put(w)
			pool.Put(buf)
		}
	})
}

// foldDiagonal returns the fold-only Diagonal on qubits, nil (the leaf
// fold's) for none.
func foldDiagonal(qubits []int) *Diagonal {
	if qubits == nil {
		return nil
	}
	return NewDiagonal(qubits, nil)
}

// foldNode folds one node into the whole accumulator: one FoldRowsN call
// with a single row table and lower half.
func foldNode(D *Diagonal, acc, w, lo Vector) {
	D.FoldRowsN(acc, 0, []Vector{w}, []Vector{lo})
}

// foldRowsByRun is the node fold as it was before it walked rows: runs outside,
// rows inside, one axpy per run and row, the run's entry looked up once for
// all rows.
func foldRowsByRun(D *Diagonal, acc, w, lo Vector) {
	n, k := lo.Len(), 1<<len(D.qubits)
	if run := 1 << D.s0; ops.spanMin > 0 && run >= ops.spanMin {
		for i := 0; i < n; i += run {
			x := D.index(i)
			for r, x0 := 0, i; x0 < acc.Len(); r, x0 = r+1, x0+n {
				j := min(x0+run, acc.Len())
				ops.axpy(acc.Re[x0:j], acc.Im[x0:j], lo.Re[i:i+j-x0], lo.Im[i:i+j-x0], w.Re[r*k+x], w.Im[r*k+x])
			}
		}
		return
	}
	for r, x0 := 0, 0; x0 < acc.Len(); r, x0 = r+1, x0+n {
		D.foldRow(acc.Slice(x0, min(x0+n, acc.Len())), w.Slice(r*k, (r+1)*k), lo)
	}
}

// TestFoldRowsBitIdenticalToRunOrder holds the row-major node fold to the
// run-major loop it replaced, bit for bit, on every kernel arm: each amplitude
// gets the same axpy on the same operands, only in another order. The shapes
// are the tail's at joint-sweep and joint-accum-par, runs of 4 (the shortest
// an assembly span takes), runs shorter than every span, a short last row
// that ends inside a run, and one row.
func TestFoldRowsBitIdenticalToRunOrder(t *testing.T) {
	cases := []struct {
		nLower int
		qubits []int
		m      int
	}{
		{11, []int{5, 6, 7, 8, 9}, 8 << 11},
		{11, []int{5, 6, 7, 8, 9}, 1 << 20},
		{9, []int{2, 4, 8}, 5<<9 + 3},
		{8, []int{1, 4, 7}, 3<<8 + 37},
		{8, []int{3, 6}, 2<<8 + 45},
		{7, []int{6, 2}, 1 << 7},
	}
	forEachArm(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(41))
		random := func(n int) Vector {
			v := MakeVector(n)
			for i := range n {
				v.Re[i], v.Im[i] = rng.NormFloat64(), rng.NormFloat64()
			}
			return v
		}
		for _, tc := range cases {
			n, k := 1<<tc.nLower, 1<<len(tc.qubits)
			rows := (tc.m + n - 1) / n
			lo, w, acc := random(n), random(rows*k), random(tc.m)
			want := MakeVector(tc.m)
			want.CopyFrom(acc)
			D := NewDiagonal(tc.qubits, nil)
			foldNode(D, acc, w, lo)
			foldRowsByRun(D, want, w, lo)
			for i := range acc.Re {
				if acc.Re[i] != want.Re[i] || acc.Im[i] != want.Im[i] {
					t.Fatalf("qubits %v, m = %d: amplitude %d is %v, the run-major loop gives %v",
						tc.qubits, tc.m, i, acc.Amplitude(i), want.Amplitude(i))
				}
			}
		}
	})
}

// TestFoldRowsNBitIdenticalToFoldRows holds FoldRowsN over many nodes to one
// FoldRowsN call per node, node after node, over the whole accumulator, bit
// for bit on every kernel arm, over tiles that
// start at a row boundary: whole FoldRowBlock-row blocks, blocks with rows
// left over, and the ragged end of the accumulator. The shapes are the
// tail's at joint-accum-par (here 16 rows), runs of 4 (the shortest an
// assembly span takes) with a short last row, runs shorter than every span
// (the non-span body), a short last row that ends inside a run, and one row;
// and the leaf fold (a nil D) on joint-sweep's rows, on the tail's leaf fold
// into a 512-row table of 32 columns and with a short last row. The node
// counts straddle FoldChunk. Nothing past the tile is written, and FoldRowsN
// allocates nothing.
func TestFoldRowsNBitIdenticalToFoldRows(t *testing.T) {
	cases := []struct {
		nLower int
		qubits []int
		m      int
		nodes  int
		tile   int // rows per tile
	}{
		{11, []int{5, 6, 7, 8, 9}, 16 << 11, 32, 4},
		{11, []int{5, 6, 7, 8, 9}, 16 << 11, 9, 6},
		{9, []int{2, 4, 8}, 13<<9 + 3, 8, 4},
		{9, []int{2, 4, 8}, 13<<9 + 3, 17, 8},
		{8, []int{1, 4, 7}, 7<<8 + 37, 3, 4},
		{8, []int{3, 6}, 9<<8 + 45, 11, 5},
		{7, []int{6, 2}, 1 << 7, 1, 4},
		{11, nil, 8 << 11, 8, 4},
		{5, nil, 512 << 5, 8, 4},
		{6, nil, 13<<6 + 20, 9, 8},
	}
	forEachArm(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(47))
		random := func(n int) Vector {
			v := MakeVector(n)
			for i := range n {
				v.Re[i], v.Im[i] = rng.NormFloat64(), rng.NormFloat64()
			}
			return v
		}
		for _, tc := range cases {
			n, k := 1<<tc.nLower, 1<<len(tc.qubits)
			rows := (tc.m + n - 1) / n
			ws, los := make([]Vector, tc.nodes), make([]Vector, tc.nodes)
			for p := range los {
				ws[p], los[p] = random(rows*k), random(n)
			}
			D := foldDiagonal(tc.qubits)
			acc := random(tc.m + 1)
			past := acc.Amplitude(tc.m)
			want := MakeVector(tc.m)
			want.CopyFrom(acc.Slice(0, tc.m))
			for p := range los {
				foldNode(D, want, ws[p], los[p])
			}
			for r0 := 0; r0 < rows; r0 += tc.tile {
				tile := acc.Slice(r0*n, min((r0+tc.tile)*n, tc.m))
				D.FoldRowsN(tile, r0, ws, los)
				if !raceEnabled && r0 == 0 {
					before := tile.ToComplex()
					if allocs := testing.AllocsPerRun(1, func() { D.FoldRowsN(tile, r0, ws, los) }); allocs != 0 {
						t.Fatalf("qubits %v: FoldRowsN allocated %.1f times", tc.qubits, allocs)
					}
					tile.CopyFrom(FromComplex(before))
				}
			}
			for i := range want.Re {
				if acc.Re[i] != want.Re[i] || acc.Im[i] != want.Im[i] {
					t.Fatalf("qubits %v, m = %d, %d nodes, %d-row tiles: amplitude %d is %v, a fold per node gives %v",
						tc.qubits, tc.m, tc.nodes, tc.tile, i, acc.Amplitude(i), want.Amplitude(i))
				}
			}
			if a := acc.Amplitude(tc.m); a != past {
				t.Fatalf("qubits %v: amplitude past the accumulator written: %v", tc.qubits, a)
			}
		}
	})
}

// BenchmarkNodeFold folds the 32 level-5 nodes of joint-accum-par's tail
// (2^11-amplitude lower halves, Q = qubits 5–9, 512 rows) into a 2^20
// accumulator, per arm: one FoldRowsN call per node over the whole
// accumulator, the unheld run's node fold ("PerNode"), and FoldRowsN over
// tiles of FoldRowBlock rows, each folded into one reused tile buffer as the
// held pass does ("Tiled"). The nodes' lower halves and row tables sit in
// padded slabs, as the engine holds them (MakeVectors). It reports ns per
// node and GFlop/s (8 flops per amplitude and node). It does not predict the
// held pass: it folds the same nodes over and over with nothing else in the
// caches, and fold changes that read faster here have read slower end to
// end, so a fold change needs alternating end-to-end pairs.
func BenchmarkNodeFold(b *testing.B) {
	const nLower, nodes, m = 11, 32, 1 << 20
	orig := KernelISA()
	defer func() {
		if err := SelectKernelISA(orig); err != nil {
			b.Fatalf("restoring arm %q: %v", orig, err)
		}
	}()
	rng := rand.New(rand.NewSource(43))
	D := NewDiagonal([]int{5, 6, 7, 8, 9}, nil)
	ws, los := MakeVectors(nodes, 1<<(20-nLower+5)), MakeVectors(nodes, 1<<nLower) // 2^9 rows of 2^5
	for p := range los {
		ws[p].CopyFromComplex(randomState(rng, 20-nLower+5))
		los[p].CopyFromComplex(randomState(rng, nLower))
	}
	acc := MakeVector(m)
	const tile = FoldRowBlock << nLower
	buf := acc.Slice(0, tile)
	for _, isa := range KernelISAs() {
		for _, how := range []string{"PerNode", "Tiled"} {
			b.Run(how+"/"+isa, func(b *testing.B) {
				if err := SelectKernelISA(isa); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if how == "PerNode" {
						for p := range los {
							D.FoldRowsN(acc, 0, ws[p:p+1], los[p:p+1])
						}
						continue
					}
					for lo := 0; lo < m; lo += tile {
						D.FoldRowsN(buf, lo>>nLower, ws, los)
					}
				}
				ns := float64(b.Elapsed().Nanoseconds())
				b.ReportMetric(ns/float64(b.N*nodes), "ns/node")
				b.ReportMetric(8*float64(m)*float64(b.N*nodes)/ns, "GFlop/s")
			})
		}
	}
}
