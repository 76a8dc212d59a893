package hsf

import (
	"math/cmplx"
	"math/rand"
	"testing"

	"hsfsim/internal/statevec"
)

// TestEmitDropsZeroLeaf holds emit's weighting and its zero-leaf drop on both
// branches: joint-sweep's 8 upper rows against 2048 lower columns, where the
// copied rows carry the weight, and the diagonal tail's 512 rows against a
// 32-amplitude proxy, where the proxy carries it. Every lower half comes out
// of a poisoned pool, so it is NaN wherever the test did not write it. A leaf
// whose output rows are zero, and one whose coefficient is zero, add nothing
// to the batch and hand their lower half back to the pool (the next Get
// returns that buffer), and folding the batch stays finite, so the dropped,
// NaN-filled halves were never weighted or folded. The kept leaves carry
// their weight in the smaller operand only, and the fold of the batch is
// Σ c·up ⊗ lo at 1e-12.
func TestEmitDropsZeroLeaf(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for _, tc := range []struct {
		name      string
		rows, nLo int
	}{
		{"weighted rows", 8, 1 << 11},
		{"weighted proxy", 512, 32},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pool := statevec.NewPool()
			pool.Poison = true
			ws := &workspace{pool: pool}
			b := leafBatch{pool: pool, ups: statevec.MakeVectors(leafBatchK, tc.rows), los: make([]statevec.Vector, 0, leafBatchK)}
			// leaf returns a pair whose halves are released pool buffers
			// (NaN), with the upper rows the output reads and, unless
			// poisoned, the lower half filled.
			leaf := func(zeroRows, poisoned bool) *densePair {
				pool.Put(pool.Get(tc.nLo))
				pool.Put(pool.Get(tc.rows))
				p := ws.take(tc.nLo, tc.rows)
				for i := range tc.rows {
					p.up.SetAmplitude(i, 0)
					if !zeroRows {
						p.up.SetAmplitude(i, complex(rng.NormFloat64(), rng.NormFloat64()))
					}
				}
				for i := range tc.nLo {
					if !poisoned {
						p.lo.SetAmplitude(i, complex(rng.NormFloat64(), rng.NormFloat64()))
					}
				}
				return p
			}
			acc := statevec.MakeVector(tc.rows * tc.nLo)
			want := make([]complex128, acc.Len())
			for i, kind := range []string{"kept", "zero rows", "kept", "zero coefficient"} {
				coeff := complex(rng.NormFloat64(), rng.NormFloat64())
				p := leaf(kind == "zero rows", kind != "kept")
				if kind == "zero coefficient" {
					coeff = 0
				}
				up, lo := p.up.Clone(), p.lo.Clone()
				held := len(b.los)
				dropped := p.lo
				p.emit(&b, coeff)
				if kind != "kept" {
					if len(b.los) != held {
						t.Fatalf("leaf %d (%s) was added to the batch", i, kind)
					}
					if got := pool.Get(tc.nLo); &got.Re[0] != &dropped.Re[0] {
						t.Fatalf("leaf %d (%s): its lower half did not go back to the pool", i, kind)
					} else {
						pool.Put(got)
					}
					continue
				}
				if len(b.los) != held+1 {
					t.Fatalf("leaf %d was not added to the batch", i)
				}
				row, gotLo := b.ups[held], b.los[held]
				wantRow, wantLo := up.Slice(0, tc.rows), lo
				if tc.rows <= tc.nLo {
					wantRow = scaledBy(wantRow, coeff)
				} else {
					wantLo = scaledBy(wantLo, coeff)
				}
				for a := range tc.rows {
					if row.Amplitude(a) != wantRow.Amplitude(a) {
						t.Fatalf("leaf %d: table row %d is %v, want %v", i, a, row.Amplitude(a), wantRow.Amplitude(a))
					}
				}
				for x := range tc.nLo {
					if gotLo.Amplitude(x) != wantLo.Amplitude(x) {
						t.Fatalf("leaf %d: lower amplitude %d is %v, want %v", i, x, gotLo.Amplitude(x), wantLo.Amplitude(x))
					}
				}
				for x := range want {
					want[x] += coeff * up.Amplitude(x/tc.nLo) * lo.Amplitude(x%tc.nLo)
				}
			}
			if len(b.los) != 2 {
				t.Fatalf("batch holds %d leaves, want 2", len(b.los))
			}
			leafFold.FoldRowsN(acc, 0, b.ups, b.los)
			for x, w := range want {
				if d := cmplx.Abs(acc.Amplitude(x) - w); !(d <= 1e-12) { // NaN fails too
					t.Fatalf("amplitude %d is %v, want %v", x, acc.Amplitude(x), w)
				}
			}
			b.discard()
			if len(ws.free) != 1 { // every emit released its pair, the next take reused it
				t.Fatalf("%d pairs on the free list, want 1", len(ws.free))
			}
		})
	}
}

// scaledBy returns c·v amplitude by amplitude, with emit's arithmetic.
func scaledBy(v statevec.Vector, c complex128) statevec.Vector {
	w := v.Clone()
	weigh(w, v, c)
	return w
}
