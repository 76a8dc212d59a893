package statevec

import (
	"math/rand"
	"testing"

	"hsfsim/internal/gate"
)

// TestProjectionMatchesGateThenSlice holds a Projection against its
// definition: apply each contracted qubit's gate, then keep the amplitudes
// with every dropped qubit at 0. It covers plain and contracted rows, drops
// that include qubit 0 (runs of one amplitude) and the top qubit, and
// dropping every qubit, on every kernel arm.
func TestProjectionMatchesGateThenSlice(t *testing.T) {
	orig := KernelISA()
	defer func() {
		if err := SelectKernelISA(orig); err != nil {
			t.Fatalf("restoring arm %q: %v", orig, err)
		}
	}()
	for _, isa := range KernelISAs() {
		if err := SelectKernelISA(isa); err != nil {
			t.Fatal(err)
		}
		t.Run(isa, checkProjection)
	}
	if got := (*Projection)(nil).Apply(MakeVector(4)); got.Len() != 4 {
		t.Fatalf("nil projection returned %d amplitudes, want 4", got.Len())
	}
}

// checkProjection runs the cases on the installed arm.
func checkProjection(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for n := 1; n <= 9; n++ {
		for trial := 0; trial < 12; trial++ {
			var drop []int
			for q := 0; q < n; q++ {
				if rng.Intn(2) == 0 || (trial == 0 && q > 0) || trial == 1 {
					drop = append(drop, q)
				}
			}
			if len(drop) == 0 {
				drop = []int{rng.Intn(n)}
			}
			in := randomState(rng, n)
			ref := FromComplex(in)
			rows := make([][2]complex128, len(drop))
			for i, q := range drop {
				rows[i] = [2]complex128{1, 0}
				if rng.Intn(3) > 0 {
					g := gate.New("rand", randUnitary(rng, 2), nil, q)
					ref.ApplyGate(&g)
					rows[i] = [2]complex128{g.Matrix.Data[0], g.Matrix.Data[1]}
				}
			}
			got := NewProjection(drop, rows).Apply(FromComplex(in))
			if want := 1 << (n - len(drop)); got.Len() != want {
				t.Fatalf("n=%d drop %v: %d amplitudes, want %d", n, drop, got.Len(), want)
			}
			for i := 0; i < got.Len(); i++ {
				x := i
				for _, q := range drop {
					x = x>>q<<(q+1) | x&(1<<q-1)
				}
				if d := got.Amplitude(i) - ref.Amplitude(x); real(d)*real(d)+imag(d)*imag(d) > 1e-26 {
					t.Fatalf("n=%d drop %v rows %v: amplitude %d = %v, want %v", n, drop, rows, i, got.Amplitude(i), ref.Amplitude(x))
				}
			}
		}
	}
}

// TestProjectionPoolReturnsFullBuffer pins the pool contract the in-place
// projection relies on: a vector Apply shrank goes back at the length Get
// handed it out with, and a Get of that length reuses it.
func TestProjectionPoolReturnsFullBuffer(t *testing.T) {
	p := NewPool()
	v := p.Get(16)
	small := NewProjection([]int{2, 3}, [][2]complex128{{1, 0}, {1, 0}}).Apply(v)
	if small.Len() != 4 {
		t.Fatalf("projection left %d amplitudes, want 4", small.Len())
	}
	p.Put(small)
	if w := p.Get(16); w.Len() != 16 || &w.Re[0] != &v.Re[0] {
		t.Fatal("shrunken buffer did not come back at its full length")
	}
	if _, reuses := p.Stats(); reuses != 1 {
		t.Fatalf("reuses = %d, want 1", reuses)
	}
}
