package hsfsim

import (
	"context"
	"errors"
	"fmt"
	"math/cmplx"
	"math/rand"
	"runtime"
	"testing"

	"hsfsim/internal/graph"
	"hsfsim/internal/grcs"
	"hsfsim/internal/qaoa"
	"hsfsim/internal/statevec"
)

// gateByGate is the oracle that shares no compiled path with Simulate: the
// circuit's gates, cloned and unprepared, applied one full pass each.
func gateByGate(c *Circuit) statevec.Vector {
	v := statevec.NewVector(c.NumQubits)
	for i := range c.Gates {
		g := c.Gates[i].Clone()
		v.ApplyGate(&g)
	}
	return v
}

func checkSchrodinger(t *testing.T, c *Circuit, opts Options) *Result {
	t.Helper()
	opts.Method = Schrodinger
	res, err := Simulate(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := gateByGate(c)
	if m := opts.MaxAmplitudes; m > 0 && m < want.Len() {
		want = want.Slice(0, m)
	}
	if len(res.Amplitudes) != want.Len() {
		t.Fatalf("%d amplitudes, want %d", len(res.Amplitudes), want.Len())
	}
	for i, a := range res.Amplitudes {
		if !(cmplx.Abs(a-want.Amplitude(i)) <= 1e-12) {
			t.Fatalf("fusion %d: amplitude %d = %v, gate by gate %v", opts.FusionMaxQubits, i, a, want.Amplitude(i))
		}
	}
	return res
}

// TestProloguePeel pins which gates fold into the product state and checks
// the peeled run against the dense-matvec State oracle.
func TestProloguePeel(t *testing.T) {
	for _, tc := range []struct {
		name   string
		n      int
		gates  []Gate
		peeled int
	}{
		{"first gate on a qubit is 2-qubit: nothing of it peels", 3,
			[]Gate{CNOT(0, 1), H(0), H(1), H(2), RZZ(0.3, 1, 2), X(2)}, 1},
		{"X then H on one qubit", 2, []Gate{X(0), H(0), CZ(0, 1), H(0)}, 2},
		{"idle qubits", 4, []Gate{H(1), CNOT(1, 3)}, 1},
		{"1-qubit gates only", 3, []Gate{H(0), RX(0.4, 1), Y(2), T(0), RY(1.1, 1)}, 5},
		{"no gates", 2, nil, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCircuit(tc.n)
			c.Append(tc.gates...)
			_, peeled, rest := peelPrologue(c)
			if len(peeled) != tc.peeled || len(peeled)+len(rest) != len(tc.gates) {
				t.Fatalf("peeled %d and kept %d of %d gates, want %d peeled", len(peeled), len(rest), len(tc.gates), tc.peeled)
			}
			want := statevec.NewState(tc.n)
			for i := range c.Gates {
				g := c.Gates[i].Clone()
				want.ApplyGate(&g)
			}
			for _, fusion := range []int{-1, 0} {
				res, err := Simulate(c, Options{Method: Schrodinger, FusionMaxQubits: fusion})
				if err != nil {
					t.Fatal(err)
				}
				for i, a := range res.Amplitudes {
					if cmplx.Abs(a-want[i]) > 1e-12 {
						t.Fatalf("fusion %d: amplitude %d = %v, want %v", fusion, i, a, want[i])
					}
				}
			}
		})
	}
}

// mixerTraps builds an n-qubit circuit (n ≥ 16) whose 1-qubit gates above the
// 13-qubit tile boundary invite wrong pairs: a CNOT, CZ or CCZ on a high qubit
// between two high RX, two gates on one high qubit, diagonal high gates, a
// pair straddling the boundary — next to pairs that are right, with and
// without a gate to move past. With phaseFirst, an H layer and a CZ ring
// make the first step a phase step; without it, a CNOT chain comes first.
func mixerTraps(n int, phaseFirst bool, rng *rand.Rand) *Circuit {
	c := NewCircuit(n)
	for q := 0; q < n; q++ {
		c.Append(H(q))
	}
	if !phaseFirst {
		for q := n - 1; q > 0; q-- {
			c.Append(CNOT(q, q-1))
		}
	}
	for q := 0; q < n; q++ {
		c.Append(CZ(q, (q+1)%n))
	}
	th := func() float64 { return rng.Float64()*6 - 3 }
	c.Append(RX(th(), 13), CNOT(14, 2), RX(th(), 14), // an entangler on the second
		RX(th(), 15), CZ(13, 4), RX(th(), 13), // a diagonal entangler on the second
		RX(th(), 14), CCZ(1, 14, 15), RX(th(), 15), // a 3-qubit diagonal on both
		RX(th(), 13), RY(th(), 13), // one qubit twice
		RZ(th(), 14), T(15), RX(th(), 14), // diagonal high gates
		RX(th(), 12), RX(th(), 13), // straddling the boundary
		RX(th(), 14), CNOT(3, 5), RY(th(), 15), // a gate both may pass
		RX(th(), 13), RX(th(), 14)) // adjacent
	for q := 0; q < n; q++ {
		c.Append(RX(th(), q))
	}
	return c
}

// TestSchrodingerAboveOneTile runs circuits whose registers exceed one sweep
// tile — so the prologue, the gather, the phase step that writes the product
// state and the pairing of high 1-qubit gates are all live — with fusion off,
// default and wide, and full and prefix results.
func TestSchrodingerAboveOneTile(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	g, err := graph.TwoBlockModel(8, 8, 0.6, 0.2, rng)
	if err != nil {
		t.Fatal(err)
	}
	qaoa2, err := qaoa.Build(g, qaoa.Params{Gammas: []float64{0.7, 0.3}, Betas: []float64{0.5, 0.9}})
	if err != nil {
		t.Fatal(err)
	}
	fan := NewCircuit(15)
	for q := 0; q < 15; q++ {
		fan.Append(H(q))
	}
	for layer := 0; layer < 2; layer++ {
		for q := 0; q < 13; q++ {
			fan.Append(CZ(q, 14), CPhase(rng.Float64(), 13, q))
		}
		fan.Append(RX(0.3, 14), CCZ(0, 1, 14), T(13), SX(13))
	}
	layers, err := grcs.Generate(grcs.Options{Rows: 4, Cols: 4, Depth: 6, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		c     *Circuit
		phase bool // enough diagonal gates reach the tile boundary for a phase step
		first bool // the first step is a phase step, which writes the product state
		pairs bool // with fusion off, some high 1-qubit gates pair
	}{
		{"qaoa-p2-q16", qaoa2, true, true, true},
		{"cz-fan-q15", fan, true, true, true},
		{"grcs-4x4-d6", layers, true, true, true},
		{"mixer-traps-q16", mixerTraps(16, true, rng), true, true, true},
		{"mixer-traps-product-first-q16", mixerTraps(16, false, rng), true, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, fusion := range []int{-1, 0, 3} {
				for _, m := range []int{0, 1000, 1<<13 + 1} {
					checkSchrodinger(t, tc.c, Options{FusionMaxQubits: fusion, MaxAmplitudes: m})
				}
			}
			cp, err := Compile(tc.c, Options{Method: Schrodinger, FusionMaxQubits: -1})
			if err != nil {
				t.Fatal(err)
			}
			if tc.phase && len(phaseSteps(cp.seg)) == 0 {
				t.Error("no phase step: the circuit does not exercise the table-driven pass")
			}
			if kind, _ := cp.seg.Step(0); (kind == statevec.StepPhase) != tc.first {
				t.Errorf("first step is a %v step, want a phase step: %v", kind, tc.first)
			}
			pairs := 0
			for i := 0; i < cp.seg.NumSteps(); i++ {
				if kind, gates := cp.seg.Step(i); kind == statevec.StepHigh && gates == 2 {
					pairs++
				}
			}
			if (pairs > 0) != tc.pairs {
				t.Errorf("%d paired steps, want some: %v", pairs, tc.pairs)
			}
		})
	}
}

// allocated returns the bytes fn allocates, averaged over runs.
func allocated(runs int, fn func()) int64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return int64(after.TotalAlloc-before.TotalAlloc) / int64(runs)
}

// TestSchrodingerCostCoversAllocation: the admission estimate must bound what
// a run allocates — the planes beside the result (only the real one when the
// run returns the whole state and sweeps inside it), the result actually
// returned (not a second full state when only a prefix is asked for), the
// phase tables — and a budget the old 16·2^n estimate passed must now reject
// a full-state run. At 28 qubits, where nothing is run, a full-state run is
// estimated at 24·2^28 bytes and its tables.
func TestSchrodingerCostCoversAllocation(t *testing.T) {
	const n = 16
	g, err := graph.TwoBlockModel(n/2, n/2, 0.6, 0.2, rand.New(rand.NewSource(52)))
	if err != nil {
		t.Fatal(err)
	}
	c, err := qaoa.Build(g, qaoa.SingleLayer())
	if err != nil {
		t.Fatal(err)
	}
	const state = int64(16) << n
	for _, m := range []int{0, 1024} {
		opts := Options{Method: Schrodinger, MaxAmplitudes: m, Workers: 1}
		cp, err := Compile(c, opts)
		if err != nil {
			t.Fatal(err)
		}
		est := cp.EstimateCost(opts).TotalBytes
		if direct, err := EstimateCost(c, opts); err != nil || direct.TotalBytes != est {
			t.Fatalf("m=%d: EstimateCost = %+v, %v; the compiled plan says %d", m, direct, err, est)
		}
		run := allocated(3, func() {
			if _, err := SimulateCompiled(cp, opts); err != nil {
				t.Fatal(err)
			}
		})
		// The run allocates the planes and the result (large objects round up
		// to whole pages); the estimate also holds the tables Compile built.
		t.Logf("m=%d: estimate %d B, run allocates %d B, tables %d B", m, est, run, cp.seg.TableBytes())
		planes, result := state/2, state
		if m > 0 {
			planes, result = state, 16*int64(m)
		}
		if want := planes + result + cp.seg.TableBytes(); est != want {
			t.Errorf("m=%d: estimate %d B, want planes + result + tables = %d B", m, est, want)
		}
		if run > est || run < planes+result {
			t.Errorf("m=%d: run allocates %d B, want within [planes + result = %d, estimate = %d]", m, run, planes+result, est)
		}
	}
	// 16·2^n was the whole estimate before the result was charged: it
	// admitted a run that allocates 1.5 times that.
	_, err = Simulate(c, Options{Method: Schrodinger, MemoryBudget: state + state/4})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("budget of 1.25 states on a full-state run: err = %v, want ErrBudget", err)
	}
	if _, err := Simulate(c, Options{Method: Schrodinger, MemoryBudget: state + state/4, MaxAmplitudes: 1024}); err != nil {
		t.Fatalf("the same budget with 1024 amplitudes: %v", err)
	}

	g28, err := graph.TwoBlockModel(14, 14, 0.6, 0.2, rand.New(rand.NewSource(53)))
	if err != nil {
		t.Fatal(err)
	}
	c28, err := qaoa.Build(g28, qaoa.SingleLayer())
	if err != nil {
		t.Fatal(err)
	}
	est, err := EstimateCost(c28, Options{Method: Schrodinger})
	if err != nil {
		t.Fatal(err)
	}
	if limit := int64(61) << 30 / 10; est.TotalBytes < 24<<28 || est.TotalBytes > limit {
		t.Errorf("q28 full-state estimate %d B, want within [24·2^28 = %d, 6.1 GiB = %d]", est.TotalBytes, int64(24)<<28, limit)
	}
}

// TestSchrodingerFingerprintPinned: the plan key hashes the circuit and the
// plan-affecting options only; how the sweep is compiled must not move it
// (cached plans and checkpoints are addressed by it).
func TestSchrodingerFingerprintPinned(t *testing.T) {
	c := NewCircuit(3)
	c.Append(H(0), H(1), RZZ(0.25, 0, 1), CNOT(1, 2), RX(0.5, 2))
	for _, tc := range []struct {
		opts Options
		want uint64
	}{
		{Options{Method: Schrodinger}, 0xf7b90ac556110501},
		{Options{Method: Schrodinger, FusionMaxQubits: -1}, 0x7661c97966931f79},
		{Options{Method: JointHSF, CutPos: 0}, 0xc3bf0fb016227682},
	} {
		got, err := Fingerprint(c, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("Fingerprint(%+v) = %#x, want %#x", tc.opts.Method, got, tc.want)
		}
	}
}

// inResultCircuit builds an n-qubit circuit (n > 13) for the sweep inside the
// result: an H layer (the prologue); with writes, a ZZ layer reaching above
// the tile boundary first, a phase step that writes the product state, and
// else a CNOT chain before it, so that the run starts from the written
// product state; then an RX layer, whose tiled run below the boundary moves
// behind the high mixers — unless blocked, when a closing CNOT from qubit 0
// onto the top qubit, which RX on qubit 0 does not commute with, holds it in
// front and a tiled step with no gates ends the segment.
func inResultCircuit(n int, writes, blocked bool, rng *rand.Rand) *Circuit {
	th := func() float64 { return rng.Float64()*6 - 3 }
	c := NewCircuit(n)
	for q := 0; q < n; q++ {
		c.Append(H(q))
	}
	for q := n - 1; !writes && q > 0; q-- {
		c.Append(CNOT(q, q-1))
	}
	for q := 0; q < n; q++ {
		c.Append(RZZ(th(), q, (q+1)%n), RZZ(th(), q, (q+5)%n))
	}
	for q := 0; q < n; q++ {
		c.Append(RX(th(), q))
	}
	if blocked {
		c.Append(CNOT(0, n-1))
	}
	return c
}

// TestSchrodingerSweepsInResult: a Schrödinger run sweeps inside its result —
// the imaginary plane in the result's upper half, the last step interleaving
// in waves — or, for a prefix, beside it. From 2 tiles to 32, for the full
// state and prefixes of 1, one tile and one tile plus 5 amplitudes, from a
// written and a phase-written start, with a last step that moves and one that
// cannot, with 1 and 4 workers and at GOMAXPROCS 1, every amplitude equals
// the planes-then-CopyToComplex run of the same segment bit for bit and the
// dense oracle at 1e-12. A cancelled run returns the context's error.
func TestSchrodingerSweepsInResult(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	for n := 14; n <= 18; n++ {
		for _, writes := range []bool{true, false} {
			for _, blocked := range []bool{false, true} {
				c := inResultCircuit(n, writes, blocked, rng)
				opts := Options{Method: Schrodinger, FusionMaxQubits: -1}
				cp, err := Compile(c, opts)
				if err != nil {
					t.Fatal(err)
				}
				seg := cp.seg
				name := fmt.Sprintf("n=%d writes=%v blocked=%v", n, writes, blocked)
				if kind, _ := seg.Step(0); (kind == statevec.StepPhase) != writes {
					t.Fatalf("%s: first step is a %v step", name, kind)
				}
				if kind, gates := seg.Step(seg.NumSteps() - 1); kind != statevec.StepTiled || (gates == 0) != blocked {
					t.Fatalf("%s: last step is %d gates of kind %v", name, gates, kind)
				}
				if kind, _ := seg.Step(seg.NumSteps() - 2); kind != statevec.StepHigh {
					t.Fatalf("%s: step before the last is a %v step, want the high mixers it passed or stopped at", name, kind)
				}
				oracle := statevec.NewState(n)
				for i := range c.Gates {
					g := c.Gates[i].Clone()
					oracle.ApplyGate(&g)
				}
				planes := seg.NewState()
				seg.Apply(planes)
				check := func(run string, workers int) {
					for _, m := range []int{0, 1, 1 << 13, 1<<13 + 5} {
						opts.Workers, opts.MaxAmplitudes = workers, m
						res, err := SimulateCompiled(cp, opts)
						if err != nil {
							t.Fatal(err)
						}
						want := planes
						if m > 0 {
							want = planes.Slice(0, m)
						}
						if len(res.Amplitudes) != want.Len() {
							t.Fatalf("%s %s m=%d: %d amplitudes, want %d", name, run, m, len(res.Amplitudes), want.Len())
						}
						for i, a := range res.Amplitudes {
							if a != want.Amplitude(i) || !(cmplx.Abs(a-oracle[i]) <= 1e-12) {
								t.Fatalf("%s %s m=%d: amplitude %d = %v, planes %v, oracle %v", name, run, m, i, a, want.Amplitude(i), oracle[i])
							}
						}
					}
				}
				check("workers=1", 1)
				check("workers=4", 4)
				func() {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
					check("GOMAXPROCS=1", 0)
				}()
			}
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := SimulateContext(ctx, inResultCircuit(14, true, false, rng), Options{Method: Schrodinger})
	if res != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: %v, %v; want no result and context.Canceled", res, err)
	}
}
