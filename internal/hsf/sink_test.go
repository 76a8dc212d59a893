package hsf

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"hsfsim/internal/circuit"
	"hsfsim/internal/cut"
	"hsfsim/internal/gate"
	"hsfsim/internal/statevec"
)

// sinkCircuit is a random RZZ/CZ/CNOT/RX/H circuit on n qubits: an H layer,
// then gates random gates on random qubits, whose two-qubit ones cross the
// cut often enough for a deep path tree, then an RX layer. A closing mixer
// sinks wherever no later crossing keeps it in the tree.
func sinkCircuit(rng *rand.Rand, n, gates int) *circuit.Circuit {
	c := circuit.New(n)
	for q := 0; q < n; q++ {
		c.Append(gate.H(q))
	}
	for range gates {
		a := rng.Intn(n)
		b := (a + 1 + rng.Intn(n-1)) % n
		switch rng.Intn(5) {
		case 0:
			c.Append(gate.RZZ(rng.Float64()*2, a, b))
		case 1:
			c.Append(gate.CZ(a, b))
		case 2:
			c.Append(gate.CNOT(a, b))
		case 3:
			c.Append(gate.RX(rng.Float64(), a))
		default:
			c.Append(gate.H(a))
		}
	}
	for q := 0; q < n; q++ {
		c.Append(gate.RX(rng.Float64(), q))
	}
	return c
}

// TestSinkMatchesOracle is the fold epilogue's equivalence matrix: random
// circuits, outputs around one lower half, dense with one and two workers
// and DD, each run straight, failed halfway and resumed from its checkpoint,
// and as two RunPrefixesContext partials over disjoint prefix sets merged,
// all equal to the Schrödinger oracle at 1e-12. Gates must have sunk on both
// sides and at every output that frees a qubit.
func TestSinkMatchesOracle(t *testing.T) {
	const n, cutPos = 8, 3
	const dimLo = 1 << (cutPos + 1)
	ms := []int{1, dimLo - 1, dimLo, dimLo + 1, 2 * dimLo, 1 << n}
	runs := []Options{{Workers: 1}, {Workers: 2}, {Backend: BackendDD}}
	sunk := map[int]int{}       // gates sunk per output size
	sides := map[cut.Side]int{} // gates sunk per side
	ctx := context.Background()
	for seed := int64(1); seed <= 3; seed++ {
		circ := sinkCircuit(rand.New(rand.NewSource(seed)), n, 28)
		want := schrodinger(circ)
		for _, strategy := range []cut.Strategy{cut.StrategyNone, cut.StrategyCascade} {
			plan := buildPlan(t, circ, cutPos, strategy)
			np, _ := plan.NumPaths()
			for _, m := range ms {
				for _, run := range runs {
					name := fmt.Sprintf("seed %d/%v/m=%d/%v/workers %d", seed, strategy, m, run.Backend, run.Workers)
					check := func(how string, got []complex128) {
						t.Helper()
						if d := statevec.MaxAbsDiff(got, want[:m]); d > 1e-12 {
							t.Fatalf("%s, %s: off the oracle by %g", name, how, d)
						}
					}
					run.MaxAmplitudes = m
					e := compiledFor(plan, BackendDense, m, -1, ChooseSplitLevels(plan, 4*max(run.Workers, 1)))
					for _, g := range e.epiGates { // unfused: one per sunk gate
						sunk[m]++
						if g.MaxQubit() < e.nLower {
							sides[cut.Lower]++
						} else {
							sides[cut.Upper]++
						}
					}

					res, err := Run(plan, run)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					check("straight", res.Amplitudes)

					var buf bytes.Buffer
					failing := run
					failing.FailAfterPaths, failing.CheckpointWriter = int64(np/2), &buf
					if _, err := Run(plan, failing); !errors.Is(err, ErrInjectedFault) {
						t.Fatalf("%s: err = %v, want ErrInjectedFault", name, err)
					}
					ck, err := ReadCheckpoint(&buf)
					if err != nil {
						t.Fatal(err)
					}
					resumed := run
					resumed.Resume = ck
					if res, err = Run(plan, resumed); err != nil {
						t.Fatalf("%s: resume: %v", name, err)
					}
					check("resumed", res.Amplitudes)

					split := ChooseSplitLevels(plan, 4)
					prefixes := EnumeratePrefixes(plan, split)
					half := len(prefixes) / 2
					a, err := RunPrefixesContext(ctx, plan, run, split, prefixes[:half])
					if err != nil {
						t.Fatal(err)
					}
					b, err := RunPrefixesContext(ctx, plan, run, split, prefixes[half:])
					if err != nil {
						t.Fatal(err)
					}
					if err := a.Merge(b); err != nil {
						t.Fatal(err)
					}
					check("merged partials", a.Acc)
				}
			}
		}
	}
	for _, m := range []int{dimLo, 2 * dimLo, 1 << n} {
		if sunk[m] == 0 {
			t.Errorf("m = %d: no gate sank in any case", m)
		}
	}
	if sides[cut.Lower] == 0 || sides[cut.Upper] == 0 {
		t.Errorf("gates sunk per side %v: the matrix exercises less than it claims", sides)
	}
	t.Logf("gates sunk per output size %v, per side %v", sunk, sides)
}

// TestSinkLegality holds the block rule: after eight crossings on qubit 0 the
// tree is deep enough for a mixer on lower qubit 1 to sink on cost alone, so
// whether it does is decided by what follows it. A gate followed by a cut
// term or a kept gate it does not commute with stays in the tree; a mixer
// with nothing after it, and a CZ followed only by diagonal cut terms, sink.
// Every case also matches the oracle at 1e-12.
func TestSinkLegality(t *testing.T) {
	const n, cutPos = 8, 3
	deep := func(tail ...gate.Gate) *circuit.Circuit {
		c := circuit.New(n)
		for q := 0; q < n; q++ {
			c.Append(gate.H(q))
		}
		for i := range 8 {
			c.Append(gate.RZZ(0.3+0.1*float64(i), 0, 4+i%4))
		}
		// A crossing on qubit 1 puts what follows on it into a deep segment.
		c.Append(gate.RZZ(0.9, 1, 6))
		c.Append(tail...)
		return c
	}
	cases := []struct {
		name  string
		c     *circuit.Circuit
		probe string // the gate under test: the plan's only one of that name
		sinks bool
	}{
		{"last-rx", deep(gate.RX(0.4, 1)), "rx", true},
		{"rx-before-cut", deep(gate.RX(0.4, 1), gate.RZZ(0.5, 1, 5)), "rx", false},
		// The CNOT's target crosses later, so the CNOT stays, and its
		// control is not diagonal on qubit 1 for the mixer.
		{"rx-before-kept-cnot", deep(gate.RX(0.4, 1), gate.CNOT(1, 2), gate.RZZ(0.5, 2, 7)), "rx", false},
		{"cz-past-diagonal-cut", deep(gate.RX(0.4, 1), gate.CZ(1, 2), gate.RZZ(0.5, 1, 5)), "cz", true},
	}
	for _, tc := range cases {
		plan := buildPlan(t, tc.c, cutPos, cut.StrategyNone)
		e := compiledFor(plan, BackendDense, 1<<n, -1, ChooseSplitLevels(plan, 4))
		sunk := slices.ContainsFunc(e.epiGates, func(g gate.Gate) bool { return g.Name == tc.probe })
		if sunk != tc.sinks {
			t.Errorf("%s: %s sinks = %v, want %v", tc.name, tc.probe, sunk, tc.sinks)
		}
		want := schrodinger(tc.c)
		for _, run := range []Options{{Workers: 1}, {Backend: BackendDD}} {
			res, err := Run(plan, run)
			if err != nil {
				t.Fatal(err)
			}
			if d := statevec.MaxAbsDiff(res.Amplitudes, want); d > 1e-12 {
				t.Errorf("%s on %v: off the oracle by %g", tc.name, run.Backend, d)
			}
		}
	}
}

// lowerPasses counts the lower-half gate passes of one run of e that splits
// at splitLevels: every lower gate of segment l once per replay M(l), and
// every epilogue gate once per accumulator row of each of the T prefix tasks.
func lowerPasses(e *engine, splitLevels int) int64 {
	var passes, tasks int64
	replays := int64(1)
	for l := range e.segs {
		if l == splitLevels {
			tasks = replays
		}
		passes += replays * int64(len(e.segs[l].gates[cut.Lower]))
		if l < len(e.ranks) {
			replays *= int64(e.ranks[l])
		}
	}
	for i := range e.epiGates {
		if e.epiGates[i].MaxQubit() < e.nLower {
			passes += tasks * int64(leafRows(e.m, e.nLower))
		}
	}
	return passes
}

// TestQ22WalkPassBudget is the clock-free gate on the fold epilogue. On q22-3
// at 2^14 amplitudes with one worker (joint-sweep: 4 prefix tasks, 8
// accumulator rows) the lower mixers on qubits 5–9 sink, and the lower half
// takes 114 segment passes plus 4 · 8 · 5 epilogue row passes, against 2 098
// segment passes when every mixer replays in the tree. At 2^20 amplitudes on
// two workers (joint-accum-par: 8 tasks of 512 rows) nothing is cheaper after
// the fold. On the serve-plan shape (q20-3, 8-qubit windows, 2^14
// amplitudes, one worker) the leaf segment's lower gate sits exactly at the
// rule's tie, 64 · 2^10 = 4 · 2^14, so nothing sinks there either.
func TestQ22WalkPassBudget(t *testing.T) {
	q22 := q22Plan(t)
	serve, err := cut.BuildPlan(sbmCircuit(t, 10, 2003), cut.Options{Partition: cut.Partition{CutPos: 9},
		Strategy: cut.StrategyWindow, MaxBlockQubits: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name       string
		plan       *cut.Plan
		m, workers int
		passes     int64
		sunk       []string
	}{
		{"joint-sweep", q22, 1 << 14, 1, 114 + 160, []string{"rx[5]", "rx[6]", "rx[7]", "rx[8]", "rx[9]"}},
		{"joint-accum-par", q22, 1 << 20, 2, 2098, nil},
		{"serve-plan", serve, 1 << 14, 1, 216, nil},
	} {
		split := ChooseSplitLevels(tc.plan, 4*tc.workers)
		e := compiledFor(tc.plan, BackendDense, tc.m, 0, split)
		var sunk []string
		for _, g := range e.epiGates {
			sunk = append(sunk, fmt.Sprintf("%s%v", g.Name, g.Qubits))
		}
		if fmt.Sprint(sunk) != fmt.Sprint(tc.sunk) {
			t.Errorf("%s: epilogue %v, want %v", tc.name, sunk, tc.sunk)
		}
		if got := lowerPasses(e, split); got != tc.passes {
			t.Errorf("%s: %d lower-half passes per op, want %d", tc.name, got, tc.passes)
		}
	}
}
