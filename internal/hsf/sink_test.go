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
// cut often enough for a deep path tree, then an RX layer. Some CNOTs come as
// a cascade, two from one control, whose cut terms are not diagonal. A
// closing mixer sinks wherever no later crossing keeps it in the tree.
func sinkCircuit(rng *rand.Rand, n, gates int) *circuit.Circuit {
	c := circuit.New(n)
	for q := 0; q < n; q++ {
		c.Append(gate.H(q))
	}
	for len(c.Gates) < n+gates {
		a := rng.Intn(n)
		b := (a + 1 + rng.Intn(n-1)) % n
		switch rng.Intn(6) {
		case 5:
			c.Append(gate.CNOT(a, b))
			if b2 := (b + 1) % n; b2 != a {
				c.Append(gate.CNOT(a, b2))
			}
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
// circuits, outputs around one lower half, one, two and three workers, each
// run straight (unobserved, so each worker merges once), failed halfway with
// a checkpoint writer (merging every task) and resumed from its checkpoint,
// and as two RunPrefixesContext partials over disjoint prefix sets merged,
// all equal to the Schrödinger oracle at 1e-12. Gates must have sunk on both
// sides and at every output that frees a qubit, and every kind of cut-term
// residual, the elided identity, the diagonal and the term that is not
// diagonal, must have been written into a forked child.
func TestSinkMatchesOracle(t *testing.T) {
	const n, cutPos = 8, 3
	const dimLo = 1 << (cutPos + 1)
	ms := []int{1, dimLo - 1, dimLo, dimLo + 1, 2 * dimLo, 1 << n}
	runs := []Options{{Workers: 1}, {Workers: 2}, {Workers: 3}}
	sunk := map[int]int{}       // gates sunk per output size
	sides := map[cut.Side]int{} // gates sunk per side
	var forked [3]int           // forked residuals per kind
	ctx := context.Background()
	for seed := int64(1); seed <= 3; seed++ {
		circ := sinkCircuit(rand.New(rand.NewSource(seed)), n, 22)
		want := schrodinger(circ)
		for _, strategy := range []cut.Strategy{cut.StrategyNone, cut.StrategyCascade} {
			plan := buildPlan(t, circ, cutPos, strategy)
			np, _ := plan.NumPaths()
			for _, m := range ms {
				for _, run := range runs {
					name := fmt.Sprintf("seed %d/%v/m=%d/workers %d", seed, strategy, m, run.Workers)
					check := func(how string, got []complex128) {
						t.Helper()
						if d := statevec.MaxAbsDiff(got, want[:m]); d > 1e-12 {
							t.Fatalf("%s, %s: off the oracle by %g", name, how, d)
						}
					}
					run.MaxAmplitudes = m
					e := compiledFor(plan, m, -1, ChooseSplitLevels(plan, 4*max(run.Workers, 1)))
					for kind, n := range forkedKinds(e) {
						forked[kind] += n
					}
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
	if forked[residualIdentity] == 0 || forked[residualDiagonal] == 0 || forked[residualGate] == 0 {
		t.Errorf("forked residuals identity/diagonal/gate %v: some kind never reaches a written child", forked)
	}
	t.Logf("gates sunk per output size %v, per side %v; forked residuals identity/diagonal/gate %v", sunk, sides, forked)
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
		e := compiledFor(plan, 1<<n, -1, ChooseSplitLevels(plan, 4))
		sunk := slices.ContainsFunc(e.epiGates, func(g gate.Gate) bool { return g.Name == tc.probe })
		if sunk != tc.sinks {
			t.Errorf("%s: %s sinks = %v, want %v", tc.name, tc.probe, sunk, tc.sinks)
		}
		want := schrodinger(tc.c)
		for _, workers := range []int{1, 2} {
			res, err := Run(plan, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if d := statevec.MaxAbsDiff(res.Amplitudes, want); d > 1e-12 {
				t.Errorf("%s, %d workers: off the oracle by %g", tc.name, workers, d)
			}
		}
	}
}

// termPasses is how many passes over one side's state term t of cut c takes
// once its state is there: none for an elided identity, half for a phase
// diag(1, d) on one qubit, one for any other residual.
func termPasses(c *compiledCut, side cut.Side, t int) float64 {
	g := &c.terms[side][t]
	switch c.res[side][t].kind {
	case residualIdentity:
		return 0
	case residualDiagonal:
		if s, _ := splitScalar(g); g.NumQubits() == 1 && residualEntries(g, s)[0] == 1 {
			return 0.5
		}
	}
	return 1
}

// passes counts one side's passes over its state in one run of e that splits
// at splitLevels and merges accumulators merges times, as the walker makes
// them. Every gate of segment l runs once per replay M(l), and every epilogue
// gate on the side once per accumulator row of each merge. Each of the T =
// M(splitLevels) prefix tasks copies the
// shared root (a fork pass) and applies its prefix's terms in place. Below
// the prefix, each of the M(l) nodes at cut l writes r−1 forked children — a
// copy plus the term's passes each — and applies its last term in place.
// Below a diagonal tail the lower side's state is the 2^|Q|-amplitude proxy,
// so from cut L on a lower pass counts 2^|Q|/2^nLower of one, and each of
// the M(L) nodes writes its proxy φ = 1 once. The node folds, like the leaf
// folds, stream the accumulator and are not passes over a state.
func passes(e *engine, side cut.Side, splitLevels, merges int) float64 {
	var total float64
	replays, scale := 1.0, 1.0
	for l := range e.segs {
		total += replays * float64(len(e.segs[l].gates[side]))
		if l == len(e.cuts) {
			break
		}
		if side == cut.Lower && l == e.tail.level {
			scale = float64(int(1)<<len(e.tail.qubits)) / float64(int(1)<<e.nLower)
			total += replays * scale
		}
		c, r := &e.cuts[l], len(e.cuts[l].sigma)
		for t := range r {
			if l < splitLevels {
				total += replays * scale * termPasses(c, side, t)
			} else if t < r-1 {
				total += replays * scale * (1 + termPasses(c, side, t))
			} else {
				total += replays * scale * termPasses(c, side, t)
			}
		}
		replays *= float64(r)
	}
	tasks := 1.0
	for l := range splitLevels {
		tasks *= float64(e.ranks[l])
	}
	total += tasks // the root copies
	for i := range e.epiGates {
		if (e.epiGates[i].MaxQubit() < e.nLower) == (side == cut.Lower) {
			total += float64(merges * leafRows(e.m, e.nLower))
		}
	}
	return total
}

// TestQ22WalkPassBudget is the clock-free gate on the tree interior: the
// passes each side takes over its state per op, in segments, the fold
// epilogue, cut terms and forks (passes), for an unobserved run, where each
// worker merges once, or the one fold pass of a run that holds its nodes
// merges once in all. On q22-3 at 2^14 amplitudes with one worker
// (joint-sweep: 4 prefix tasks, 8 accumulator rows, one merge) the lower
// mixers on qubits 5–9 sink, so the lower half takes 114 segment passes and
// 1 · 8 · 5 = 40 epilogue row passes. Its cut terms are a scalar times I or Z
// on one qubit, so each node below the prefix copies one child and spends
// half a pass on the Z, 1.5 passes, and the prefix adds 4 root copies and
// 1.5. From cut 5 on only those terms remain, on qubits 5–9, so the diagonal
// tail fires at level 5 with a 32-amplitude proxy, 1/64 of the 2048-amplitude
// half: the 28 nodes at cuts 2–4 cost 42 passes, the 992 at cuts 5–9 cost
// 992 · 1.5/64 = 23.25, and writing the 32 nodes' proxies 0.5, 225.25 in all.
// With the epilogue run once per task, as before each worker merged once, it
// was 345.25; before the tail all 1 020 nodes cost a full 1.5, 1 809.5;
// applying every term as a full pass, as the engine did before the scalar
// split, the counts were 3 344 lower and 4 340 upper here, 5 168 / 6 901 on
// joint-accum-par and 380 / 275 on serve-plan.
//
// At 2^20 amplitudes on two workers (joint-accum-par: 8 tasks of 512 rows)
// sink's cost rule alone keeps the lower mixers in the tree, but with them
// sunk the same tail pays: its folds, 32 · 2^20 + 1 024 · 512 · 32, and five
// sunk gates at 8 · 2^20 each, less the (64 + … + 1 024) · 2^11 they no
// longer cost in segments 6–10, against 1 024 · 2^20 for the plain fold. Its
// 32 nodes of 2 048 + 512 · 32 amplitudes and two tiles of 4 rows fit in
// 2^20, so the run holds them and merges once. The lower half
// then takes the same 114 segment passes, 1 · 512 · 5 = 2 560 epilogue row
// passes, 8 root copies and 3.5 for the three prefix cuts, 36 for the 24
// nodes at cuts 3–4 and 23.75 below the tail, 2 745.25 (5 305.25 when each
// worker merged its scratch, 3 633.5 in the tree before the tail: the
// epilogue streams rows the fold no longer does per leaf). On the serve-plan
// shape (q20-3, 8-qubit windows, 2^14 amplitudes, one worker: ranks 4, 8, 2,
// four tasks of 16 rows) the tail fires at level 1 over the lower qubits 4,
// 7, 8 and 9, whose four mixers sink from segments 2 and 3, and its four
// nodes are held: 56 segment passes, 1 · 16 · 4 = 64 epilogue row passes, 4
// root copies and 5.75 in cut terms, forks and proxies, 129.75 from 332.
// Joint-sweep's 32 nodes of 2 048 + 8 · 32 amplitudes overflow its 2^14, so
// its one worker folds them into its scratch. No upper count moves.
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
		passes     [2]float64 // lower, upper
		sunk       []string
		tail       int  // the compile span's tail_level
		held       bool // an unobserved run holds its nodes
	}{
		{"joint-sweep", q22, 1 << 14, 1, [2]float64{225.25, 3566}, []string{"rx[5]", "rx[6]", "rx[7]", "rx[8]", "rx[9]"}, 5, false},
		{"joint-accum-par", q22, 1 << 20, 2, [2]float64{2745.25, 6127}, []string{"rx[5]", "rx[6]", "rx[7]", "rx[8]", "rx[9]"}, 5, true},
		{"serve-plan", serve, 1 << 14, 1, [2]float64{129.75, 227}, []string{"rx[4]", "rx[7]", "rx[8]", "rx[9]"}, 1, true},
	} {
		split := ChooseSplitLevels(tc.plan, 4*tc.workers)
		e := compiledOn(tc.plan, tc.m, 0, split, tc.workers)
		if e.tail.level != tc.tail {
			t.Errorf("%s: tail_level %d, want %d", tc.name, e.tail.level, tc.tail)
		}
		if e.hold != tc.held {
			t.Errorf("%s: hold %v, want %v", tc.name, e.hold, tc.held)
		}
		merges := tc.workers
		if e.hold {
			merges = 1
		}
		var sunk []string
		for _, g := range e.epiGates {
			sunk = append(sunk, fmt.Sprintf("%s%v", g.Name, g.Qubits))
		}
		if fmt.Sprint(sunk) != fmt.Sprint(tc.sunk) {
			t.Errorf("%s: epilogue %v, want %v", tc.name, sunk, tc.sunk)
		}
		for side, want := range tc.passes {
			if got := passes(e, cut.Side(side), split, merges); got != want {
				t.Errorf("%s: %g %v-half passes per op, want %g", tc.name, got, cut.Side(side), want)
			}
		}
	}
}
