package hsf

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/cmplx"
	"math/rand"
	"os"
	"testing"

	"hsfsim/internal/circuit"
	"hsfsim/internal/cmat"
	"hsfsim/internal/cut"
	"hsfsim/internal/gate"
	"hsfsim/internal/statevec"
	"hsfsim/internal/telemetry/trace"
)

// The tail suite's instances: nine qubits cut after qubit 4, so halves of 2^5
// lower and 2^4 upper amplitudes.
const tailN, tailCut = 9, 4

// phaseBlock is a diagonal gate of random phases on qubits: across the cut, a
// block whose Schmidt rank reaches 2^min of its sides, every term diagonal.
func phaseBlock(rng *rand.Rand, qubits ...int) gate.Gate {
	m := cmat.New(1<<len(qubits), 1<<len(qubits))
	for i := range m.Rows {
		m.Set(i, i, cmplx.Rect(1, 2*rng.Float64()))
	}
	return gate.New("phase-block", m, nil, qubits...)
}

// tailSpec shapes one tailCircuit.
type tailSpec struct {
	kept  int  // leading crossings on lower qubit 0, each turned by an RX after it
	tail  int  // crossings on lower qubits 2–4
	wide  bool // end on a three-by-three phase block after a kept RX on qubit 2
	cross bool // the middle tail crossing is a CNOT targeting a lower qubit
}

// tailCircuit builds a tailN-qubit circuit cut after tailCut whose lower side
// ends in cut terms that are mostly diagonal on it. After an H layer come the
// kept crossings: RZZs on lower qubit 0, each followed by an RX on it that
// the next one keeps in the tree. Then the tail on lower qubits 2–4, whose
// runs reach the span kernels: RZZ, CZ, CNOT controlled from below (an upper
// term that is not diagonal) and two-by-two phase blocks (rank up to 4), or
// in the middle of a crossed tail a CNOT targeting a lower qubit, whose lower
// term X no tail may pass; each is followed by an RX on an upper qubit. A wide circuit then
// turns qubit 2 by an RX between an RZZ and a three-by-three phase block
// (rank up to 8) on it, which keeps the RX right above the last cut. An RX
// layer closes the circuit: its lower mixers sink where the tree is deep
// enough, and otherwise keep the tail from firing.
func tailCircuit(rng *rand.Rand, s tailSpec) *circuit.Circuit {
	c := circuit.New(tailN)
	for q := range tailN {
		c.Append(gate.H(q))
	}
	up := func() int { return tailCut + 1 + rng.Intn(tailN-tailCut-1) }
	angle := func() float64 { return 0.2 + 2*rng.Float64() }
	for range s.kept {
		c.Append(gate.RZZ(angle(), 0, up()), gate.RX(angle(), 0))
	}
	for i := range s.tail {
		a, b := 2+rng.Intn(3), up()
		switch r := rng.Intn(4); {
		case s.cross && i == s.tail/2:
			c.Append(gate.CNOT(b, a))
		case r == 0:
			c.Append(gate.RZZ(angle(), a, b))
		case r == 1:
			c.Append(gate.CZ(a, b))
		case r == 2:
			c.Append(gate.CNOT(a, b))
		default:
			a2, b2 := 2+(a-1+rng.Intn(2))%3, tailCut+1+(b-tailCut)%(tailN-tailCut-1)
			c.Append(phaseBlock(rng, a, a2, b, b2))
		}
		c.Append(gate.RX(angle(), up()))
	}
	if s.wide {
		c.Append(gate.RZZ(angle(), 2, up()), gate.RX(angle(), 2), phaseBlock(rng, 2, 3, 4, 5, 6, 7))
	}
	for q := range tailN {
		c.Append(gate.RX(angle(), q))
	}
	return c
}

// tailCase is one generated instance of the tail suite.
type tailCase struct {
	name string
	circ *circuit.Circuit
	plan *cut.Plan
	want statevec.State
}

// tailCases generates the suite's circuits: per seed, plans with no kept
// crossing (the tail may start at the split) or two, wide ones and crossed
// ones, each also with a lower RX kept in the tree above the last cut only
// (lowerRX), which no tail may pass.
func tailCases(t *testing.T) (fire, lowerRX []tailCase) {
	t.Helper()
	specs := []tailSpec{{0, 6, false, true}, {2, 6, false, false}, {1, 4, true, false}, {0, 5, true, true}}
	for seed := int64(1); seed <= 2; seed++ {
		for i, s := range specs {
			rng := rand.New(rand.NewSource(100*seed + int64(i)))
			c := tailCircuit(rng, s)
			name := fmt.Sprintf("seed %d/%+v", seed, s)
			fire = append(fire, tailCase{name, c, buildPlan(t, c, tailCut, cut.StrategyNone), schrodinger(c)})
			// The RX on qubit 3 lands between the last two cuts, and the CZ
			// after it keeps it in the tree: only the last cut is below it,
			// and its two leaves per node are too few for a tail.
			k := circuit.New(tailN)
			k.Append(c.Gates...)
			k.Append(gate.CZ(3, tailN-1), gate.RX(0.7, 3), gate.CZ(3, tailN-2))
			lowerRX = append(lowerRX, tailCase{name + "/lower RX", k, buildPlan(t, k, tailCut, cut.StrategyNone), schrodinger(k)})
		}
	}
	return fire, lowerRX
}

// TestTailMatchesOracle is the diagonal tail's equivalence matrix: generated
// plans at a full output, one accumulator row and a ragged number of rows,
// and outputs below one lower half, on every kernel arm, at one, two and
// three workers, each run straight (unobserved, so each worker merges once)
// and failed inside a level-L subtree with a checkpoint writer (merging every
// task), then resumed from its checkpoint, all equal to the Schrödinger
// oracle at 1e-12.
// The rule must not fire below one lower half or with a lower RX above the
// last cut only, and where it fires no lower gate may sit below it. The
// cases must cover a tail at the split depth, at the last cut and in
// between, one cut short by a lower term that is not diagonal, a tail cut of
// rank ≥ 3, a tail term that is not diagonal on the upper side, and the full
// output. (A ragged output frees too few qubits for the lower mixers to
// sink, so it runs the plain walk here; the node fold's short last row is
// held to its oracle in statevec.)
func TestTailMatchesOracle(t *testing.T) {
	const dimLo = 1 << (tailCut + 1)
	fire, lowerRX := tailCases(t)
	seen := map[string]int{}
	check := func(t *testing.T, tc tailCase, m, workers int, mayFire bool) {
		t.Helper()
		name := fmt.Sprintf("%s/m=%d/workers %d", tc.name, m, workers)
		split := ChooseSplitLevels(tc.plan, 4*workers)
		e := compiledFor(tc.plan, m, 0, split)
		if L := e.tail.level; !mayFire && L >= 0 {
			t.Fatalf("%s: the tail fires at level %d", name, L)
		} else if L >= 0 {
			for l := L + 1; l < len(e.segs); l++ {
				if len(e.segs[l].gates[cut.Lower]) > 0 {
					t.Fatalf("%s: the tail at level %d passes the lower gates of segment %d", name, L, l)
				}
			}
			switch {
			case L == split:
				seen["at the split"]++
			case L == len(e.cuts)-1:
				seen["at the last cut"]++
			default:
				seen["in between"]++
			}
			for l := split; l < L; l++ {
				for _, r := range e.cuts[l].res[cut.Lower] {
					if r.kind == residualGate {
						seen["below a lower gate"]++
					}
				}
			}
			for l := L; l < len(e.cuts); l++ {
				if e.ranks[l] >= 3 {
					seen["rank ≥ 3"]++
				}
				for _, r := range e.cuts[l].res[cut.Upper] {
					if r.kind == residualGate {
						seen["upper not diagonal"]++
					}
				}
			}
			if m == 1<<tailN {
				seen["full output"]++
			}
		}
		opts := Options{Workers: workers, MaxAmplitudes: m}
		res, err := Run(tc.plan, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d := statevec.MaxAbsDiff(res.Amplitudes, tc.want[:m]); d > 1e-12 {
			t.Fatalf("%s: off the oracle by %g", name, d)
		}
		// Fail halfway through the leaves and half a level-L subtree more.
		np, _ := tc.plan.NumPaths()
		failAt := int64(np / 2)
		if L := e.tail.level; L >= 0 {
			perNode := int64(1)
			for _, r := range e.ranks[L:] {
				perNode *= int64(r)
			}
			failAt += perNode / 2
		}
		var buf bytes.Buffer
		failing := opts
		failing.FailAfterPaths, failing.CheckpointWriter = failAt, &buf
		if _, err := Run(tc.plan, failing); !errors.Is(err, ErrInjectedFault) {
			t.Fatalf("%s: err = %v, want ErrInjectedFault", name, err)
		}
		ck, err := ReadCheckpoint(&buf)
		if err != nil {
			t.Fatal(err)
		}
		resumed := opts
		resumed.Resume = ck
		if res, err = Run(tc.plan, resumed); err != nil {
			t.Fatalf("%s: resume: %v", name, err)
		}
		if d := statevec.MaxAbsDiff(res.Amplitudes, tc.want[:m]); d > 1e-12 {
			t.Fatalf("%s: resumed off the oracle by %g", name, d)
		}
	}
	eachArm(t, func(t *testing.T) {
		clear(seen)
		for _, workers := range []int{1, 2, 3} {
			for _, tc := range fire {
				for _, m := range []int{1 << tailN, dimLo, 5*dimLo + 16} {
					check(t, tc, m, workers, true)
				}
				for _, m := range []int{dimLo - 1, 5} {
					check(t, tc, m, workers, false)
				}
			}
			for _, tc := range lowerRX {
				check(t, tc, 1<<tailN, workers, false)
			}
		}
		for _, what := range []string{"at the split", "at the last cut", "in between", "below a lower gate", "rank ≥ 3", "upper not diagonal", "full output"} {
			if seen[what] == 0 {
				t.Errorf("no case fires the tail %s", what)
			}
		}
		t.Logf("tails fired: %v", seen)
	})
}

// TestTailResumesParentCheckpoint resumes a checkpoint written by the build
// before the diagonal tail: testdata/tail-parent.ckpt holds 512 of the 1 024
// paths of the wide tailCircuit of seed 102 for the first 64 amplitudes, two
// of four prefix tasks, interrupted by an injected fault on one worker. The
// new build walks the rest through a tail at the last cut, and the sum is the
// same, on one worker or two, to the Schrödinger oracle at 1e-12.
func TestTailResumesParentCheckpoint(t *testing.T) {
	const m = 64
	c := tailCircuit(rand.New(rand.NewSource(102)), tailSpec{1, 4, true, false})
	plan := buildPlan(t, c, tailCut, cut.StrategyNone)
	data, err := os.ReadFile("testdata/tail-parent.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	want := schrodinger(c)[:m]
	for _, workers := range []int{1, 2} {
		ck, err := ReadCheckpoint(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if ck.PathsSimulated != 512 || ck.M != m {
			t.Fatalf("fixture holds %d paths of %d amplitudes, want 512 of %d", ck.PathsSimulated, ck.M, m)
		}
		if e := compiledFor(plan, m, 0, ck.SplitLevels); e.tail.level != len(e.cuts)-1 {
			t.Fatalf("tail at level %d of %d cuts: the resume does not cross the rule", e.tail.level, len(e.cuts))
		}
		res, err := Run(plan, Options{Workers: workers, MaxAmplitudes: m, Resume: ck})
		if err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		if res.PathsSimulated != 1024 {
			t.Fatalf("%d workers: %d paths after the resume, want 1024", workers, res.PathsSimulated)
		}
		if d := statevec.MaxAbsDiff(res.Amplitudes, want); d > 1e-12 {
			t.Fatalf("%d workers: resumed parent checkpoint off the oracle by %g", workers, d)
		}
	}
}

// TestTailCostCoversWalker holds Cost to what one worker's walker holds when
// the tail fires, on joint-sweep (q22-3 at 2^14 amplitudes) and on a
// generated plan at its full output: after every prefix task has run, the
// buffers its pool allocated, the row table, the batch's coefficient table
// and the scratch accumulator sum to no more than Cost's per-worker figure.
// On joint-accum-par's shape (2^20 amplitudes, two workers) the run holds its
// nodes instead: its walkers have no row table and no scratch, and two of
// them (each as large as the one that walks every task here) with the node
// slabs and two tiles stay within Cost's two workers.
func TestTailCostCoversWalker(t *testing.T) {
	gen := tailCircuit(rand.New(rand.NewSource(102)), tailSpec{1, 4, true, false})
	for _, tc := range []struct {
		name string
		plan *cut.Plan
		m    int
	}{
		{"joint-sweep", q22Plan(t), 1 << 14},
		{"generated", buildPlan(t, gen, tailCut, cut.StrategyNone), 1 << tailN},
	} {
		split := ChooseSplitLevels(tc.plan, 4)
		e := compiledFor(tc.plan, tc.m, 0, split)
		if e.tail.level < 0 {
			t.Fatalf("%s: the tail does not fire", tc.name)
		}
		w := e.newWalker(nil)
		scratch := statevec.MakeVector(tc.m)
		for _, p := range EnumeratePrefixes(tc.plan, split) {
			scratch.Clear()
			if _, err := w.runTask(context.Background(), p, scratch); err != nil {
				t.Fatal(err)
			}
		}
		rows := int64(leafRows(tc.m, e.nLower))
		held := w.ws.pool.Bytes() + 16*int64(w.table.Len()) + 16*leafBatchK*rows + 16*int64(tc.m)
		est := Cost(tc.plan, Options{Workers: 1, MaxAmplitudes: tc.m})
		if est.PerWorkerBytes < held {
			t.Errorf("%s: Cost charges %d B per worker, the walker held %d", tc.name, est.PerWorkerBytes, held)
		}
		t.Logf("%s: Cost %d B per worker, walker %d", tc.name, est.PerWorkerBytes, held)
	}

	plan := q22Plan(t)
	const m, workers = 1 << 20, 2
	split := ChooseSplitLevels(plan, 4*workers)
	prefixes := EnumeratePrefixes(plan, split)
	e := compiledOn(plan, m, 0, split, workers)
	if !e.hold {
		t.Fatal("joint-accum-par: the run does not hold its nodes")
	}
	e.held = e.newNodeStore(len(prefixes), split)
	w := e.newWalker(nil)
	for i, p := range prefixes {
		w.slot = i * e.held.perTask
		if _, err := w.runTask(context.Background(), p, statevec.Vector{}); err != nil {
			t.Fatal(err)
		}
	}
	if w.table.Len() != 0 {
		t.Fatalf("joint-accum-par: a held run's walker has a %d-amplitude row table", w.table.Len())
	}
	nodes := len(e.held.los)
	walker := w.ws.pool.Bytes() + 16*leafBatchK*int64(leafRows(m, e.nLower))
	slabs := 16 * int64(nodes) * e.nodeAmps()
	tiles := 16 * int64(e.tile)
	est := Cost(plan, Options{Workers: workers, MaxAmplitudes: m})
	if got := workers*(walker+tiles) + slabs; got > workers*est.PerWorkerBytes {
		t.Errorf("joint-accum-par: Cost charges %d B for %d workers, the held run %d", workers*est.PerWorkerBytes, workers, got)
	} else {
		t.Logf("joint-accum-par: Cost %d B for %d workers, held run %d (%d in %d node slabs)", workers*est.PerWorkerBytes, workers, got, slabs, nodes)
	}
}

// TestTailCompileSpan checks what the "compile" span reports about the tail
// of one prefix task of q22-3 at the joint-sweep split: level 5 over five
// qubits at 2^14 amplitudes, and -1 over none at 2^10, below one lower half.
func TestTailCompileSpan(t *testing.T) {
	plan := q22Plan(t)
	split := ChooseSplitLevels(plan, 4)
	for _, tc := range []struct {
		m             int
		level, qubits int64
	}{{1 << 14, 5, 5}, {1 << 10, -1, 0}} {
		rec := trace.NewRecorder(64)
		ctx := trace.NewContext(context.Background(), rec, trace.SpanContext{})
		if _, err := RunPrefixesContext(ctx, plan, Options{Workers: 1, MaxAmplitudes: tc.m}, split, [][]int{make([]int, split)}); err != nil {
			t.Fatal(err)
		}
		found := false
		for _, ev := range rec.Snapshot() {
			if ev.Name == "compile" {
				found = true
				if l, q := ev.Int("tail_level", -2), ev.Int("tail_qubits", -2); l != tc.level || q != tc.qubits {
					t.Errorf("m = %d: compile span reports tail_level %d, tail_qubits %d; want %d, %d", tc.m, l, q, tc.level, tc.qubits)
				}
			}
		}
		if !found {
			t.Fatalf("m = %d: no compile span recorded", tc.m)
		}
	}
}
