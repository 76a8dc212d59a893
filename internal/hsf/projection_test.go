package hsf

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"hsfsim/internal/circuit"
	"hsfsim/internal/cut"
	"hsfsim/internal/gate"
	"hsfsim/internal/statevec"
	"hsfsim/internal/telemetry/trace"
)

// compiledFor lowers plan for an m-amplitude output, split at splitLevels, on
// a bare engine (no telemetry, no tracing).
func compiledFor(plan *cut.Plan, m, fusionMaxQubits, splitLevels int) *engine {
	return compiledOn(plan, m, fusionMaxQubits, splitLevels, 0)
}

// compiledOn is compiledFor for an unobserved run on workers walkers, whose
// count the hold rule reads.
func compiledOn(plan *cut.Plan, m, fusionMaxQubits, splitLevels, workers int) *engine {
	e := &engine{
		nLower:  plan.Partition.NumLower(),
		nUpper:  plan.Partition.NumUpper(plan.NumQubits),
		m:       m,
		workers: workers,
	}
	e.compile(plan, analyze(plan, m, splitLevels), fusionMaxQubits)
	return e
}

// eachArm runs f once per kernel arm of this build, then restores the arm the
// process started with.
func eachArm(t *testing.T, f func(t *testing.T)) {
	orig := statevec.KernelISA()
	defer func() {
		if err := statevec.SelectKernelISA(orig); err != nil {
			t.Fatalf("restoring arm %q: %v", orig, err)
		}
	}()
	for _, isa := range statevec.KernelISAs() {
		if err := statevec.SelectKernelISA(isa); err != nil {
			t.Fatal(err)
		}
		t.Run(isa, f)
	}
}

// coneCircuit builds an n-qubit circuit, cut after cutPos, whose qubits end in
// the ways the cone tells apart. After an opening H layer and four crossings,
// qubit q ends on a 1-qubit gate (q%4 == 0), on a CNOT inside its partition
// (1), or on a crossing RZZ that becomes a cut term (2); qubits with q%4 == 3
// are touched by nothing after the opening layer.
func coneCircuit(rng *rand.Rand, n, cutPos int) *circuit.Circuit {
	busy := func(lo, hi int) int { // a random qubit of [lo, hi] not kept idle
		for {
			if q := lo + rng.Intn(hi-lo+1); q%4 != 3 {
				return q
			}
		}
	}
	c := circuit.New(n)
	for q := 0; q < n; q++ {
		c.Append(gate.H(q))
	}
	for i := 0; i < 4; i++ {
		a, b := busy(0, cutPos), busy(cutPos+1, n-1)
		c.Append(gate.RZZ(rng.Float64(), a, b), gate.RX(rng.Float64(), a), gate.RY(rng.Float64(), b))
	}
	for q := 0; q < n; q++ {
		lo, hi := 0, cutPos
		if q > cutPos {
			lo, hi = cutPos+1, n-1
		}
		switch q % 4 {
		case 0:
			c.Append(gate.RX(rng.Float64(), q))
		case 1:
			if q+1 <= hi {
				c.Append(gate.CNOT(q, q+1))
			} else if q-1 >= lo {
				c.Append(gate.CNOT(q, q-1))
			}
		case 2:
			other := busy(cutPos+1, n-1)
			if q > cutPos {
				other = busy(0, cutPos)
			}
			c.Append(gate.RZZ(rng.Float64(), q, other))
		}
	}
	return c
}

// unprojected compiles plan, unfused, for the full output, where the cone
// drops nothing. Split at the last cut, nothing is cheaper after the fold than
// in the tree for the outputs these tests use, so the epilogue stays empty
// and the gate lists are those of any m before the cone applies.
func unprojected(t *testing.T, plan *cut.Plan) *engine {
	t.Helper()
	e := compiledFor(plan, 1<<plan.NumQubits, -1, len(plan.Cuts))
	if len(e.epiGates) != 0 {
		t.Fatalf("the unprojected reference sank %d gates", len(e.epiGates))
	}
	return e
}

// coneKinds classifies where plan's cone drops qubits for an m-amplitude
// output, comparing the engine's gate lists with the unprojected ones (both
// unfused, neither sinking): after segment 0, at a cut, with a contracted
// 1-qubit gate after a later segment, or as a plain slice there.
func coneKinds(t *testing.T, plan *cut.Plan, m int) (kinds map[string]bool) {
	dense := compiledFor(plan, m, -1, len(plan.Cuts))
	if len(dense.epiGates) != 0 {
		t.Fatalf("m = %d: %d gates sank", m, len(dense.epiGates))
	}
	ref := unprojected(t, plan)
	kinds = map[string]bool{}
	for side := range 2 {
		kinds["segment 0"] = kinds["segment 0"] || dense.segs[0].proj[side] != nil
		for l := range dense.cuts {
			kinds["cut"] = kinds["cut"] || dense.cuts[l].proj[side] != nil
		}
		for s := 1; s < len(dense.segs); s++ {
			removed := len(ref.segs[s].gates[side]) - len(dense.segs[s].gates[side])
			kinds["contracted"] = kinds["contracted"] || removed > 0
			kinds["plain"] = kinds["plain"] || dense.segs[s].proj[side].NumDropped() > removed
		}
	}
	return kinds
}

// unprojectedCost is Cost's per-worker figure without the cone: every pair of
// the clone chain at full size.
func unprojectedCost(plan *cut.Plan, m int) int64 {
	nLower, nUpper := plan.Partition.NumLower(), plan.Partition.NumUpper(plan.NumQubits)
	pair := int64(16) * (1<<nLower + 1<<nUpper)
	return pair*int64(len(plan.Cuts)+2) + 16*int64(m) + (leafBatchK-1)*16<<nLower + int64(leafBatchK*leafRows(m, nLower))*16
}

// TestProjectionMatchesOracle holds the cone against the Schrödinger oracle
// at 1e-12 on random circuits whose output-fixed qubits end on every kind of
// item, for outputs around one lower half and the full output (where the cone
// drops nothing), one and two workers, and every kernel arm. The cone must have
// dropped qubits in all four places somewhere over the cases, and Cost must
// never charge more than the unprojected chain.
func TestProjectionMatchesOracle(t *testing.T) {
	const n, cutPos = 8, 3
	const dimLo = 1 << (cutPos + 1)
	ms := []int{1, 3, dimLo - 1, dimLo, dimLo + 1, 2*dimLo + 3, 1 << n}
	seen := map[string]bool{}
	type instance struct {
		name string
		plan *cut.Plan
		want statevec.State
	}
	var cases []instance
	for seed := int64(1); seed <= 4; seed++ {
		circ := coneCircuit(rand.New(rand.NewSource(seed)), n, cutPos)
		for _, strategy := range []cut.Strategy{cut.StrategyNone, cut.StrategyCascade} {
			plan := buildPlan(t, circ, cutPos, strategy)
			cases = append(cases, instance{fmt.Sprintf("seed %d/%v", seed, strategy), plan, schrodinger(circ)})
			for _, m := range ms {
				for kind, ok := range coneKinds(t, plan, m) {
					seen[kind] = seen[kind] || ok
				}
				if est := Cost(plan, Options{Workers: 1, MaxAmplitudes: m}); est.PerWorkerBytes > unprojectedCost(plan, m) {
					t.Fatalf("seed %d, m = %d: Cost charges %d B per worker, over the unprojected %d", seed, m, est.PerWorkerBytes, unprojectedCost(plan, m))
				}
			}
		}
	}
	for _, kind := range []string{"segment 0", "cut", "contracted", "plain"} {
		if !seen[kind] {
			t.Fatalf("no case drops a qubit at %s: the cases exercise less than they claim", kind)
		}
	}
	eachArm(t, func(t *testing.T) {
		for _, tc := range cases {
			for _, m := range ms {
				for _, workers := range []int{1, 2} {
					res, err := Run(tc.plan, Options{Workers: workers, MaxAmplitudes: m})
					if err != nil {
						t.Fatal(err)
					}
					if d := statevec.MaxAbsDiff(res.Amplitudes, tc.want[:m]); d > 1e-12 {
						t.Fatalf("%s, %d workers, m = %d: off the oracle by %g", tc.name, workers, m, d)
					}
				}
			}
		}
	})
}

// TestProjectionQ22MatchesOracle runs the benchmark instance through the cone
// at the outputs around one 2^11-amplitude lower half and at the benchmark's
// 2^14, dense on every arm with one and two workers, against the Schrödinger
// state. (The full 2^22 output is left to the small circuits: accumulating it
// per worker would hold several 64 MiB planes.) Two sampled paths are also
// held to pathOracle at every m.
func TestProjectionQ22MatchesOracle(t *testing.T) {
	c := q22Circuit(t)
	plan := q22Plan(t)
	v := statevec.NewVector(c.NumQubits)
	statevec.CompileSegment(c.Gates, c.NumQubits).Apply(v)
	ms := []int{1, 1<<11 - 1, 1 << 11, 1<<11 + 1, 1 << 14}
	want := v.Slice(0, 1<<14).ToComplex()
	eachArm(t, func(t *testing.T) {
		for _, m := range ms {
			for _, workers := range []int{1, 2} {
				res, err := Run(plan, Options{Workers: workers, MaxAmplitudes: m})
				if err != nil {
					t.Fatal(err)
				}
				if d := statevec.MaxAbsDiff(res.Amplitudes, want[:m]); d > 1e-12 {
					t.Fatalf("%d workers, m = %d: off the oracle by %g", workers, m, d)
				}
			}
		}
	})

	depth := len(plan.Cuts)
	paths := EnumeratePrefixes(plan, depth)
	sample := [][]int{paths[0], paths[len(paths)-1]}
	wantPaths := pathOracle(plan, sample, 1<<14)
	for _, m := range ms {
		dense, err := RunPrefixesContext(context.Background(), plan, Options{Workers: 1, MaxAmplitudes: m}, depth, sample)
		if err != nil {
			t.Fatal(err)
		}
		if d := statevec.MaxAbsDiff(dense.Acc, wantPaths[:m]); d > 1e-12 {
			t.Fatalf("m = %d: sampled paths off the path oracle by %g", m, d)
		}
	}
}

// pathOracle returns the first m amplitudes of the sum of the given full
// paths' leaves. Each path runs the plan's steps in order on two |0…0⟩ halves
// with the State matvec oracle, its cut terms as the plan gives them: no
// lowering, scheduling, sinking, scalar split or cone.
func pathOracle(plan *cut.Plan, paths [][]int, m int) statevec.State {
	nLo := plan.Partition.NumLower()
	upper := func(q int) int { return q - nLo }
	out := make(statevec.State, m)
	for _, path := range paths {
		lo, up := statevec.NewState(nLo), statevec.NewState(plan.Partition.NumUpper(plan.NumQubits))
		coeff, level := complex(1, 0), 0
		for _, st := range plan.Steps {
			switch {
			case st.Kind == cut.CutStep:
				term := st.Cut.Terms[path[level]]
				gl := gate.New("cut-term", term.Lower, nil, st.Cut.LowerQubits...)
				gu := gate.New("cut-term", term.Upper, nil, st.Cut.UpperQubits...)
				gu = gu.Remap(upper)
				lo.ApplyGate(&gl)
				up.ApplyGate(&gu)
				coeff *= complex(term.Sigma, 0)
				level++
			case st.Side == cut.Upper:
				g := st.Gate.Remap(upper)
				up.ApplyGate(&g)
			default:
				lo.ApplyGate(&st.Gate)
			}
		}
		for x := range out {
			out[x] += coeff * up[x>>nLo] * lo[x&(1<<nLo-1)]
		}
	}
	return out
}

// TestProjectionQ22Ladder pins the cone on the benchmark instance at 2^14
// amplitudes, 8 upper rows: upper qubits 3–10 are output-fixed and the upper
// half shrinks 2048 → 1024 after segment 0 (nothing touches qubit 6 later),
// → 512 after segment 2, → 256 after segment 8 and → 8 after segment 9, whose
// projection absorbs the RX mixers on qubits 3, 4, 5, 7 and 8. The lower half
// keeps its 2048 amplitudes, and no qubit is dropped at a cut. Cost charges
// the pairs of that ladder, below the unprojected chain at 2^14 and 2^20, and
// at 2^20 an 8-leaf batch: seven held lower halves of 32 KiB. At both sizes
// the diagonal tail fires at cut 5 with Q = qubits 5–9, and Cost charges what
// it holds instead: 512-byte proxies for the lower halves of the five forks at
// cuts 5–9 and of the seven held leaves, one more for the open node, and the
// rows × 32-amplitude row table, 1 283 200 − 12·32 256 + 512 + 8·512 =
// 900 736 B at 2^14 and 34 488 320 − 12·32 256 + 512 + 512·512 = 34 363 904 B
// at 2^20.
func TestProjectionQ22Ladder(t *testing.T) {
	plan := q22Plan(t)
	dense := compiledFor(plan, 1<<14, -1, 0)
	ref := unprojected(t, plan)
	want := []int{10, 10, 9, 9, 9, 9, 9, 9, 8, 3, 3} // upper qubits after each segment
	if len(dense.segs) != len(want) {
		t.Fatalf("%d segments, want %d", len(dense.segs), len(want))
	}
	up := 11
	for s := range dense.segs {
		seg := &dense.segs[s]
		if n := seg.comp[cut.Lower].NumQubits(); n != 11 || seg.proj[cut.Lower] != nil {
			t.Fatalf("segment %d: lower half runs at %d qubits, dropping %d", s, n, seg.proj[cut.Lower].NumDropped())
		}
		if n := seg.comp[cut.Upper].NumQubits(); n != up {
			t.Fatalf("segment %d: upper half runs at %d qubits, want %d", s, n, up)
		}
		if up -= seg.proj[cut.Upper].NumDropped(); up != want[s] {
			t.Fatalf("segment %d leaves %d upper qubits, want %d", s, up, want[s])
		}
		if s < len(dense.cuts) && (dense.cuts[s].proj[cut.Lower] != nil || dense.cuts[s].proj[cut.Upper] != nil) {
			t.Fatalf("cut %d drops qubits", s)
		}
	}
	var mixers []int
	for _, g := range ref.segs[9].gates[cut.Upper] {
		if g.Name != "rx" {
			t.Fatalf("segment 9 holds upper %s, want only RX mixers", g.String())
		}
		mixers = append(mixers, g.Qubits[0])
	}
	if fmt.Sprint(mixers) != "[3 4 5 7 8]" || len(dense.segs[9].gates[cut.Upper]) != 0 {
		t.Fatalf("segment 9 upper: mixers on %v unprojected, %d gates left after the contraction", mixers, len(dense.segs[9].gates[cut.Upper]))
	}

	for _, tc := range []struct {
		m    int
		want int64
	}{{1 << 14, 900736}, {1 << 20, 34363904}} {
		est := Cost(plan, Options{Workers: 1, MaxAmplitudes: tc.m})
		if est.TotalBytes != tc.want {
			t.Errorf("m = %d: Cost = %d B, want %d", tc.m, est.TotalBytes, tc.want)
		}
		if unproj := unprojectedCost(plan, tc.m) + 16*int64(tc.m); est.TotalBytes >= unproj {
			t.Errorf("m = %d: Cost = %d B, not below the unprojected %d", tc.m, est.TotalBytes, unproj)
		}
	}
}

// TestProjectionCompileSpan checks what the compile span reports about the
// cone: qubits dropped per side and the halves a leaf holds. One path is
// enough to compile and record it.
func TestProjectionCompileSpan(t *testing.T) {
	plan := q22Plan(t)
	for _, tc := range []struct {
		m              int
		lo, up         int64
		leafLo, leafUp int64
	}{
		{1 << 14, 0, 8, 2048, 8},
		{1 << 10, 1, 11, 1024, 1},
	} {
		rec := trace.NewRecorder(64)
		ctx := trace.NewContext(context.Background(), rec, trace.SpanContext{})
		opts := Options{Workers: 1, MaxAmplitudes: tc.m}
		if _, err := RunPrefixesContext(ctx, plan, opts, len(plan.Cuts), [][]int{make([]int, len(plan.Cuts))}); err != nil {
			t.Fatal(err)
		}
		var found bool
		for _, ev := range rec.Snapshot() {
			if ev.Name != "compile" {
				continue
			}
			found = true
			got := [4]int64{ev.Int("lo_qubits_projected", -1), ev.Int("up_qubits_projected", -1),
				ev.Int("leaf_lo_amps", -1), ev.Int("leaf_up_amps", -1)}
			if want := [4]int64{tc.lo, tc.up, tc.leafLo, tc.leafUp}; got != want || ev.Int("gates_hoisted", -1) < 0 {
				t.Errorf("m = %d: compile span reports %v, want %v", tc.m, got, want)
			}
		}
		if !found {
			t.Fatalf("m = %d: no compile span recorded", tc.m)
		}
	}
}

// TestProjectionCheckpointAcrossWorkers stops a projected run halfway by an
// injected fault and resumes its checkpoint on another worker count, one to
// two and two to one: both reproduce the Schrödinger amplitudes at 1e-12.
func TestProjectionCheckpointAcrossWorkers(t *testing.T) {
	const cutPos = 4
	circ := coneCircuit(rand.New(rand.NewSource(7)), 10, cutPos)
	plan := buildPlan(t, circ, cutPos, cut.StrategyNone)
	want := schrodinger(circ)
	np, _ := plan.NumPaths()
	if np < 16 {
		t.Fatalf("plan has %d paths, too few to stop halfway", np)
	}
	for _, m := range []int{3, 1<<(cutPos+1) + 1} {
		for _, w := range [][2]int{{1, 2}, {2, 1}} {
			var buf bytes.Buffer
			_, err := Run(plan, Options{Workers: w[0], MaxAmplitudes: m,
				CheckpointWriter: &buf, FailAfterPaths: int64(np / 2)})
			if !errors.Is(err, ErrInjectedFault) {
				t.Fatalf("m = %d on %d workers: err = %v, want ErrInjectedFault", m, w[0], err)
			}
			ck, err := ReadCheckpoint(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if ck.PathsSimulated == 0 {
				t.Fatalf("m = %d on %d workers: empty checkpoint", m, w[0])
			}
			res, err := Run(plan, Options{Workers: w[1], MaxAmplitudes: m, Resume: ck})
			if err != nil {
				t.Fatalf("m = %d: resume on %d workers: %v", m, w[1], err)
			}
			if d := statevec.MaxAbsDiff(res.Amplitudes, want[:m]); d > 1e-12 {
				t.Fatalf("m = %d: checkpoint of %d workers resumed on %d is off the oracle by %g", m, w[0], w[1], d)
			}
		}
	}
}

// TestProjectionWalkZeroAllocs takes the allocation guard and the pool's NaN
// canary to walks the cone shrinks: halves shrink in place and forks take
// buffers of the parent's size, so a warm walker still allocates nothing, and
// no buffer handed back at its full size leaks stale amplitudes into a sum.
func TestProjectionWalkZeroAllocs(t *testing.T) {
	for name, shape := range allocShapes {
		plan := harnessPlan(t, shape)
		want := schrodinger(harnessCircuit(shape))
		for _, m := range []int{3, 1<<(shape.cutPos+1) + 1} {
			t.Run(fmt.Sprintf("%s/m=%d", name, m), func(t *testing.T) {
				e := compiledFor(plan, m, 0, 0)
				walk := e.newWalker(nil)
				walk.batch.pool.Poison = true
				scratch := statevec.MakeVector(m)
				replay := func() {
					scratch.Clear()
					if _, err := walk.runPrefix(context.Background(), nil, scratch); err != nil {
						t.Fatal(err)
					}
				}
				for i := 0; i < 2; i++ {
					replay()
					if d := statevec.MaxAbsDiff(scratch.ToComplex(), want[:m]); !(d <= 1e-12) {
						t.Fatalf("replay %d on a poisoned pool is off the oracle by %g", i, d)
					}
				}
				if raceEnabled {
					return // the detector's instrumentation allocates
				}
				if allocs := testing.AllocsPerRun(10, replay); allocs != 0 {
					t.Fatalf("projected walk allocated %.1f times per replay, want 0", allocs)
				}
			})
		}
	}
}

// TestProjectionRelabelsPreparedGates covers a gate whose labels the cone
// changes after a kernel plan was built for the old ones: a CCX on lower
// qubits 0, 2, 3 sits behind a cut (the RX between keeps it there) while
// qubit 1, last touched in segment 0, is dropped at m = 2. The circuit's
// gates are prepared before planning, as a Schrödinger run of the same
// circuit would leave them, so the plan's copy arrives with a kernel plan for
// qubits 0, 2, 3 that must not run on the relabelled 0, 1, 2.
func TestProjectionRelabelsPreparedGates(t *testing.T) {
	circ := circuitOf(8, gate.H(0), gate.H(1), gate.H(2), gate.H(3), gate.H(5),
		gate.RZZ(0.4, 0, 5), gate.RX(0.3, 0), gate.CCX(0, 2, 3), gate.RZZ(0.7, 2, 6))
	statevec.PrepareGates(circ.Gates)
	plan := buildPlan(t, circ, 3, cut.StrategyNone)
	want := schrodinger(circ)
	for _, m := range []int{1, 2, 3} {
		res, err := Run(plan, Options{Workers: 1, MaxAmplitudes: m})
		if err != nil {
			t.Fatal(err)
		}
		if d := statevec.MaxAbsDiff(res.Amplitudes, want[:m]); d > 1e-12 {
			t.Fatalf("m = %d: off the oracle by %g", m, d)
		}
	}
}
