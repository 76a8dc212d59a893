package hsf

import (
	"context"
	"math"
	"math/cmplx"
	"runtime"
	"testing"

	"hsfsim/internal/circuit"
	"hsfsim/internal/cut"
	"hsfsim/internal/gate"
	"hsfsim/internal/statevec"
	"hsfsim/internal/telemetry/trace"
)

// allocShape is one instance of the allocation harnesses:
// manyCutCircuit(n, cuts) cut after cutPos, 2^cuts leaves per replay, folded
// leafBatchK at a time.
type allocShape struct{ n, cutPos, cuts int }

// allocShapes covers a full output of 16 accumulator rows and one of 64, and
// a diagonal tail: on "tail" the lower mixers of the last three crossings
// sink, the walker carries an 8-amplitude proxy below cut 5, and each of the
// 32 level-5 nodes folds its 8 leaves into the accumulator once. On "K=2"
// three lower mixers sink too, but its ninth crossing keeps every tail level
// illegal, so it walks plain halves into a three-gate fold epilogue. The
// names K=2 and K=8 are the leaves per fold the shapes had when K grew with
// the rows (rows/8); every shape folds leafBatchK now, and the names keep the
// guards' test IDs.
var allocShapes = map[string]allocShape{"K=2": {8, 3, 9}, "K=8": {12, 5, 6}, "tail": {8, 3, 8}}

// harnessPlan builds shape's plan of harnessCircuit.
func harnessPlan(tb testing.TB, shape allocShape) *cut.Plan {
	tb.Helper()
	plan, err := cut.BuildPlan(harnessCircuit(shape), cut.Options{Partition: cut.Partition{CutPos: shape.cutPos}})
	if err != nil {
		tb.Fatal(err)
	}
	return plan
}

// harnessCircuit is shape's circuit. Every other RZZ turns by 2 more, past
// π/2, so that its leading Schmidt term is Z⊗Z rather than I⊗I: the walker
// then writes forked children through both an elided identity and a diagonal
// residual (checkForks).
func harnessCircuit(shape allocShape) *circuit.Circuit {
	c := manyCutCircuit(shape.n, shape.cuts)
	turn := false
	for i, g := range c.Gates {
		if g.Name == "rzz" {
			if turn {
				c.Gates[i] = gate.RZZ(g.Params[0]+2, g.Qubits[0], g.Qubits[1])
			}
			turn = !turn
		}
	}
	return c
}

// checkForks fails unless the walker of e writes forked children through an
// elided identity and through a diagonal residual, so that a guard run on it
// covers the writing fork.
func checkForks(tb testing.TB, e *engine) {
	tb.Helper()
	if k := forkedKinds(e); k[residualIdentity] == 0 || k[residualDiagonal] == 0 {
		tb.Fatalf("forked residuals identity/diagonal/gate %v: the guard does not cover the writing fork", k)
	}
}

// allocHarness compiles a many-cut plan and returns a walker
// with its scratch accumulator, warmed so the workspace pool, the pair free
// list, and the frame stack have reached steady state.
func allocHarness(tb testing.TB, shape allocShape) (*walker, statevec.Vector) {
	tb.Helper()
	e := compiled(harnessPlan(tb, shape), 0)
	walk := e.newWalker(nil)
	scratch := statevec.MakeVector(e.m)
	for i := 0; i < 2; i++ { // warm the pools
		scratch.Clear()
		if _, err := walk.runTask(context.Background(), nil, scratch); err != nil {
			tb.Fatal(err)
		}
	}
	return walk, scratch
}

// heldHarness is allocHarness on the "tail" shape for a run that holds its
// nodes: the walker stores the 32 level-5 nodes of its one task in the run's
// store. replay clears their row tables and walks the task again; it is warm
// after the two replays heldHarness makes. fold folds the held nodes into a
// fresh output on one worker, as the fold pass after the walk does.
func heldHarness(tb testing.TB) (walk *walker, replay func() error, fold func() []complex128) {
	tb.Helper()
	e := compiled(harnessPlan(tb, allocShapes["tail"]), 0)
	if e.tail.level < 0 {
		tb.Fatal("the tail shape has no tail")
	}
	e.workers = 1
	e.held = e.newNodeStore(1, 0)
	walk = e.newWalker(nil)
	replay = func() error {
		for _, u := range e.held.tables {
			u.Clear()
		}
		walk.slot = 0
		_, err := walk.runTask(context.Background(), nil, statevec.Vector{})
		return err
	}
	fold = func() []complex128 {
		acc := make([]complex128, e.m)
		e.foldHeld(acc)
		return acc
	}
	for range 2 {
		if err := replay(); err != nil {
			tb.Fatal(err)
		}
	}
	return walk, replay, fold
}

// BenchmarkRunBranchSteadyState measures one full path-tree replay (512
// leaves) on a warm walker. The interesting number is allocs/op: the pooled
// workspace keeps it at zero.
func BenchmarkRunBranchSteadyState(b *testing.B) {
	walk, scratch := allocHarness(b, allocShapes["K=2"])
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scratch.Clear()
		if _, err := walk.runTask(ctx, nil, scratch); err != nil {
			b.Fatal(err)
		}
	}
}

// TestZeroAllocsPerLeaf is the allocation regression guard: once the
// workspace is warm, a prefix task — the subtree's walk, whose forks write
// their children through identity and diagonal residuals — and the fold
// epilogue its merge applies, three gates on the K=2 shape, must not
// allocate at all: forked states come from the pool, pair structs from the
// free list, frames from the retained stack, and the sequential gate kernels
// build no closures.
func TestZeroAllocsPerLeaf(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	for name, shape := range allocShapes {
		t.Run(name, func(t *testing.T) {
			walk, scratch := allocHarness(t, shape)
			checkForks(t, walk.e)
			if name == "K=2" && (len(walk.e.epiGates) != 3 || walk.e.tail.level >= 0) {
				t.Fatalf("the K=2 shape sinks %d gates with a tail at level %d, want 3 and none: the guard no longer covers the epilogue after a plain walk",
					len(walk.e.epiGates), walk.e.tail.level)
			}
			ctx := context.Background()
			var leaves int64
			allocs := testing.AllocsPerRun(10, func() {
				scratch.Clear()
				n, err := walk.runTask(ctx, nil, scratch)
				if err != nil {
					t.Fatal(err)
				}
				walk.e.epilogue(scratch)
				leaves += n
			})
			if allocs != 0 {
				t.Fatalf("steady-state walk allocated %.1f times per replay (%d leaves), want 0", allocs, leaves)
			}
		})
	}
	// A run that holds its nodes stores each in its slot instead.
	t.Run("tail held", func(t *testing.T) {
		walk, replay, _ := heldHarness(t)
		checkForks(t, walk.e)
		allocs := testing.AllocsPerRun(10, func() {
			if err := replay(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("steady-state held walk allocated %.1f times per replay, want 0", allocs)
		}
	})
}

// TestZeroAllocsPerLeafWithTracing re-runs the allocation guard with the
// flight recorder attached, exercising exactly what runTasks does per
// prefix task: start a span, walk the subtree, annotate, end. Tracing is
// recorded at prefix-batch granularity only, so the leaf loop — and the
// span lifecycle wrapped around it — must stay at zero allocations.
func TestZeroAllocsPerLeafWithTracing(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	for name, shape := range allocShapes {
		t.Run(name, func(t *testing.T) {
			walk, scratch := allocHarness(t, shape)
			e := walk.e
			checkForks(t, e)
			e.trc = trace.NewRecorder(512)
			root := e.trc.Start(trace.SpanContext{}, "walk")
			e.tsc = root.Context()
			defer root.End()

			ctx := context.Background()
			allocs := testing.AllocsPerRun(10, func() {
				scratch.Clear()
				sp := e.trc.Start(e.tsc, "prefix")
				sp.SetLane(1)
				n, err := walk.runTask(ctx, nil, scratch)
				sp.SetInt("leaves", n)
				if err != nil {
					t.Fatal(err)
				}
				sp.End()
			})
			if allocs != 0 {
				t.Fatalf("traced steady-state walk allocated %.1f times per replay, want 0", allocs)
			}
			if e.trc.Len() == 0 {
				t.Fatal("no spans recorded: the guard exercised nothing")
			}
		})
	}
}

// TestPoisonedPoolRunStaysFinite turns on the pool's NaN poisoning and
// replays the tree: if any code path read a released buffer before
// reinitializing it — the fold a lower half its batch had already given
// back, or a written child a buffer the copy had not yet filled — the canary
// would propagate into the amplitudes.
func TestPoisonedPoolRunStaysFinite(t *testing.T) {
	for name, shape := range allocShapes {
		t.Run(name, func(t *testing.T) {
			walk, scratch := allocHarness(t, shape)
			checkForks(t, walk.e)
			pool := walk.batch.pool
			pool.Poison = true

			scratch.Clear()
			if _, err := walk.runTask(context.Background(), nil, scratch); err != nil {
				t.Fatal(err)
			}
			want := scratch.ToComplex()

			scratch.Clear()
			if _, err := walk.runTask(context.Background(), nil, scratch); err != nil {
				t.Fatal(err)
			}
			var norm float64
			for i := 0; i < scratch.Len(); i++ {
				v := scratch.Amplitude(i)
				if cmplx.IsNaN(v) || cmplx.IsInf(v) {
					t.Fatalf("amplitude %d = %v: a poisoned buffer leaked into the result", i, v)
				}
				norm += real(v)*real(v) + imag(v)*imag(v)
			}
			if math.Abs(norm-1) > 1e-9 {
				t.Fatalf("norm = %g, want 1", norm)
			}
			if d := statevec.MaxAbsDiff(scratch.ToComplex(), want); d != 0 {
				t.Fatalf("poisoned replays disagree: max diff %g", d)
			}
			if gets, reuses := pool.Stats(); reuses == 0 {
				t.Fatalf("pool never reused a buffer (gets=%d): the poisoning test exercised nothing", gets)
			}
		})
	}
	// A held node's lower half is copied into its slot before the pair's
	// buffer goes back to the pool, poisoned.
	t.Run("tail held", func(t *testing.T) {
		walk, replay, fold := heldHarness(t)
		walk.ws.pool.Poison = true
		if err := replay(); err != nil {
			t.Fatal(err)
		}
		want := fold()
		if err := replay(); err != nil {
			t.Fatal(err)
		}
		got := fold()
		var norm float64
		for i, v := range got {
			if cmplx.IsNaN(v) || cmplx.IsInf(v) {
				t.Fatalf("amplitude %d = %v: a poisoned buffer leaked into the result", i, v)
			}
			norm += real(v)*real(v) + imag(v)*imag(v)
		}
		if math.Abs(norm-1) > 1e-9 {
			t.Fatalf("norm = %g, want 1", norm)
		}
		if d := statevec.MaxAbsDiff(got, want); d != 0 {
			t.Fatalf("poisoned replays disagree: max diff %g", d)
		}
	})
}

// TestWalkerReuseAfterFailedTask stops a task on a warm walker with leaves
// held in its batch — by cancellation, and by a panic the worker recovers
// from — and then runs a whole task on the same walker: the held leaves of
// the failed task must be gone, not folded into the next task's accumulator,
// so the result equals a fresh walker's exactly. After the cancellation the
// pool must also have every buffer back: over its whole life the walker drew
// no more fresh buffers than the clone chain and a full batch need.
func TestWalkerReuseAfterFailedTask(t *testing.T) {
	shape := allocShapes["K=8"]
	_, fresh := allocHarness(t, shape) // the harness leaves its last replay in the accumulator
	stops := map[string]func(cancel context.CancelFunc){
		"cancel": func(cancel context.CancelFunc) { cancel() },
		"panic":  func(context.CancelFunc) { panic("boom") },
	}
	for name, stop := range stops {
		t.Run(name, func(t *testing.T) {
			walk, scratch := allocHarness(t, shape)
			e := walk.e
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			stopAt := e.leaves.Load() + 8 + 3 // one fold done, three leaves held
			e.hook = func(leaves int64) {
				if leaves == stopAt {
					stop(cancel)
				}
			}
			scratch.Clear()
			if _, err := walk.runTask(ctx, nil, scratch); err == nil || e.leaves.Load() != stopAt {
				t.Fatalf("task returned %v at leaf %d, want an error at leaf %d", err, e.leaves.Load(), stopAt)
			}
			if held := len(walk.batch.los); held != 0 {
				t.Fatalf("failed task left %d leaves in the batch", held)
			}
			e.hook = nil
			scratch.Clear()
			if _, err := walk.runTask(context.Background(), nil, scratch); err != nil {
				t.Fatal(err)
			}
			if d := statevec.MaxAbsDiffVec(scratch, fresh); d != 0 {
				t.Fatalf("task after a failed one is off a fresh walker's by %g", d)
			}
			gets, reuses := walk.batch.pool.Stats()
			if bound := 2*(len(e.cuts)+2) + leafBatchK - 1; name == "cancel" && gets-reuses > bound {
				t.Fatalf("walker drew %d fresh buffers, want at most %d: the failed task lost some", gets-reuses, bound)
			}
		})
	}
}

// TestWalkerRootIsCopiedNotAliased guards the shared post-segment-0 root:
// every prefix task must work on its own copy, so after any number of tasks
// the root still holds exactly |0…0⟩ advanced through segment 0.
func TestWalkerRootIsCopiedNotAliased(t *testing.T) {
	walk, scratch := allocHarness(t, allocShapes["K=2"])
	root := walk.root
	if root == nil {
		t.Fatal("warm walker holds no root")
	}
	e := walk.e
	wantLo, wantUp := statevec.NewVector(e.nLower), statevec.NewVector(e.nUpper)
	e.segs[0].comp[cut.Lower].Apply(wantLo)
	e.segs[0].comp[cut.Upper].Apply(wantUp)

	for _, prefix := range [][]int{nil, {1}, {0, 1}} {
		scratch.Clear()
		if _, err := walk.runTask(context.Background(), prefix, scratch); err != nil {
			t.Fatal(err)
		}
		if d := statevec.MaxAbsDiffVec(root.lo, wantLo); d != 0 {
			t.Fatalf("prefix %v changed the root's lower half by %g", prefix, d)
		}
		if d := statevec.MaxAbsDiffVec(root.up, wantUp); d != 0 {
			t.Fatalf("prefix %v changed the root's upper half by %g", prefix, d)
		}
	}
}

// TestEngineCompileAllocBudget is the clock-free gate on the engine's share of
// a cold joint request: analyze and compile of the q22-3 cascade plan for the
// joint-sweep benchmark's run (2^14 amplitudes, one walker). Lowering the
// cuts, scheduling, the cone, fusion and segment compilation are paid once
// per request: with a map per fused gate, cloned upper gates and slices
// grown gate by gate it came to 205 882 B and 1 642 objects. The budget is
// the measured figure plus ≈ 10 %.
func TestEngineCompileAllocBudget(t *testing.T) {
	const maxBytes, maxObjects = 120e3, 535.0 // measured 108 816 B, 485 objects
	plan := q22Plan(t)
	const m = 1 << 14
	split := runSplit(plan, nil, 1)
	build := func() { compiledOn(plan, m, 0, split, 1) }
	const runs = 5
	build()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		build()
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	objects := testing.AllocsPerRun(runs, build)
	t.Logf("q22-3 analyze + compile: %.0f B, %.0f objects per run", bytes, objects)
	if bytes > maxBytes {
		t.Errorf("analyze + compile allocate %.0f B per run, budget %.0f", bytes, maxBytes)
	}
	if objects > maxObjects {
		t.Errorf("analyze + compile allocate %.0f objects per run, budget %.0f", objects, maxObjects)
	}
}
