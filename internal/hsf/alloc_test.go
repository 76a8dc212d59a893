package hsf

import (
	"context"
	"math"
	"math/cmplx"
	"testing"

	"hsfsim/internal/cut"
	"hsfsim/internal/statevec"
	"hsfsim/internal/telemetry/trace"
)

// allocHarness compiles a many-cut plan and returns a dense-backend walker
// with its scratch accumulator, warmed so the workspace pool, the pair free
// list, and the frame stack have reached steady state.
func allocHarness(tb testing.TB) (*walker, statevec.Vector) {
	tb.Helper()
	c := manyCutCircuit(8, 6) // 2^6 = 64 leaves per replay
	plan, err := cut.BuildPlan(c, cut.Options{Partition: cut.Partition{CutPos: 3}})
	if err != nil {
		tb.Fatal(err)
	}
	e := compiled(plan, 0)
	ws, err := e.newWorkspace()
	if err != nil {
		tb.Fatal(err)
	}
	walk := &walker{e: e, ws: ws}
	scratch := statevec.MakeVector(e.m)
	for i := 0; i < 2; i++ { // warm the pools
		scratch.Clear()
		if _, err := walk.runPrefix(context.Background(), nil, scratch); err != nil {
			tb.Fatal(err)
		}
	}
	return walk, scratch
}

// BenchmarkRunBranchSteadyState measures one full path-tree replay (64
// leaves) on a warm walker. The interesting number is allocs/op: the pooled
// workspace keeps it at zero.
func BenchmarkRunBranchSteadyState(b *testing.B) {
	walk, scratch := allocHarness(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scratch.Clear()
		if _, err := walk.runPrefix(ctx, nil, scratch); err != nil {
			b.Fatal(err)
		}
	}
}

// TestZeroAllocsPerLeaf is the allocation regression guard: once the
// workspace is warm, simulating a path subtree must not allocate at all —
// forked states come from the pool, pair structs from the free list, frames
// from the retained stack, and the sequential gate kernels build no closures.
func TestZeroAllocsPerLeaf(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	walk, scratch := allocHarness(t)
	ctx := context.Background()
	var leaves int64
	allocs := testing.AllocsPerRun(10, func() {
		scratch.Clear()
		n, err := walk.runPrefix(ctx, nil, scratch)
		if err != nil {
			t.Fatal(err)
		}
		leaves += n
	})
	if allocs != 0 {
		t.Fatalf("steady-state walk allocated %.1f times per replay (%d leaves), want 0", allocs, leaves)
	}
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
	walk, scratch := allocHarness(t)
	e := walk.e
	e.trc = trace.NewRecorder(512)
	root := e.trc.Start(trace.SpanContext{}, "walk")
	e.tsc = root.Context()
	defer root.End()

	ctx := context.Background()
	allocs := testing.AllocsPerRun(10, func() {
		scratch.Clear()
		sp := e.trc.Start(e.tsc, "prefix")
		sp.SetLane(1)
		n, err := walk.runPrefix(ctx, nil, scratch)
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
}

// TestPoisonedPoolRunStaysFinite turns on the pool's NaN poisoning and
// replays the tree: if any code path read a released buffer before
// reinitializing it, the canary would propagate into the amplitudes.
func TestPoisonedPoolRunStaysFinite(t *testing.T) {
	walk, scratch := allocHarness(t)
	dws, ok := walk.ws.(*denseWorkspace)
	if !ok {
		t.Fatalf("workspace is %T, want *denseWorkspace", walk.ws)
	}
	dws.pool.Poison = true

	scratch.Clear()
	if _, err := walk.runPrefix(context.Background(), nil, scratch); err != nil {
		t.Fatal(err)
	}
	want := scratch.ToComplex()

	scratch.Clear()
	if _, err := walk.runPrefix(context.Background(), nil, scratch); err != nil {
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
	if d := statevec.MaxAbsDiff(scratch.ToComplex(), want); d > 1e-12 {
		t.Fatalf("poisoned replays disagree: max diff %g", d)
	}
	if gets, reuses := dws.pool.Stats(); reuses == 0 {
		t.Fatalf("pool never reused a buffer (gets=%d): the poisoning test exercised nothing", gets)
	}
}

// TestWalkerRootIsCopiedNotAliased guards the shared post-segment-0 root:
// every prefix task must work on its own copy, so after any number of tasks
// the root still holds exactly |0…0⟩ advanced through segment 0.
func TestWalkerRootIsCopiedNotAliased(t *testing.T) {
	walk, scratch := allocHarness(t)
	root, ok := walk.root.(*densePair)
	if !ok {
		t.Fatalf("walker root is %T, want *densePair", walk.root)
	}
	e := walk.e
	wantLo, wantUp := statevec.NewVector(e.nLower), statevec.NewVector(e.nUpper)
	e.segs[0].loSeg.Apply(wantLo)
	e.segs[0].upSeg.Apply(wantUp)

	for _, prefix := range [][]int{nil, {1}, {0, 1}} {
		scratch.Clear()
		if _, err := walk.runPrefix(context.Background(), prefix, scratch); err != nil {
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
