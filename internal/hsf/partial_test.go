// Tests for partial prefix runs: a canceled RunPrefixesContext must return
// the prefixes it completed together with the stop error, and the returned
// partial must merge with the remainder into the exact full-run amplitudes.
// This is the primitive behind drained distributed workers returning their
// unfinished leases.
package hsf

import (
	"context"
	"errors"
	"math/cmplx"
	"math/rand"
	"testing"

	"hsfsim/internal/cut"
)

func TestRunPrefixesContextPartialReturnsCompletedSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := randomQAOAish(rng, 9, 12)
	plan, err := cut.BuildPlan(c, cut.Options{Partition: cut.Partition{CutPos: 4}, Strategy: cut.StrategyCascade})
	if err != nil {
		t.Fatal(err)
	}
	full, err := Run(plan, Options{})
	if err != nil {
		t.Fatal(err)
	}
	splitLevels := ChooseSplitLevels(plan, 8)
	prefixes := EnumeratePrefixes(plan, splitLevels)
	if len(prefixes) < 4 {
		t.Fatalf("want ≥ 4 prefix tasks, got %d", len(prefixes))
	}

	// Cancel after the first leaf: with one worker the run stops somewhere
	// strictly inside the prefix list.
	ctx, cancel := context.WithCancel(context.Background())
	opts := Options{Workers: 1, testHookLeaf: func(leaves int64) {
		if leaves >= 1 {
			cancel()
		}
	}}
	part, err := RunPrefixesContext(ctx, plan, opts, splitLevels, prefixes)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("partial run: %v (want context.Canceled alongside the partial)", err)
	}
	if part == nil {
		t.Fatal("canceled run returned no partial checkpoint")
	}
	if len(part.Prefixes) >= len(prefixes) {
		t.Fatalf("partial run completed all %d prefixes; cancellation had no effect", len(prefixes))
	}

	// The partial plus the uncompleted remainder reproduces the full run:
	// nothing was lost, nothing double-counted.
	done := make(map[string]bool, len(part.Prefixes))
	for _, p := range part.Prefixes {
		done[PrefixKey(p)] = true
	}
	var rest [][]int
	for _, p := range prefixes {
		if !done[PrefixKey(p)] {
			rest = append(rest, p)
		}
	}
	if len(rest) == 0 {
		t.Fatal("no prefixes left after partial run")
	}
	restCk, err := RunPrefixesContext(context.Background(), plan, Options{}, splitLevels, rest)
	if err != nil {
		t.Fatal(err)
	}
	if err := part.Merge(restCk); err != nil {
		t.Fatal(err)
	}
	if part.PathsSimulated != full.PathsSimulated {
		t.Fatalf("partial+rest simulated %d paths, full run %d", part.PathsSimulated, full.PathsSimulated)
	}
	for i := range full.Amplitudes {
		if d := cmplx.Abs(part.Acc[i] - full.Amplitudes[i]); d > 1e-12 {
			t.Fatalf("amplitude %d differs by %g", i, d)
		}
	}
}

// TestRunPrefixesContextPartialCancelledMidBatch cancels one worker 35 leaves
// into the second of four 64-leaf tasks, eight leaves per fold, so three
// leaves are held when it stops. The partial must list the first task alone
// and hold exactly that task's amplitudes: nothing of the abandoned task,
// folded or held, may have reached it.
func TestRunPrefixesContextPartialCancelledMidBatch(t *testing.T) {
	plan := buildPlan(t, manyCutCircuit(12, 8), 5, cut.StrategyNone)
	prefixes := EnumeratePrefixes(plan, 2)
	ctx, cancel := context.WithCancel(context.Background())
	opts := Options{Workers: 1, testHookLeaf: func(leaves int64) {
		if leaves == 64+35 {
			cancel()
		}
	}}
	part, err := RunPrefixesContext(ctx, plan, opts, 2, prefixes)
	cancel()
	if !errors.Is(err, context.Canceled) || part == nil {
		t.Fatalf("partial run: %v (want context.Canceled alongside the partial)", err)
	}
	if len(part.Prefixes) != 1 || PrefixKey(part.Prefixes[0]) != PrefixKey(prefixes[0]) || part.PathsSimulated != 64 {
		t.Fatalf("partial lists prefixes %v with %d paths, want the first task's 64", part.Prefixes, part.PathsSimulated)
	}
	first, err := RunPrefixesContext(context.Background(), plan, Options{Workers: 1}, 2, prefixes[:1])
	if err != nil {
		t.Fatal(err)
	}
	for i := range first.Acc {
		if part.Acc[i] != first.Acc[i] {
			t.Fatalf("amplitude %d is %v, the first task alone gives %v", i, part.Acc[i], first.Acc[i])
		}
	}
}

func TestRunPrefixesContextPartialPassesThroughRealErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	c := randomQAOAish(rng, 8, 8)
	plan, err := cut.BuildPlan(c, cut.Options{Partition: cut.Partition{CutPos: 3}, Strategy: cut.StrategyCascade})
	if err != nil {
		t.Fatal(err)
	}
	splitLevels := ChooseSplitLevels(plan, 4)
	prefixes := EnumeratePrefixes(plan, splitLevels)
	// An injected engine fault is not a cancellation and must surface as
	// itself.
	if _, err := RunPrefixesContext(context.Background(), plan,
		Options{Workers: 1, FailAfterPaths: 1}, splitLevels, prefixes); !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("injected failure returned %v from partial run, want ErrInjectedFault", err)
	}
}
