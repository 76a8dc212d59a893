// Exported prefix-task API. The engine executes a plan as a set of
// independent "prefix tasks": the leading splitLevels cut levels are expanded
// breadth-first into term-choice vectors, and each vector owns the whole
// subtree below it. This file exposes that task space so external schedulers
// (checkpoint resume, the internal/dist coordinator) can enumerate, shard,
// execute, and merge prefix work without reaching into the engine.
package hsf

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"hsfsim/internal/cut"
	"hsfsim/internal/telemetry/trace"
)

// PrefixKey encodes a prefix choice vector into a collision-free string key.
// Terms are uvarint-encoded: the encoding is self-delimiting, so two distinct
// vectors of the same length never collide even when a joint block's Schmidt
// rank exceeds 255 (r ≤ 4^min(n_a,n_b) grows past a byte at 4 qubits per
// side). All keys compared against each other come from vectors of equal
// length (the run's split depth), so cross-length collisions cannot occur.
func PrefixKey(p []int) string {
	b := make([]byte, 0, len(p)+4)
	for _, t := range p {
		b = binary.AppendUvarint(b, uint64(t))
	}
	return string(b)
}

// ChooseSplitLevels returns how many leading cut levels to expand so that the
// prefix-task count reaches at least minTasks (capped at the full cut depth).
// It is the engine's own sizing rule, exported so a distributed coordinator
// picks split depths the same way a local run does.
func ChooseSplitLevels(plan *cut.Plan, minTasks int) int {
	splitLevels := 0
	tasks := 1
	for splitLevels < len(plan.Cuts) && tasks < minTasks {
		tasks *= plan.Cuts[splitLevels].Rank()
		splitLevels++
	}
	return splitLevels
}

// EnumeratePrefixes expands the first splitLevels cut levels of the plan
// breadth-first into prefix choice vectors, in the engine's deterministic
// order. Every complete Feynman path belongs to exactly one prefix.
func EnumeratePrefixes(plan *cut.Plan, splitLevels int) [][]int {
	prefixes := [][]int{{}}
	for l := 0; l < splitLevels; l++ {
		r := plan.Cuts[l].Rank()
		next := make([][]int, 0, len(prefixes)*r)
		for _, p := range prefixes {
			for t := 0; t < r; t++ {
				np := make([]int, len(p)+1)
				copy(np, p)
				np[len(p)] = t
				next = append(next, np)
			}
		}
		prefixes = next
	}
	return prefixes
}

// AccumulatorLen returns the accumulator length a run of plan with the given
// MaxAmplitudes produces — the M field of its checkpoints and partials.
func AccumulatorLen(plan *cut.Plan, maxAmplitudes int) int {
	return resolveAmplitudes(plan, maxAmplitudes)
}

// validatePrefixes checks that every prefix is a term-choice vector of length
// splitLevels with each term inside its cut's rank.
func validatePrefixes(plan *cut.Plan, splitLevels int, prefixes [][]int) error {
	if splitLevels < 0 || splitLevels > len(plan.Cuts) {
		return fmt.Errorf("hsf: split levels %d out of range [0, %d]", splitLevels, len(plan.Cuts))
	}
	for _, p := range prefixes {
		if len(p) != splitLevels {
			return fmt.Errorf("hsf: prefix length %d != split levels %d", len(p), splitLevels)
		}
		for l, t := range p {
			if t < 0 || t >= plan.Cuts[l].Rank() {
				return fmt.Errorf("hsf: prefix term %d out of range for cut %d (rank %d)",
					t, l, plan.Cuts[l].Rank())
			}
		}
	}
	return nil
}

// RunPrefixesContext executes exactly the given prefix tasks of the plan and
// returns their partial accumulation as a Checkpoint: the prefixes completed,
// the leaf count, and the accumulator summed over those subtrees alone.
// Partials over disjoint prefix sets merge with Checkpoint.Merge; merging the
// full enumeration reproduces RunContext's amplitudes exactly.
//
// This is the worker half of distributed execution: a coordinator enumerates
// the task space once and hands out disjoint prefix batches, each of which a
// worker process runs through this function.
func RunPrefixesContext(ctx context.Context, plan *cut.Plan, opts Options, splitLevels int, prefixes [][]int) (*Checkpoint, error) {
	return runPrefixes(ctx, plan, opts, splitLevels, prefixes, false)
}

// RunPrefixesPartialContext is RunPrefixesContext with drain semantics:
// when the context is canceled or its deadline expires mid-batch, the
// prefixes completed so far are returned as a valid partial checkpoint with
// a nil error instead of the cancellation error. The returned checkpoint's
// Prefixes may therefore be any subset (including none) of the requested
// batch; every listed prefix is fully accumulated. Non-cancellation failures
// (admission rejection, a panicking path worker) still return an error.
//
// This is what lets a draining or deadline-bound distributed worker hand its
// finished work back to the coordinator instead of abandoning the lease.
func RunPrefixesPartialContext(ctx context.Context, plan *cut.Plan, opts Options, splitLevels int, prefixes [][]int) (*Checkpoint, error) {
	return runPrefixes(ctx, plan, opts, splitLevels, prefixes, true)
}

// isCancellation reports whether err is a cooperative-stop cause (rather
// than a real execution failure): context cancellation, a deadline, or the
// engine's own timeout sentinel.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, ErrTimeout)
}

func runPrefixes(ctx context.Context, plan *cut.Plan, opts Options, splitLevels int, prefixes [][]int, partialOnCancel bool) (*Checkpoint, error) {
	nLower := plan.Partition.NumLower()
	nUpper := plan.Partition.NumUpper(plan.NumQubits)
	if nLower <= 0 || nUpper <= 0 {
		return nil, fmt.Errorf("hsf: degenerate partition %d|%d", nLower, nUpper)
	}
	workers, err := opts.backendWorkers()
	if err != nil {
		return nil, err
	}
	costOpts := opts
	costOpts.Workers = workers
	if err := admit(Cost(plan, costOpts), costOpts); err != nil {
		return nil, err
	}
	if err := validatePrefixes(plan, splitLevels, prefixes); err != nil {
		return nil, err
	}
	m := resolveAmplitudes(plan, opts.MaxAmplitudes)

	e := &engine{backend: opts.Backend, nLower: nLower, nUpper: nUpper, m: m,
		failAfter: opts.FailAfterPaths, hook: opts.testHookLeaf, tel: opts.Telemetry}
	e.trc, e.tsc = trace.FromContext(ctx)
	e.compile(plan, opts.FusionMaxQubits, splitLevels)

	if opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeoutCause(ctx, opts.Timeout, ErrTimeout)
		defer cancel()
	}

	ck := &Checkpoint{
		PlanHash:    PlanHash(plan),
		NumQubits:   plan.NumQubits,
		M:           m,
		SplitLevels: splitLevels,
		Acc:         make([]complex128, m),
	}
	if len(prefixes) == 0 {
		if err := stopped(ctx); err != nil && !(partialOnCancel && isCancellation(err)) {
			return ck, err
		}
		return ck, nil
	}
	start := time.Now()
	wsp := e.trc.Start(e.tsc, "walk")
	wsp.SetInt("prefixes", int64(len(prefixes)))
	e.tsc = wsp.Context() // prefix-task spans parent to the walk phase
	err = e.runTasks(ctx, workers, prefixes, ck)
	wsp.SetInt("paths", ck.PathsSimulated)
	wsp.End()
	np, _ := plan.NumPaths()
	e.finishTelemetry(opts.Telemetry, np, plan.Log2Paths(), ck.PathsSimulated, 0, workers, time.Since(start))
	if err != nil {
		if partialOnCancel && isCancellation(err) {
			return ck, nil
		}
		return nil, err
	}
	return ck, nil
}
