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
	"fmt"

	"hsfsim/internal/cut"
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
// full enumeration reproduces RunContext's amplitudes to rounding, not bit
// for bit: the fold epilogue acts on each task's sum here (every task is
// merged as it completes, so a stopped batch hands back what it finished),
// and in an unobserved RunContext on each worker's sum of tasks, or on the
// whole sum when the run holds its nodes for one fold pass. It shares
// RunContext's setup; Options.Resume is not consulted.
//
// When the walk stops early — cancellation, a deadline, Options.Timeout, or a
// failure — the checkpoint of the prefixes completed so far comes back
// together with the error: its Prefixes may be any subset (including none)
// of the batch, and every listed prefix is fully accumulated. Errors before
// the walk (admission, invalid prefixes) return no checkpoint.
//
// This is the worker half of distributed execution: a coordinator enumerates
// the task space once and hands out disjoint prefix batches, each of which a
// worker process runs through this function, and a draining or
// deadline-bound worker hands its finished subset back instead of abandoning
// the lease.
func RunPrefixesContext(ctx context.Context, plan *cut.Plan, opts Options, splitLevels int, prefixes [][]int) (*Checkpoint, error) {
	ck, _, err := execute(ctx, plan, opts, true, func(m, _ int) (*Checkpoint, [][]int, error) {
		if err := validatePrefixes(plan, splitLevels, prefixes); err != nil {
			return nil, nil, err
		}
		return newCheckpoint(plan, m, splitLevels), prefixes, nil
	})
	return ck, err
}

// Seed returns the task set of a run of plan with an m-amplitude accumulator
// expanded at splitLevels: the checkpoint its walk merges into and the
// prefix tasks still pending, in enumeration order. A non-nil resume must
// belong to the plan and m (ErrCheckpointMismatch otherwise); the seeded
// checkpoint starts as a copy of it, the run keeps its split depth so prefix
// vectors stay comparable, and its prefixes are not pending. The engine and
// the distributed coordinator both seed their runs here.
func Seed(plan *cut.Plan, m, splitLevels int, resume *Checkpoint) (*Checkpoint, [][]int, error) {
	if resume == nil {
		return newCheckpoint(plan, m, splitLevels), EnumeratePrefixes(plan, splitLevels), nil
	}
	if err := resume.validateFor(plan, m); err != nil {
		return nil, nil, err
	}
	ck := newCheckpoint(plan, m, resume.SplitLevels)
	copy(ck.Acc, resume.Acc)
	ck.PathsSimulated = resume.PathsSimulated
	ck.Prefixes = append(ck.Prefixes, resume.Prefixes...)
	done := make(map[string]bool, len(resume.Prefixes))
	for _, p := range resume.Prefixes {
		done[PrefixKey(p)] = true
	}
	var pending [][]int
	for _, p := range EnumeratePrefixes(plan, ck.SplitLevels) {
		if !done[PrefixKey(p)] {
			pending = append(pending, p)
		}
	}
	return ck, pending, nil
}

// newCheckpoint returns the empty checkpoint of a run of plan with an
// m-amplitude accumulator split at splitLevels.
func newCheckpoint(plan *cut.Plan, m, splitLevels int) *Checkpoint {
	return &Checkpoint{
		PlanHash:    PlanHash(plan),
		NumQubits:   plan.NumQubits,
		M:           m,
		SplitLevels: splitLevels,
		Acc:         make([]complex128, m),
	}
}
