package dist

import (
	"context"
	"errors"
	"fmt"
	"time"

	"hsfsim"
	"hsfsim/internal/hsf"
	"hsfsim/internal/telemetry"
)

// ExecOptions bounds a worker's local execution; they come from the worker's
// own configuration (its admission budget), not from the coordinator.
type ExecOptions struct {
	// Workers is the per-lease simulation parallelism (0: all CPUs).
	Workers int
	// MemoryBudget and MaxPaths feed the engine's admission gate; a lease
	// whose cost exceeds them is refused with hsf.ErrBudget before any
	// statevector is allocated.
	MemoryBudget int64
	MaxPaths     uint64
	// Telemetry, when non-nil, records the lease's engine-level
	// measurements (segment timings, leaf latencies, kernel classes). A
	// daemon passes its service-scoped recorder so /metrics histograms
	// cover worker executions too.
	Telemetry *telemetry.Recorder
	// Plans caches compiled plans across leases, so a worker plans each
	// circuit once rather than once per lease. A daemon passes the cache its
	// job service uses; nil compiles every lease.
	Plans *hsfsim.PlanCache
}

// ExecuteRun is the worker half of the protocol: fetch the job's plan from
// the worker's plan cache (compiling it on first sight), verify it
// fingerprints to the coordinator's, and execute exactly the leased prefix
// batch. The plan hash is checked on every lease, cache hits included: a
// cache key covers the circuit and plan options, not the binary that
// planned it, so only the hash catches a coordinator whose planner differs.
// The returned checkpoint is the partial accumulator the coordinator merges.
//
// Job-shaped failures — a malformed request, an unplannable circuit, a plan
// fingerprint mismatch, an admission rejection — are returned as
// *PermanentError because every worker would repeat them; execution failures
// (cancellation, deadline, a panicking path worker) stay transient so the
// coordinator reassigns the lease.
func ExecuteRun(ctx context.Context, req *RunRequest, opts ExecOptions) (*hsf.Checkpoint, error) {
	if err := req.Validate(); err != nil {
		return nil, Permanent(err)
	}
	// Every job-shaped failure here — a bad name, an unparsable or
	// unplannable circuit — would repeat on any worker.
	cp, jopts, err := req.Job.compile(opts.Plans)
	if err != nil {
		return nil, Permanent(err)
	}
	plan := cp.CutPlan()
	if h := hsf.PlanHash(plan); h != req.PlanHash {
		return nil, Permanent(fmt.Errorf("%w: local %016x != lease %016x", ErrPlanMismatch, h, req.PlanHash))
	}
	if req.LeaseMillis > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.LeaseMillis)*time.Millisecond)
		defer cancel()
	}
	// Report the local execution window to whichever side is estimating
	// this worker's clock offset: the loopback transport shares the
	// coordinator's context directly, the HTTP handler copies the window
	// into reply headers.
	meta := leaseMetaFrom(ctx)
	if meta != nil {
		meta.workerStartNS = time.Now().UnixNano()
	}
	ck, err := hsf.RunPrefixesContext(ctx, plan, hsf.Options{
		MaxAmplitudes:   jopts.MaxAmplitudes,
		Workers:         opts.Workers,
		FusionMaxQubits: jopts.FusionMaxQubits,
		MemoryBudget:    opts.MemoryBudget,
		MaxPaths:        opts.MaxPaths,
		Telemetry:       opts.Telemetry,
	}, req.SplitLevels, req.Prefixes)
	if meta != nil {
		meta.workerEndNS = time.Now().UnixNano()
	}
	switch {
	case err == nil:
		return ck, nil
	case req.AllowPartial && ck != nil && stoppedEarly(err):
		// Drain semantics: cancellation or the lease deadline yields the
		// finished subset as a valid partial instead of an error, so a
		// SIGTERM'd worker hands its work back rather than abandoning it.
		return ck, nil
	case errors.Is(err, hsf.ErrBudget):
		return nil, Permanent(err)
	}
	return nil, err
}

// stoppedEarly reports whether err is a cooperative stop (cancellation, a
// deadline, or the engine's timeout) rather than an execution failure.
func stoppedEarly(err error) bool {
	return errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, hsf.ErrTimeout)
}
