// Package dist shards an HSF simulation across worker processes.
//
// The ∏ r_i Feynman paths of an HSF plan are embarrassingly parallel and
// bounded-memory, which makes them the ideal unit of distribution: the
// coordinator compiles the plan once per run through hsfsim.Compile, expands
// the leading cut levels into prefix tasks (hsf.EnumeratePrefixes), groups
// them into disjoint batches, and hands out *leases* of batches to workers. A
// worker takes the plan from its hsfsim.PlanCache (ExecOptions.Plans), so it
// compiles each circuit once however many leases it serves, checks the plan
// hash against the lease, executes its batch with the ordinary engine
// (hsf.RunPrefixesContext), and streams back the partial accumulator plus
// leaf counts in the checkpoint wire format; the coordinator folds partials
// together with hsf.Checkpoint.Merge — exactly the operation checkpoint
// resume performs locally. NewJob and Job.Options are the only conversions
// between hsfsim.Options and the Job wire form, and Coordinator.Simulate the
// only mapping of a caller's hsfsim.Options onto a fleet run.
//
// Failure model: a lease carries a deadline. A worker that dies or stalls has
// its lease canceled and the batch handed to another worker; a worker that
// fails repeatedly is retired from the rotation. Because each batch has at
// most one outstanding lease at a time and merges are guarded by prefix keys
// (hsf.ErrPrefixOverlap), every prefix is merged exactly once. The
// coordinator's merged state is itself an hsf.Checkpoint: a coordinator crash
// resumes from the same snapshot format a single-process run writes.
//
// Transports: HTTPTransport speaks to hsfsimd workers over POST /dist/run;
// Loopback executes leases in-process so the whole protocol is testable
// without sockets.
package dist

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"hsfsim"
	"hsfsim/internal/hsf"
	"hsfsim/internal/qasm"
)

// ErrNoWorkers is returned when a run is started with no registered workers,
// or when every worker has been retired while batches remain.
var ErrNoWorkers = errors.New("dist: no workers available")

// ErrPlanMismatch is returned by a worker whose locally compiled plan does
// not fingerprint-match the coordinator's. It signals nondeterministic
// planning (or mismatched binaries) and is permanent: reassignment cannot
// fix it.
var ErrPlanMismatch = errors.New("dist: worker plan does not match coordinator plan")

// Job describes one distributed simulation. The QASM source is the unit of
// plan exchange: coordinator and workers compile it independently through
// hsfsim.Compile, and the resulting plans are fingerprint-checked
// (hsf.PlanHash) before any path is simulated. The JSON form is frozen: it
// travels in every lease, and a fleet mid-upgrade mixes binaries.
type Job struct {
	// QASM is the OpenQASM 2.0 source of the circuit.
	QASM string `json:"qasm"`
	// Method selects the cutting scheme: "standard" or "joint".
	Method string `json:"method"`
	// CutPos places the bipartition (last lower-partition qubit).
	CutPos int `json:"cut_pos"`
	// Strategy selects the joint grouping: "" / "cascade" / "window".
	Strategy string `json:"strategy,omitempty"`
	// MaxBlockQubits caps joint-cut block sizes (0: library default).
	MaxBlockQubits int `json:"max_block_qubits,omitempty"`
	// Tol is the Schmidt truncation tolerance (0: default).
	Tol float64 `json:"tol,omitempty"`
	// MaxAmplitudes bounds the accumulator (0: full statevector).
	MaxAmplitudes int `json:"max_amplitudes,omitempty"`
	// FusionMaxQubits configures gate fusion (0: default, <0: disabled).
	FusionMaxQubits int `json:"fusion_max_qubits,omitempty"`
}

// NewJob describes a distributed run of the QASM circuit src under opts.
// Only the plan-affecting fields and the ones every worker must agree on
// travel (Method, CutPos, BlockStrategy, MaxBlockQubits, Tol, MaxAmplitudes,
// FusionMaxQubits); execution limits stay with each participant. Cascade is
// the absent strategy, so such leases stay readable by workers that predate
// the field. Job.Options inverts it.
func NewJob(src string, opts hsfsim.Options) (*Job, error) {
	if opts.Method != hsfsim.StandardHSF && opts.Method != hsfsim.JointHSF {
		return nil, fmt.Errorf("dist: method %v cannot be distributed; use standard or joint", opts.Method)
	}
	job := &Job{
		QASM:            src,
		Method:          "joint",
		CutPos:          opts.CutPos,
		MaxBlockQubits:  opts.MaxBlockQubits,
		Tol:             opts.Tol,
		MaxAmplitudes:   opts.MaxAmplitudes,
		FusionMaxQubits: opts.FusionMaxQubits,
	}
	if opts.Method == hsfsim.StandardHSF {
		job.Method = "standard"
	}
	if opts.BlockStrategy == hsfsim.BlockWindow {
		job.Strategy = opts.BlockStrategy.String()
	}
	return job, nil
}

// Options returns the simulation options the job describes; every
// participant plans and executes with them. An unknown method or strategy
// name is an error, and so is a method that cannot be distributed.
func (j *Job) Options() (hsfsim.Options, error) {
	method, err := hsfsim.ParseMethod(j.Method)
	if err != nil {
		return hsfsim.Options{}, fmt.Errorf("dist: %w", err)
	}
	if method == hsfsim.Schrodinger {
		return hsfsim.Options{}, fmt.Errorf("dist: method %q cannot be distributed; use standard or joint", j.Method)
	}
	strategy, err := hsfsim.ParseBlockStrategy(j.Strategy)
	if err != nil {
		return hsfsim.Options{}, fmt.Errorf("dist: %w", err)
	}
	return hsfsim.Options{
		Method:          method,
		CutPos:          j.CutPos,
		BlockStrategy:   strategy,
		MaxBlockQubits:  j.MaxBlockQubits,
		Tol:             j.Tol,
		MaxAmplitudes:   j.MaxAmplitudes,
		FusionMaxQubits: j.FusionMaxQubits,
	}, nil
}

// Simulate runs the QASM circuit src on the fleet under opts, for callers
// that hold hsfsim.Options: it is the one mapping of those options onto a
// distributed run. NewJob describes the run; ResumeFrom, when set, is read
// into RunOptions.Resume, CheckpointWriter, OnCheckpoint, Progress and
// Telemetry carry over, and Timeout bounds the run with hsfsim.ErrTimeout.
// MaxPaths is enforced here, before the first lease, with the *BudgetError
// hsf.Admit gives a local run; MemoryBudget stays each worker's to enforce,
// since the footprint is theirs. The merged result comes back as an
// hsfsim.Result whose SimTime is the run's wall clock, together with the
// fleet statistics.
func (c *Coordinator) Simulate(ctx context.Context, src string, opts hsfsim.Options) (*hsfsim.Result, *Result, error) {
	job, err := NewJob(src, opts)
	if err != nil {
		return nil, nil, err
	}
	cp, _, err := job.compile(nil)
	if err != nil {
		return nil, nil, err
	}
	if err := hsf.Admit(*cp.EstimateCost(opts), -1, opts.MaxPaths); err != nil {
		return nil, nil, err
	}
	ropts := RunOptions{
		CheckpointWriter: opts.CheckpointWriter,
		OnCheckpoint:     opts.OnCheckpoint,
		Progress:         opts.Progress,
		Telemetry:        opts.Telemetry,
	}
	if opts.ResumeFrom != nil {
		if ropts.Resume, err = hsf.ReadCheckpoint(opts.ResumeFrom); err != nil {
			return nil, nil, err
		}
	}
	if opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeoutCause(ctx, opts.Timeout, hsfsim.ErrTimeout)
		defer cancel()
	}
	start := time.Now()
	fleet, err := c.run(ctx, job, cp.CutPlan(), ropts)
	if err != nil {
		return nil, nil, err
	}
	return &hsfsim.Result{
		Amplitudes:      fleet.Amplitudes,
		Method:          opts.Method,
		NumPaths:        fleet.NumPaths,
		Log2Paths:       fleet.Log2Paths,
		PathsSimulated:  fleet.PathsSimulated,
		NumCuts:         fleet.NumCuts,
		NumBlocks:       fleet.NumBlocks,
		NumSeparateCuts: fleet.NumSeparateCuts,
		SimTime:         time.Since(start),
	}, fleet, nil
}

// compile parses the job's circuit and fetches its plan from plans (nil:
// compile uncached), returning the options it was compiled with.
func (j *Job) compile(plans *hsfsim.PlanCache) (*hsfsim.CompiledPlan, hsfsim.Options, error) {
	opts, err := j.Options()
	if err != nil {
		return nil, opts, err
	}
	c, err := qasm.Parse(strings.NewReader(j.QASM))
	if err != nil {
		return nil, opts, fmt.Errorf("dist: parsing job circuit: %w", err)
	}
	cp, _, err := plans.Get(c, opts)
	if err != nil {
		return nil, opts, fmt.Errorf("dist: planning job circuit: %w", err)
	}
	return cp, opts, nil
}
