// Package dist shards an HSF simulation across worker processes.
//
// The ∏ r_i Feynman paths of an HSF plan are embarrassingly parallel and
// bounded-memory, which makes them the ideal unit of distribution: the
// coordinator compiles the cut plan once, expands the leading cut levels into
// prefix tasks (hsf.EnumeratePrefixes), groups them into disjoint batches,
// and hands out *leases* of batches to workers. A worker executes its batch
// with the ordinary engine (hsf.RunPrefixesContext) and streams back the
// partial accumulator plus leaf counts in the checkpoint wire format; the
// coordinator folds partials together with hsf.Checkpoint.Merge — exactly the
// operation checkpoint resume performs locally.
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
	"errors"
	"fmt"
	"strings"

	"hsfsim/internal/cut"
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
// plan exchange: coordinator and workers compile it independently through the
// identical deterministic pipeline, and the resulting plans are
// fingerprint-checked (hsf.PlanHash) before any path is simulated.
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
	// Backend selects the walker backend every worker must run: "" / "dense"
	// or "dd". The field is omitted for dense, so dense fleets interoperate
	// with workers predating it; workers that do not know the field reject
	// the lease outright (the wire decoder disallows unknown fields), which
	// keeps a mixed fleet from silently splitting a run across backends.
	Backend string `json:"backend,omitempty"`
}

// BuildPlan compiles the job's circuit into the cut plan every participant
// must agree on.
func (j *Job) BuildPlan() (*cut.Plan, error) {
	c, err := qasm.Parse(strings.NewReader(j.QASM))
	if err != nil {
		return nil, fmt.Errorf("dist: parsing job circuit: %w", err)
	}
	strategy := cut.StrategyNone
	switch j.Method {
	case "standard":
	case "joint", "":
		switch j.Strategy {
		case "", "cascade":
			strategy = cut.StrategyCascade
		case "window":
			strategy = cut.StrategyWindow
		default:
			return nil, fmt.Errorf("dist: unknown strategy %q", j.Strategy)
		}
	default:
		return nil, fmt.Errorf("dist: unknown method %q", j.Method)
	}
	plan, err := cut.BuildPlan(c, cut.Options{
		Partition:      cut.Partition{CutPos: j.CutPos},
		Strategy:       strategy,
		MaxBlockQubits: j.MaxBlockQubits,
		Tol:            j.Tol,
	})
	if err != nil {
		return nil, fmt.Errorf("dist: planning job circuit: %w", err)
	}
	return plan, nil
}
