// Package jobs is the asynchronous multi-tenant job layer over the
// simulator: submissions enter per-tenant priority queues behind quota and
// cost admission, a bounded runner pool executes them through the unified
// walker, and job state survives process restarts through a durable Store
// using the PR-1 binary checkpoint format.
//
// The subsystem's central economy is the plan cache: jobs are keyed by a
// circuit fingerprint (hsfsim.Fingerprint), so concurrent submissions of the
// same circuit compile one plan, and queued same-fingerprint jobs are
// batched behind one path-tree walk whose accumulator serves every member —
// the walker already sums multiple amplitudes per leaf, so N identical jobs
// cost one simulation plus N result copies.
//
// Lifecycle: queued → running → done | failed | cancelled. Queued and
// running jobs are re-offered (re-enqueued) when a restarted Manager loads
// the store; running batches additionally flush mid-run checkpoints, so a
// re-offered batch resumes from the last flushed prefix instead of
// restarting.
package jobs

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"hsfsim"
	"hsfsim/internal/telemetry/trace"
)

// State is a job's lifecycle position.
type State int

// Job lifecycle states. Terminal states are StateDone, StateFailed,
// StateCancelled.
const (
	StateQueued State = iota
	StateRunning
	StateDone
	StateFailed
	StateCancelled
)

func (s State) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	case StateFailed:
		return "failed"
	case StateCancelled:
		return "cancelled"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// MarshalText serializes the state name for JSON manifests and API bodies.
func (s State) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText parses a state name.
func (s *State) UnmarshalText(b []byte) error {
	for st := StateQueued; st <= StateCancelled; st++ {
		if st.String() == string(b) {
			*s = st
			return nil
		}
	}
	return fmt.Errorf("jobs: unknown state %q", b)
}

// ErrNotFound is returned for unknown job IDs.
var ErrNotFound = errors.New("jobs: job not found")

// ErrClosed is returned by Submit after the manager has been closed.
var ErrClosed = errors.New("jobs: manager closed")

// ErrQueueFull is the sentinel matched by errors.Is when the global queue is
// at capacity; the concrete error is a *QueueFullError carrying a
// Retry-After hint.
var ErrQueueFull = errors.New("jobs: queue full")

// ErrQuota is the sentinel matched by errors.Is when a tenant's outstanding
// job quota is exhausted; the concrete error is a *QuotaError.
var ErrQuota = errors.New("jobs: tenant quota exhausted")

// ErrNoResult is returned by Result for jobs that are not done.
var ErrNoResult = errors.New("jobs: job has no result")

// QueueFullError reports a submission shed because the queue is at
// capacity. It wraps ErrQueueFull; RetryAfter estimates when a slot frees.
type QueueFullError struct {
	Depth, Capacity int
	RetryAfter      time.Duration
}

func (e *QueueFullError) Error() string {
	return fmt.Sprintf("jobs: queue full (%d/%d queued); retry in %s",
		e.Depth, e.Capacity, e.RetryAfter.Round(time.Millisecond))
}

// Unwrap makes errors.Is(err, ErrQueueFull) match.
func (e *QueueFullError) Unwrap() error { return ErrQueueFull }

// QuotaError reports a submission rejected because the tenant already has
// its full quota of outstanding (queued + running) jobs. It wraps ErrQuota.
type QuotaError struct {
	Tenant      string
	Outstanding int
	Quota       int
	RetryAfter  time.Duration
}

func (e *QuotaError) Error() string {
	return fmt.Sprintf("jobs: tenant %q has %d outstanding jobs (quota %d); retry in %s",
		e.Tenant, e.Outstanding, e.Quota, e.RetryAfter.Round(time.Millisecond))
}

// Unwrap makes errors.Is(err, ErrQuota) match.
func (e *QuotaError) Unwrap() error { return ErrQuota }

// Request describes one submission.
type Request struct {
	// Tenant namespaces quotas and fairness; empty means the "default"
	// tenant.
	Tenant string
	// Priority orders execution: higher runs first. Jobs of equal priority
	// are served FIFO with round-robin across tenants.
	Priority int
	// RequestID is the originating HTTP request ID (or any caller
	// correlation token); it is propagated into logs and snapshots so a
	// job's compile/walk phases are attributable end to end.
	RequestID string
	// TraceParent, when valid, parents the job's lifecycle spans under the
	// submitting request's span, so one trace covers submission, queue
	// wait, and the batch walk. A zero value roots a fresh trace.
	TraceParent trace.SpanContext
	// QASM is the OpenQASM 2.0 source — the durable form of the circuit.
	// Optional if Circuit is set (the manager serializes it for the store).
	QASM string
	// Circuit is the parsed circuit; optional if QASM is set.
	Circuit *hsfsim.Circuit
	// Distribute routes execution through the configured dist-fleet runner
	// (Config.RunDistributed) instead of the in-process walker. Distributed
	// jobs keep queueing, quotas, and durability but bypass batching — the
	// dist coordinator compiles the plan for its run.
	Distribute bool
	// Opts carries the simulation options. Plan-affecting fields key the
	// plan cache; execution fields apply to this job's run. Callback fields
	// (CheckpointWriter, ResumeFrom, OnCheckpoint, Telemetry, Progress) are
	// owned by the manager and ignored if set.
	Opts hsfsim.Options
}

// Snapshot is a point-in-time copy of a job's externally visible state,
// safe to serialize.
type Snapshot struct {
	ID        string    `json:"id"`
	Tenant    string    `json:"tenant"`
	Priority  int       `json:"priority"`
	RequestID string    `json:"request_id,omitempty"`
	State     State     `json:"state"`
	Created   time.Time `json:"created"`
	Started   time.Time `json:"started"`
	Finished  time.Time `json:"finished"`
	// Fingerprint is the plan-cache key (circuit + plan-affecting options).
	Fingerprint uint64 `json:"fingerprint,string"`
	// NumQubits is the circuit width (0 only for terminal jobs reloaded
	// from a store predating the field).
	NumQubits int `json:"num_qubits,omitempty"`
	// PathsDone/PathsTotal expose live walk progress while running and the
	// final counts afterwards.
	PathsDone  int64 `json:"paths_done"`
	PathsTotal int64 `json:"paths_total"`
	// BatchSize is the number of jobs sharing this job's walk (1 when it
	// ran alone); PlanShared reports whether the compiled plan came from
	// the cache rather than being compiled for this batch.
	BatchSize  int  `json:"batch_size,omitempty"`
	PlanShared bool `json:"plan_shared,omitempty"`
	// Resumed reports that the run continued from a durable mid-run
	// checkpoint after a restart.
	Resumed bool `json:"resumed,omitempty"`
	// Error holds the failure message for StateFailed.
	Error string `json:"error,omitempty"`
}

// newID returns a process-unique, restart-unique job identifier.
func newID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; fall back to the
		// clock rather than crashing a service.
		binary.LittleEndian.PutUint64(b[:], uint64(time.Now().UnixNano()))
	}
	return fmt.Sprintf("job-%016x", binary.LittleEndian.Uint64(b[:]))
}
