// Async job endpoints: the multi-tenant job service over internal/jobs.
//
//	POST /jobs              — enqueue a simulation job (202 + snapshot)
//	GET  /jobs              — list jobs (?tenant= filters)
//	GET  /jobs/{id}         — one job's snapshot
//	POST /jobs/{id}/cancel  — cancel a queued or running job
//	GET  /jobs/{id}/result  — a done job's full result
//	GET  /jobs/{id}/events  — SSE stream: progress ticks, then chunked
//	                          amplitudes, then a terminal event
//
// Submissions are admitted against queue capacity, per-tenant quotas, and
// the hsf.Cost budget gate: shed work gets 429 with a Retry-After that
// accounts for queued batches (not just in-flight requests), over-budget
// work gets 422 synchronously.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"hsfsim"
	"hsfsim/internal/jobs"
	"hsfsim/internal/telemetry/trace"
)

// JobEventChunk bounds the amplitudes carried by one SSE "amplitudes" event.
const JobEventChunk = 512

// JobSubmitRequest is the POST /jobs payload: a SimulateRequest plus the
// multi-tenant scheduling fields.
type JobSubmitRequest struct {
	SimulateRequest
	// Tenant namespaces quota and fairness ("" = the default tenant).
	Tenant string `json:"tenant,omitempty"`
	// Priority orders execution: higher runs first.
	Priority int `json:"priority,omitempty"`
}

// JobListResponse is the GET /jobs reply.
type JobListResponse struct {
	Jobs []jobs.Snapshot `json:"jobs"`
}

// AmplitudeChunk is one SSE "amplitudes" event: a contiguous slice of the
// result statevector, so results of any size stream without one giant frame.
type AmplitudeChunk struct {
	Offset     int         `json:"offset"`
	Total      int         `json:"total"`
	Amplitudes []Amplitude `json:"amplitudes"`
}

// jobsRegistry tracks every service's job manager so the process-global
// expvar block can aggregate across instances, mirroring distStatsRegistry.
var jobsRegistry struct {
	mu  sync.Mutex
	all []*jobs.Manager
}

func registerJobsManager(m *jobs.Manager) {
	jobsRegistry.mu.Lock()
	jobsRegistry.all = append(jobsRegistry.all, m)
	jobsRegistry.mu.Unlock()
}

// sumJobsStats folds one counter across every registered manager so the
// process-global expvar map stays flat scalars (its documented shape).
func sumJobsStats(read func(jobs.StatsSnapshot) int64) int64 {
	jobsRegistry.mu.Lock()
	mgrs := append([]*jobs.Manager(nil), jobsRegistry.all...)
	jobsRegistry.mu.Unlock()
	var total int64
	for _, m := range mgrs {
		total += read(m.Stats())
	}
	return total
}

// newJobsManager assembles the service's job manager from its Config.
func (s *service) newJobsManager() (*jobs.Manager, error) {
	jcfg := jobs.Config{
		Runners:       s.cfg.JobRunners,
		QueueCap:      s.cfg.JobQueueCap,
		TenantQuota:   s.cfg.TenantQuota,
		Quotas:        s.cfg.TenantQuotas,
		FlushInterval: s.cfg.JobFlushInterval,
		Trace:         s.trace,
		Logf: func(format string, args ...any) {
			s.cfg.Logger.Printf(format, args...)
		},
		OnRunTelemetry: s.mergeRunTelemetry,
		OnResult: func(snap jobs.Snapshot, res *hsfsim.Result) {
			metricSimulations.Add(1)
		},
		RunDistributed: func(ctx context.Context, src string, opts hsfsim.Options) (*hsfsim.Result, error) {
			res, _, err := s.coord.Simulate(ctx, src, opts)
			return res, err
		},
	}
	if s.cfg.JobStoreDir != "" {
		store, err := jobs.NewDirStore(s.cfg.JobStoreDir)
		if err != nil {
			return nil, err
		}
		jcfg.Store = store
	}
	return jobs.New(jcfg)
}

// handleJobSubmit enqueues one job: parse, resolve options exactly like
// /simulate, and admit through the manager. 202 + snapshot on success.
func (s *service) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	reqID := requestID(r.Context())
	var req JobSubmitRequest
	if !s.decode(w, r, &req) {
		return
	}
	c, err := parseCircuit(req.QASM)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err, reqID)
		return
	}
	opts, status, err := s.simulateOptions(&req.SimulateRequest, c.NumQubits)
	if err != nil {
		writeErr(w, status, err, reqID)
		return
	}
	// Jobs outlive the HTTP request, so the deadline travels as an option
	// instead of riding the request context.
	if req.TimeoutMillis > 0 {
		d := time.Duration(req.TimeoutMillis) * time.Millisecond
		if s.cfg.MaxTimeout > 0 && d > s.cfg.MaxTimeout {
			d = s.cfg.MaxTimeout
		}
		opts.Timeout = d
	}
	_, parentSC := trace.FromContext(r.Context())
	snap, err := s.jobs.Submit(jobs.Request{
		Tenant:      req.Tenant,
		Priority:    req.Priority,
		RequestID:   reqID,
		TraceParent: parentSC,
		QASM:        req.QASM,
		Circuit:     c,
		Distribute:  req.Distribute,
		Opts:        opts,
	})
	if err != nil {
		s.writeJobSubmitErr(w, err, reqID)
		return
	}
	w.Header().Set("Location", "/jobs/"+snap.ID)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	_ = json.NewEncoder(w).Encode(snap)
}

// writeJobSubmitErr maps admission failures onto HTTP statuses: shed work
// (queue full, quota) gets 429 with the manager's drain-aware Retry-After,
// over-budget work 422, a closed manager 503, everything else 400.
func (s *service) writeJobSubmitErr(w http.ResponseWriter, err error, reqID string) {
	var qf *jobs.QueueFullError
	var qe *jobs.QuotaError
	switch {
	case errors.As(err, &qf):
		metricShed429.Add(1)
		w.Header().Set("Retry-After", retryAfterSeconds(qf.RetryAfter))
		writeErr(w, http.StatusTooManyRequests, err, reqID)
	case errors.As(err, &qe):
		metricShed429.Add(1)
		w.Header().Set("Retry-After", retryAfterSeconds(qe.RetryAfter))
		writeErr(w, http.StatusTooManyRequests, err, reqID)
	case errors.Is(err, hsfsim.ErrBudget):
		writeErr(w, http.StatusUnprocessableEntity, err, reqID)
	case errors.Is(err, jobs.ErrClosed):
		writeErr(w, http.StatusServiceUnavailable, err, reqID)
	default:
		writeErr(w, http.StatusBadRequest, err, reqID)
	}
}

// retryAfterSeconds renders a backoff hint as the integer-seconds form of
// the Retry-After header, never below 1.
func retryAfterSeconds(d time.Duration) string {
	secs := int(d / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

func (s *service) handleJobList(w http.ResponseWriter, r *http.Request) {
	list := s.jobs.List(r.URL.Query().Get("tenant"))
	if list == nil {
		list = []jobs.Snapshot{}
	}
	writeJSON(w, JobListResponse{Jobs: list})
}

func (s *service) handleJobGet(w http.ResponseWriter, r *http.Request) {
	reqID := requestID(r.Context())
	snap, err := s.jobs.Get(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusNotFound, err, reqID)
		return
	}
	writeJSON(w, snap)
}

func (s *service) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	reqID := requestID(r.Context())
	id := r.PathValue("id")
	snap, err := s.jobs.Cancel(id)
	if err != nil {
		writeErr(w, http.StatusNotFound, err, reqID)
		return
	}
	s.cfg.Logger.Printf("%s cancel job=%s state=%s", reqID, id, snap.State)
	writeJSON(w, snap)
}

// handleJobResult serves a done job's full result in the /simulate response
// shape. Unfinished jobs get 409 so pollers can tell "not yet" from "gone".
func (s *service) handleJobResult(w http.ResponseWriter, r *http.Request) {
	reqID := requestID(r.Context())
	id := r.PathValue("id")
	snap, err := s.jobs.Get(id)
	if err != nil {
		writeErr(w, http.StatusNotFound, err, reqID)
		return
	}
	res, err := s.jobs.Result(id)
	switch {
	case err == nil:
	case errors.Is(err, jobs.ErrNoResult):
		writeErr(w, http.StatusConflict,
			fmt.Errorf("job %s is %s; no result", id, snap.State), reqID)
		return
	case snap.State == jobs.StateFailed:
		writeErr(w, http.StatusConflict, fmt.Errorf("job %s failed: %w", id, err), reqID)
		return
	default:
		writeErr(w, http.StatusInternalServerError, err, reqID)
		return
	}
	writeJSON(w, simulateResponse(res, snap.NumQubits, nil))
}

// handleJobEvents streams a job's lifecycle as Server-Sent Events: a
// "progress" event per transition or tick while the job is live, then — for
// done jobs — the full amplitude vector in "amplitudes" chunks (unbounded by
// the /simulate echo cap; chunking keeps frames small), and finally one
// terminal event named after the final state.
func (s *service) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	reqID := requestID(r.Context())
	id := r.PathValue("id")
	ch, stop, err := s.jobs.Watch(id)
	if err != nil {
		writeErr(w, http.StatusNotFound, err, reqID)
		return
	}
	defer stop()
	fl, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusInternalServerError, errors.New("streaming unsupported"), reqID)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	emit := func(event string, v any) {
		data, merr := json.Marshal(v)
		if merr != nil {
			return
		}
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
		fl.Flush()
	}

	tick := time.NewTicker(500 * time.Millisecond)
	defer tick.Stop()
	var snap jobs.Snapshot
	for {
		snap, err = s.jobs.Get(id)
		if err != nil {
			return
		}
		if snap.State.Terminal() {
			break
		}
		emit("progress", snap)
		select {
		case <-r.Context().Done():
			s.cfg.Logger.Printf("%s events job=%s: client closed stream", reqID, id)
			return
		case <-ch:
		case <-tick.C:
		}
	}
	if snap.State == jobs.StateDone {
		res, rerr := s.jobs.Result(id)
		if rerr == nil {
			total := len(res.Amplitudes)
			for off := 0; off < total; off += JobEventChunk {
				if r.Context().Err() != nil {
					return
				}
				end := off + JobEventChunk
				if end > total {
					end = total
				}
				chunk := AmplitudeChunk{Offset: off, Total: total}
				chunk.Amplitudes = make([]Amplitude, end-off)
				for i, a := range res.Amplitudes[off:end] {
					chunk.Amplitudes[i] = Amplitude{Re: real(a), Im: imag(a)}
				}
				emit("amplitudes", chunk)
			}
		}
	}
	emit(snap.State.String(), snap)
	s.cfg.Logger.Printf("%s events job=%s: stream complete state=%s", reqID, id, snap.State)
}
