// Package server exposes the simulator over HTTP with a JSON API:
//
//	POST /analyze       — cut-plan summary for a QASM circuit
//	POST /simulate      — run one of the three methods on a QASM circuit
//	                      ("distribute": true fans out over registered workers)
//	POST /jobs          — enqueue an async multi-tenant job (see jobs.go)
//	GET  /jobs/…        — job status, results, cancellation, SSE streaming
//	POST /dist/run      — worker endpoint: execute one prefix-batch lease
//	POST /dist/register — worker heartbeat: join this coordinator's fleet
//	GET  /dist/workers  — list the live worker fleet
//	GET  /healthz       — liveness
//	GET  /readyz        — readiness / saturation of the simulation limiter
//	GET  /debug/vars    — expvar runtime metrics
//	GET  /metrics       — Prometheus text exposition (counters + histograms)
//
// The handlers are plain net/http so the service embeds anywhere; cmd/hsfsimd
// wraps them in a binary.
//
// Resilience: every request gets an ID (echoed in the X-Request-Id header,
// error envelopes, and logs), panics become 500 JSON envelopes, simulation
// endpoints run under a semaphore that sheds load with 429 + Retry-After
// when saturated, per-request deadlines derive from timeout_ms through the
// request context, and admission control rejects over-budget jobs with 422
// before allocating. /dist/run runs under the same limiter, deadlines, and
// panic middleware, so a daemon in worker mode keeps its protections.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"log"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"hsfsim"
	"hsfsim/internal/dist"
	"hsfsim/internal/hsf"
	"hsfsim/internal/jobs"
	"hsfsim/internal/qasm"
	"hsfsim/internal/telemetry"
	"hsfsim/internal/telemetry/trace"
)

// MaxRequestBytes bounds the accepted QASM payload.
const MaxRequestBytes = 4 << 20

// MaxReturnedAmplitudes bounds the amplitudes echoed back per request.
const MaxReturnedAmplitudes = 4096

// MaxBlockQubits bounds a request's max_block_qubits. Planning takes no
// context, and a block with a non-diagonal member is decomposed through its
// dense 4^n-entry unitary (4 GiB at n = 14), so an unchecked value would
// spend that before any deadline, limiter or cost estimate could act.
const MaxBlockQubits = 10

// StatusClientClosedRequest is the nonstandard (nginx-convention) status
// logged when the client goes away mid-simulation.
const StatusClientClosedRequest = 499

// Config tunes the service; the zero value selects production defaults.
type Config struct {
	// MaxConcurrent bounds simultaneous /simulate + /analyze requests;
	// excess requests are shed with 429 + Retry-After. 0 selects
	// 2×GOMAXPROCS; negative disables the limiter.
	MaxConcurrent int
	// MemoryBudget and MaxPaths are passed through to the simulator's
	// admission gate (see hsfsim.Options); over-budget jobs get 422.
	MemoryBudget int64
	MaxPaths     uint64
	// MaxTimeout caps the per-request timeout_ms (0: 10 minutes).
	MaxTimeout time.Duration
	// Workers is each request's HSF path-worker count (hsfsim.Options.Workers,
	// 0: GOMAXPROCS). Gate kernels and Schrödinger tile passes use the cores
	// no run has reserved, so a Schrödinger request ignores it.
	Workers int
	// Logger receives request logs (nil: log.Default()).
	Logger *log.Logger
	// DistLeaseTimeout bounds one distributed lease when this service acts
	// as a coordinator (0: the dist default, 2 minutes).
	DistLeaseTimeout time.Duration
	// WorkerTTL is how long a /dist/register heartbeat keeps a worker in the
	// fleet (0: 1 minute).
	WorkerTTL time.Duration
	// HeartbeatInterval is the re-registration cadence advertised to workers;
	// it must stay below WorkerTTL (0: WorkerTTL/3).
	HeartbeatInterval time.Duration
	// DistMaxStrikes is the consecutive-failure count that retires a worker
	// from a run (0: the dist default, 3).
	DistMaxStrikes int

	// JobStoreDir, when set, makes the async job service durable: manifests,
	// mid-run checkpoints, and results persist there, and a restarted daemon
	// re-offers unfinished jobs. Empty keeps jobs in memory only.
	JobStoreDir string
	// JobRunners bounds concurrent job batch executions (0: 2).
	JobRunners int
	// JobQueueCap bounds queued jobs; submissions beyond it are shed with
	// 429 + Retry-After (0: 256).
	JobQueueCap int
	// TenantQuota caps one tenant's outstanding (queued + running) jobs;
	// 0 means unlimited. TenantQuotas overrides it per tenant.
	TenantQuota  int
	TenantQuotas map[string]int
	// JobFlushInterval rate-limits mid-run job checkpoint flushes (0: 2s).
	JobFlushInterval time.Duration

	// TraceCapacity sizes the service's span flight recorder, in events
	// (0: the trace package default; negative: tracing disabled). The
	// recorder is fixed-memory and oldest-evicted, so it is safe to leave
	// on in production; /debug/trace serves its contents.
	TraceCapacity int
}

// Validate reports whether the configuration would be rejected by the
// coordinator (e.g. a worker TTL at or below the heartbeat interval); the
// returned error is dist's typed *ConfigError. NewService panics on an
// invalid Config, so daemons validate first to fail their flags cleanly.
func (c Config) Validate() error {
	return c.withDefaults().distConfig(nil, nil).Validate()
}

// distConfig derives the coordinator configuration from the service's.
func (c Config) distConfig(stats *dist.Stats, onLease func(telemetry.LeaseEvent)) dist.Config {
	return dist.Config{
		Transport:         &dist.HTTPTransport{},
		LeaseTimeout:      c.DistLeaseTimeout,
		WorkerTTL:         c.WorkerTTL,
		HeartbeatInterval: c.HeartbeatInterval,
		MaxStrikes:        c.DistMaxStrikes,
		Logger:            c.Logger,
		Stats:             stats,
		OnLease:           onLease,
	}
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent == 0 {
		c.MaxConcurrent = 2 * runtime.GOMAXPROCS(0)
	}
	if c.MaxTimeout == 0 {
		c.MaxTimeout = 10 * time.Minute
	}
	if c.Logger == nil {
		c.Logger = log.Default()
	}
	return c
}

// AnalyzeRequest is the /analyze payload.
type AnalyzeRequest struct {
	QASM           string `json:"qasm"`
	CutPos         *int   `json:"cut_pos,omitempty"` // default n/2-1
	Strategy       string `json:"strategy,omitempty"`
	MaxBlockQubits int    `json:"max_block_qubits,omitempty"`
}

// SimulateRequest is the /simulate payload.
type SimulateRequest struct {
	QASM           string `json:"qasm"`
	Method         string `json:"method"` // schrodinger | standard | joint
	CutPos         *int   `json:"cut_pos,omitempty"`
	MaxAmplitudes  int    `json:"max_amplitudes,omitempty"`
	Strategy       string `json:"strategy,omitempty"`
	MaxBlockQubits int    `json:"max_block_qubits,omitempty"`
	TimeoutMillis  int    `json:"timeout_ms,omitempty"`
	// Distribute fans the run out over the registered worker fleet instead of
	// simulating locally. Requires an HSF method and at least one worker
	// (503 otherwise).
	Distribute bool `json:"distribute,omitempty"`
}

// Amplitude is one complex amplitude in the response.
type Amplitude struct {
	Re float64 `json:"re"`
	Im float64 `json:"im"`
}

// SimulateResponse is the /simulate reply.
type SimulateResponse struct {
	Method          string      `json:"method"`
	NumQubits       int         `json:"num_qubits"`
	NumPaths        uint64      `json:"num_paths"`
	Log2Paths       float64     `json:"log2_paths"`
	NumCuts         int         `json:"num_cuts"`
	NumBlocks       int         `json:"num_blocks"`
	PreprocessMs    float64     `json:"preprocess_ms"`
	SimMs           float64     `json:"sim_ms"`
	PathsSimulated  int64       `json:"paths_simulated"`
	Amplitudes      []Amplitude `json:"amplitudes"`
	AmplitudesTotal int         `json:"amplitudes_total"`
	Truncated       bool        `json:"truncated"`
	// Distributed-run statistics (distribute: true only).
	Distributed   bool  `json:"distributed,omitempty"`
	DistWorkers   int   `json:"dist_workers,omitempty"`
	DistBatches   int   `json:"dist_batches,omitempty"`
	Reassignments int64 `json:"dist_reassignments,omitempty"`
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error     string `json:"error"`
	RequestID string `json:"request_id,omitempty"`
}

// readyBody is the /readyz reply. Beyond the readiness verdict it echoes the
// load-relevant expvar counters so probes see them without parsing
// /debug/vars.
type readyBody struct {
	Status   string `json:"status"` // "ready" | "saturated" | "draining"
	InFlight int64  `json:"in_flight"`
	Capacity int    `json:"capacity"`
	Workers  int    `json:"dist_workers"`
	Draining bool   `json:"draining,omitempty"`

	// Job-queue saturation: depth against capacity, plus the live run count.
	// A full queue flips the verdict to "saturated" just like a full limiter
	// — the next submission would be shed, so load balancers should back off.
	JobsQueued   int   `json:"jobs_queued"`
	JobsQueueCap int   `json:"jobs_queue_cap"`
	JobsRunning  int64 `json:"jobs_running"`

	RequestsTotal       int64 `json:"requests_total"`
	SimulationsTotal    int64 `json:"simulations_total"`
	PathsSimulatedTotal int64 `json:"paths_simulated_total"`
	Shed429Total        int64 `json:"shed_429_total"`
	WorkerRunsTotal     int64 `json:"worker_runs_total"`
	LeaseReassignments  int64 `json:"dist_lease_reassignments_total"`
	LeasesStolen        int64 `json:"dist_leases_stolen_total"`
	LeasesResplit       int64 `json:"dist_leases_resplit_total"`
	PartialReturns      int64 `json:"dist_partial_returns_total"`
	WorkersJoined       int64 `json:"dist_workers_joined_total"`
	WorkersLeft         int64 `json:"dist_workers_left_total"`
}

type service struct {
	cfg      Config
	sem      chan struct{} // nil when the limiter is disabled
	inFlight atomic.Int64
	reqSeq   atomic.Uint64
	coord    *dist.Coordinator
	jobs     *jobs.Manager

	// drainCtx is canceled when the service starts draining: new leases are
	// refused with 503 and in-flight /dist/run leases are canceled so they
	// return their finished prefixes as partials.
	drainCtx    context.Context
	drainCancel context.CancelFunc

	// distStats is this coordinator's private lease-stats block; /debug/vars
	// aggregates across all services in the process, /readyz reads only ours.
	distStats *dist.Stats

	// Service-lifetime histograms served by /metrics; request-scoped recorders
	// merge into the first three, the coordinator's OnLease feeds the last.
	leafLatency    telemetry.Histogram
	leafFold       telemetry.Histogram
	segmentSweep   telemetry.Histogram
	leaseDurations telemetry.Histogram

	// trace is the process flight recorder behind /debug/trace; nil when
	// disabled, which every span call site tolerates.
	trace *trace.Recorder
}

// Service couples the HTTP handler tree with the fleet management the
// embedding binary needs (pinning static workers from the command line).
type Service struct {
	svc     *service
	handler http.Handler
}

// NewService builds the service and its handler tree. It panics on a Config
// the coordinator rejects; call Config.Validate first to get the typed error
// instead.
func NewService(cfg Config) *Service {
	s := newService(cfg)
	return &Service{svc: s, handler: s.routes()}
}

// Handler returns the HTTP handler tree.
func (s *Service) Handler() http.Handler { return s.handler }

// AddWorker pins a static distributed worker that never expires.
func (s *Service) AddWorker(addr string) { s.svc.coord.AddWorker(addr) }

// Workers returns the live distributed-worker fleet.
func (s *Service) Workers() []string { return s.svc.coord.Workers() }

// Drain puts the service into worker-drain mode: new /dist/run leases are
// refused with 503 and in-flight leases are canceled, which makes them
// return the prefixes they finished as valid partials instead of abandoning
// the work. Call it on SIGTERM before shutting the listener down.
func (s *Service) Drain() { s.svc.drainCancel() }

// Jobs exposes the async job manager for embedding binaries and tests.
func (s *Service) Jobs() *jobs.Manager { return s.svc.jobs }

// CloseJobs stops the job service: running walks are cancelled with their
// final checkpoints flushed to the store, and queued/running jobs stay in
// the store for the next start to re-offer. Call it on SIGTERM (after
// Drain) so a restarted daemon resumes instead of losing work; ctx bounds
// the wait for the runner pool.
func (s *Service) CloseJobs(ctx context.Context) error { return s.svc.jobs.Close(ctx) }

// New returns the HTTP handler tree with default configuration.
func New() http.Handler { return NewWithConfig(Config{}) }

// NewWithConfig returns the HTTP handler tree.
func NewWithConfig(cfg Config) http.Handler {
	return NewService(cfg).Handler()
}

func (s *service) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", handleHealth)
	mux.HandleFunc("/readyz", s.handleReady)
	mux.Handle("/analyze", s.limited(s.handleAnalyze))
	mux.Handle("/simulate", s.limited(s.handleSimulate))
	// POST /jobs runs under the limiter because a cache-miss submission
	// compiles a plan synchronously; the read/stream endpoints stay outside
	// it (an SSE stream must not pin a simulation slot for its lifetime).
	mux.Handle("POST /jobs", s.limited(s.handleJobSubmit))
	mux.HandleFunc("GET /jobs", s.handleJobList)
	mux.HandleFunc("GET /jobs/{id}", s.handleJobGet)
	mux.HandleFunc("POST /jobs/{id}/cancel", s.handleJobCancel)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleJobResult)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleJobEvents)
	mux.Handle("/dist/run", s.limited(s.handleDistRun))
	mux.HandleFunc("/dist/register", s.handleDistRegister)
	mux.HandleFunc("/dist/deregister", s.handleDistDeregister)
	mux.HandleFunc("/dist/workers", s.handleDistWorkers)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("GET /debug/trace", s.handleDebugTrace)
	mux.HandleFunc("/metrics", s.handleMetrics)
	return s.instrument(mux)
}

func newService(cfg Config) *service {
	s := &service{cfg: cfg.withDefaults(), distStats: newDistStats()}
	if s.cfg.TraceCapacity >= 0 {
		s.trace = trace.NewRecorder(s.cfg.TraceCapacity)
	}
	if s.cfg.MaxConcurrent > 0 {
		s.sem = make(chan struct{}, s.cfg.MaxConcurrent)
	}
	s.drainCtx, s.drainCancel = context.WithCancel(context.Background())
	coord, err := dist.New(s.cfg.distConfig(s.distStats, func(ev telemetry.LeaseEvent) {
		s.leaseDurations.Observe(time.Duration(ev.DurMs * float64(time.Millisecond)))
	}))
	if err != nil {
		panic(fmt.Sprintf("server: %v", err))
	}
	s.coord = coord
	mgr, err := s.newJobsManager()
	if err != nil {
		panic(fmt.Sprintf("server: job service: %v", err))
	}
	s.jobs = mgr
	registerJobsManager(mgr)
	return s
}

// instrument assigns a request ID, opens the request span, and converts
// handler panics into 500 JSON envelopes instead of letting net/http kill
// the connection. An incoming X-Request-Id (a coordinator forwarding its
// own) is kept so worker logs correlate with the originating request, and
// an incoming traceparent header parents the request span, stitching
// worker-side spans into the coordinator's trace.
func (s *service) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		metricRequests.Add(1)
		id := r.Header.Get("X-Request-Id")
		if id == "" || len(id) > 64 {
			id = fmt.Sprintf("req-%08x", s.reqSeq.Add(1))
		}
		w.Header().Set("X-Request-Id", id)
		ctx := withRequestID(r.Context(), id)
		var parent trace.SpanContext
		if v := r.Header.Get(trace.Header); v != "" {
			if sc, err := trace.ParseTraceparent(v); err == nil {
				parent = sc
			}
		}
		sp := s.trace.Start(parent, r.URL.Path)
		sp.SetStr("req", id)
		sp.SetStr("method", r.Method)
		defer sp.End()
		r = r.WithContext(trace.NewContext(ctx, s.trace, sp.Context()))
		defer func() {
			if rec := recover(); rec != nil {
				s.cfg.Logger.Printf("%s %s %s: panic: %v", id, r.Method, r.URL.Path, rec)
				writeErr(w, http.StatusInternalServerError,
					fmt.Errorf("internal error (request %s)", id), id)
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// handleDebugTrace dumps the flight recorder as Chrome trace-event JSON,
// loadable in chrome://tracing or Perfetto. ?run= narrows the dump to one
// trace, addressed either by 32-hex trace ID or by any identifier a span
// carries as its "run", "req", or "job" attribute (distributed run IDs,
// request IDs, job IDs).
func (s *service) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	if s.trace == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("tracing disabled"), requestID(r.Context()))
		return
	}
	events := s.trace.Snapshot()
	if q := r.URL.Query().Get("run"); q != "" {
		var id trace.TraceID
		found := false
		if err := id.UnmarshalHex(q); err == nil {
			found = true
		} else {
			for i := range events {
				ev := &events[i]
				if ev.Str("run") == q || ev.Str("req") == q || ev.Str("job") == q {
					id = ev.Trace
					found = true
					break
				}
			}
		}
		filtered := events[:0]
		for _, ev := range events {
			if ev.Trace == id {
				filtered = append(filtered, ev)
			}
		}
		events = filtered
		if !found || len(events) == 0 {
			writeErr(w, http.StatusNotFound, fmt.Errorf("no recorded spans for %q", q), requestID(r.Context()))
			return
		}
	}
	w.Header().Set("Content-Type", "application/json")
	if err := trace.WriteChromeTrace(w, events); err != nil {
		s.cfg.Logger.Printf("%s /debug/trace: writing trace: %v", requestID(r.Context()), err)
	}
}

// limited wraps a simulation handler in the concurrency semaphore: requests
// beyond capacity are shed immediately with 429 + Retry-After so callers can
// back off instead of queueing into memory exhaustion.
func (s *service) limited(h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.sem != nil {
			select {
			case s.sem <- struct{}{}:
				defer func() { <-s.sem }()
			default:
				metricShed429.Add(1)
				// The backoff hint accounts for queued async work, not just
				// the in-flight requests: a saturated daemon with a deep job
				// queue will not have a free slot in one second.
				w.Header().Set("Retry-After", retryAfterSeconds(s.jobs.RetryAfter()))
				writeErr(w, http.StatusTooManyRequests,
					fmt.Errorf("server saturated: %d simulations in flight", s.inFlight.Load()),
					requestID(r.Context()))
				return
			}
		}
		s.inFlight.Add(1)
		metricInFlight.Add(1)
		defer func() {
			s.inFlight.Add(-1)
			metricInFlight.Add(-1)
		}()
		h(w, r)
	})
}

// Request IDs live in the trace package's context slot so the dist
// transport forwards them to workers without importing this package.
func withRequestID(ctx context.Context, id string) context.Context {
	return trace.WithRequestID(ctx, id)
}

func requestID(ctx context.Context) string {
	return trace.RequestID(ctx)
}

func handleHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, `{"status":"ok"}`)
}

// handleReady reports limiter saturation: 200 while capacity remains, 503
// when every slot is taken (load balancers should stop routing here).
func (s *service) handleReady(w http.ResponseWriter, r *http.Request) {
	jdepth, jcap := s.jobs.QueueDepth()
	body := readyBody{
		Status:       "ready",
		InFlight:     s.inFlight.Load(),
		Capacity:     s.cfg.MaxConcurrent,
		Workers:      len(s.coord.Workers()),
		JobsQueued:   jdepth,
		JobsQueueCap: jcap,
		JobsRunning:  s.jobs.Stats().Running,

		RequestsTotal:       metricRequests.Value(),
		SimulationsTotal:    metricSimulations.Value(),
		PathsSimulatedTotal: metricPathsSimulated.Value(),
		Shed429Total:        metricShed429.Value(),
		WorkerRunsTotal:     metricWorkerRuns.Value(),
		LeaseReassignments:  s.distStats.LeasesReassigned.Load(),
		LeasesStolen:        s.distStats.LeasesStolen.Load(),
		LeasesResplit:       s.distStats.LeasesResplit.Load(),
		PartialReturns:      s.distStats.PartialReturns.Load(),
		WorkersJoined:       s.distStats.WorkersJoined.Load(),
		WorkersLeft:         s.distStats.WorkersLeft.Load(),
	}
	code := http.StatusOK
	if s.sem != nil && len(s.sem) >= cap(s.sem) {
		body.Status = "saturated"
		code = http.StatusServiceUnavailable
	}
	if jdepth >= jcap {
		body.Status = "saturated"
		code = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", retryAfterSeconds(s.jobs.RetryAfter()))
	}
	if s.drainCtx.Err() != nil {
		body.Status = "draining"
		body.Draining = true
		code = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(body)
}

func writeErr(w http.ResponseWriter, code int, err error, reqID string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(errorBody{Error: err.Error(), RequestID: reqID})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

func (s *service) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("use POST"), requestID(r.Context()))
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad request: %w", err), requestID(r.Context()))
		return false
	}
	return true
}

func parseCircuit(qasmSrc string) (*hsfsim.Circuit, error) {
	if strings.TrimSpace(qasmSrc) == "" {
		return nil, fmt.Errorf("empty qasm")
	}
	return qasm.Parse(strings.NewReader(qasmSrc))
}

// cutPosOf resolves the partition cut for an HSF request. The default is
// n/2-1; explicit positions must leave at least one qubit on each side. An
// error here is a client error (422): the circuit cannot be bipartitioned as
// requested.
func cutPosOf(req *int, numQubits int) (int, error) {
	if numQubits < 2 {
		return 0, fmt.Errorf("HSF methods need at least 2 qubits to bipartition (circuit has %d); use method \"schrodinger\"", numQubits)
	}
	if req == nil {
		return numQubits/2 - 1, nil
	}
	if *req < 0 || *req > numQubits-2 {
		return 0, fmt.Errorf("cut_pos %d out of range [0, %d] for %d qubits", *req, numQubits-2, numQubits)
	}
	return *req, nil
}

// checkBlockQubits rejects (422) a max_block_qubits above MaxBlockQubits.
func checkBlockQubits(n int) error {
	if n > MaxBlockQubits {
		return fmt.Errorf("max_block_qubits %d exceeds the limit of %d", n, MaxBlockQubits)
	}
	return nil
}

func (s *service) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	reqID := requestID(r.Context())
	var req AnalyzeRequest
	if !s.decode(w, r, &req) {
		return
	}
	c, err := parseCircuit(req.QASM)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err, reqID)
		return
	}
	strategy, err := hsfsim.ParseBlockStrategy(req.Strategy)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err, reqID)
		return
	}
	cutPos, err := cutPosOf(req.CutPos, c.NumQubits)
	if err == nil {
		err = checkBlockQubits(req.MaxBlockQubits)
	}
	if err != nil {
		writeErr(w, http.StatusUnprocessableEntity, err, reqID)
		return
	}
	sum, err := hsfsim.Analyze(c, cutPos, strategy, req.MaxBlockQubits)
	if err != nil {
		writeErr(w, http.StatusUnprocessableEntity, err, reqID)
		return
	}
	writeJSON(w, sum)
}

// simulateOptions resolves a SimulateRequest into concrete run options; it
// is shared by /simulate and job submission, local or distributed, so all
// of them admit identically. The returned status classifies a failure: 400
// for a malformed request (including a Schrödinger run asked to distribute),
// 422 when the circuit cannot be run as asked (e.g. an impossible cut).
func (s *service) simulateOptions(req *SimulateRequest, numQubits int) (hsfsim.Options, int, error) {
	opts := hsfsim.Options{
		MaxAmplitudes:  req.MaxAmplitudes,
		MaxBlockQubits: req.MaxBlockQubits,
		Workers:        s.cfg.Workers,
		MemoryBudget:   s.cfg.MemoryBudget,
		MaxPaths:       s.cfg.MaxPaths,
	}
	var err error
	if opts.Method, err = hsfsim.ParseMethod(req.Method); err != nil {
		return hsfsim.Options{}, http.StatusBadRequest, err
	}
	if req.Distribute && opts.Method == hsfsim.Schrodinger {
		return hsfsim.Options{}, http.StatusBadRequest,
			fmt.Errorf("method %q cannot be distributed; use \"standard\" or \"joint\"", req.Method)
	}
	if opts.BlockStrategy, err = hsfsim.ParseBlockStrategy(req.Strategy); err != nil {
		return hsfsim.Options{}, http.StatusBadRequest, err
	}
	if opts.Method != hsfsim.Schrodinger {
		if opts.CutPos, err = cutPosOf(req.CutPos, numQubits); err != nil {
			return hsfsim.Options{}, http.StatusUnprocessableEntity, err
		}
	}
	if err := checkBlockQubits(req.MaxBlockQubits); err != nil {
		return hsfsim.Options{}, http.StatusUnprocessableEntity, err
	}
	return opts, 0, nil
}

func (s *service) handleSimulate(w http.ResponseWriter, r *http.Request) {
	reqID := requestID(r.Context())
	var req SimulateRequest
	if !s.decode(w, r, &req) {
		return
	}
	c, err := parseCircuit(req.QASM)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err, reqID)
		return
	}
	opts, status, err := s.simulateOptions(&req, c.NumQubits)
	if err != nil {
		writeErr(w, status, err, reqID)
		return
	}

	// The request deadline rides on the request context: client disconnects
	// and timeout_ms both cancel the simulation cooperatively.
	ctx := r.Context()
	if req.TimeoutMillis > 0 {
		d := time.Duration(req.TimeoutMillis) * time.Millisecond
		if s.cfg.MaxTimeout > 0 && d > s.cfg.MaxTimeout {
			d = s.cfg.MaxTimeout
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeoutCause(ctx, d, hsfsim.ErrTimeout)
		defer cancel()
	}
	// A distributed run fans out over the registered worker fleet: its wall
	// clock lands in sim_ms, preprocessing happens on every participant, and
	// the workers count its paths. A local run records into a request-scoped
	// recorder whose sampled latency histograms merge into the service-level
	// /metrics histograms whether the run succeeds or not.
	var (
		res   *hsfsim.Result
		fleet *dist.Result
	)
	start := time.Now()
	switch {
	case !req.Distribute:
		rec := telemetry.New()
		opts.Telemetry = rec
		defer s.mergeRunTelemetry(rec)
		res, err = hsfsim.SimulateContext(ctx, c, opts)
	case len(s.coord.Workers()) == 0:
		err = fmt.Errorf("%w: register workers or start hsfsimd with -dist-worker addresses", dist.ErrNoWorkers)
	default:
		res, fleet, err = s.coord.Simulate(ctx, req.QASM, opts)
	}
	switch {
	case errors.Is(err, dist.ErrNoWorkers):
		writeErr(w, http.StatusServiceUnavailable, err, reqID)
		return
	case err != nil:
		s.writeSimulateErr(w, r, err, time.Since(start))
		return
	}
	metricSimulations.Add(1)
	if fleet == nil {
		metricPathsSimulated.Add(res.PathsSimulated)
	}
	writeJSON(w, simulateResponse(res, c.NumQubits, fleet))
}

// simulateResponse builds the /simulate reply, which a finished job's result
// shares, from a run's result: fleet carries the distributed-run statistics
// and is nil for an in-process run. The amplitudes are truncated to the echo
// cap.
func simulateResponse(res *hsfsim.Result, numQubits int, fleet *dist.Result) SimulateResponse {
	resp := SimulateResponse{
		Method:          res.Method.String(),
		NumQubits:       numQubits,
		NumPaths:        res.NumPaths,
		Log2Paths:       res.Log2Paths,
		NumCuts:         res.NumCuts,
		NumBlocks:       res.NumBlocks,
		PreprocessMs:    float64(res.PreprocessTime.Microseconds()) / 1000,
		SimMs:           float64(res.SimTime.Microseconds()) / 1000,
		PathsSimulated:  res.PathsSimulated,
		AmplitudesTotal: len(res.Amplitudes),
	}
	if fleet != nil {
		resp.Distributed = true
		resp.DistWorkers = fleet.Workers
		resp.DistBatches = fleet.Batches
		resp.Reassignments = fleet.Reassignments
	}
	n := len(res.Amplitudes)
	if n > MaxReturnedAmplitudes {
		n = MaxReturnedAmplitudes
		resp.Truncated = true
	}
	resp.Amplitudes = make([]Amplitude, n)
	for i, a := range res.Amplitudes[:n] {
		resp.Amplitudes[i] = Amplitude{Re: real(a), Im: imag(a)}
	}
	return resp
}

// handleDistRun is the worker endpoint: execute one leased prefix batch and
// stream the partial accumulator back in the checkpoint wire format. It runs
// under the same limiter and panic middleware as /simulate, so a worker sheds
// leases with 429 when saturated — the coordinator treats that as transient
// and reassigns.
func (s *service) handleDistRun(w http.ResponseWriter, r *http.Request) {
	reqID := requestID(r.Context())
	if s.drainCtx.Err() != nil {
		writeErr(w, http.StatusServiceUnavailable, fmt.Errorf("worker draining"), reqID)
		return
	}
	var req dist.RunRequest
	if !s.decode(w, r, &req) {
		return
	}
	ctx := r.Context()
	if s.cfg.MaxTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.MaxTimeout)
		defer cancel()
	}
	// Drain cancels the lease mid-run; with AllowPartial set the finished
	// prefixes still go back to the coordinator as a valid partial.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	stopDrainWatch := context.AfterFunc(s.drainCtx, cancel)
	defer stopDrainWatch()
	rec := telemetry.New()
	defer s.mergeRunTelemetry(rec)
	// The execution window, stamped on this worker's own clock, rides the
	// reply headers back so the coordinator can estimate our clock offset
	// and place this lease's execution on its merged fleet timeline.
	execStart := time.Now()
	ck, err := dist.ExecuteRun(ctx, &req, dist.ExecOptions{
		Workers:      s.cfg.Workers,
		MemoryBudget: s.cfg.MemoryBudget,
		MaxPaths:     s.cfg.MaxPaths,
		Telemetry:    rec,
		Plans:        s.jobs.PlanCache(),
	})
	execEnd := time.Now()
	w.Header().Set(dist.WorkerStartHeader, strconv.FormatInt(execStart.UnixNano(), 10))
	w.Header().Set(dist.WorkerEndHeader, strconv.FormatInt(execEnd.UnixNano(), 10))
	if err != nil {
		s.writeDistRunErr(w, r, err)
		return
	}
	s.cfg.Logger.Printf("%s /dist/run: %d prefixes, %d paths in %v",
		reqID, len(req.Prefixes), ck.PathsSimulated, execEnd.Sub(execStart).Round(time.Millisecond))
	metricWorkerRuns.Add(1)
	metricPathsSimulated.Add(ck.PathsSimulated)
	w.Header().Set("Content-Type", "application/octet-stream")
	if werr := hsf.WriteCheckpoint(w, ck); werr != nil {
		// The coordinator is gone mid-stream; it will reassign the lease.
		s.cfg.Logger.Printf("%s /dist/run: writing partial: %v", reqID, werr)
	}
}

// writeDistRunErr maps worker failures onto the statuses the HTTP transport
// classifies: 4xx (except 408/429) means permanent — every worker would
// repeat it — while 408/429/5xx trigger reassignment.
func (s *service) writeDistRunErr(w http.ResponseWriter, r *http.Request, err error) {
	reqID := requestID(r.Context())
	switch {
	case errors.Is(err, dist.ErrPlanMismatch):
		writeErr(w, http.StatusConflict, err, reqID)
	case errors.Is(err, hsfsim.ErrBudget):
		writeErr(w, http.StatusUnprocessableEntity, err, reqID)
	case dist.IsPermanent(err):
		writeErr(w, http.StatusBadRequest, err, reqID)
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, hsfsim.ErrTimeout):
		writeErr(w, http.StatusRequestTimeout, err, reqID)
	case errors.Is(err, context.Canceled):
		s.cfg.Logger.Printf("%s /dist/run: lease abandoned by coordinator", reqID)
		writeErr(w, StatusClientClosedRequest, err, reqID)
	default:
		writeErr(w, http.StatusInternalServerError, err, reqID)
	}
}

// handleDistRegister records a worker heartbeat in the fleet registry.
func (s *service) handleDistRegister(w http.ResponseWriter, r *http.Request) {
	var req dist.RegisterRequest
	if !s.decode(w, r, &req) {
		return
	}
	if strings.TrimSpace(req.Addr) == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("register: empty worker addr"), requestID(r.Context()))
		return
	}
	n := s.coord.Register(req.Addr)
	writeJSON(w, dist.RegisterResponse{
		Workers:         n,
		TTLMillis:       int(s.coord.TTL() / time.Millisecond),
		HeartbeatMillis: int(s.coord.HeartbeatInterval() / time.Millisecond),
	})
}

// handleDistDeregister removes a draining worker from the fleet so running
// sessions stop granting it leases and re-split what it still holds.
func (s *service) handleDistDeregister(w http.ResponseWriter, r *http.Request) {
	var req dist.DeregisterRequest
	if !s.decode(w, r, &req) {
		return
	}
	if strings.TrimSpace(req.Addr) == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("deregister: empty worker addr"), requestID(r.Context()))
		return
	}
	s.coord.Deregister(req.Addr)
	writeJSON(w, dist.WorkerList{Workers: s.coord.Workers()})
}

// handleDistWorkers lists the live fleet.
func (s *service) handleDistWorkers(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, dist.WorkerList{Workers: s.coord.Workers()})
}

// writeSimulateErr classifies simulation failures into the documented status
// codes: 408 timeout/deadline, 422 budget or planning, 499 client gone, 500
// worker panic.
func (s *service) writeSimulateErr(w http.ResponseWriter, r *http.Request, err error, elapsed time.Duration) {
	reqID := requestID(r.Context())
	var pe *hsfsim.PanicError
	switch {
	case errors.As(err, &pe):
		s.cfg.Logger.Printf("%s %s: worker panic after %v: %v", reqID, r.URL.Path, elapsed, pe.Value)
		writeErr(w, http.StatusInternalServerError,
			fmt.Errorf("internal error: simulation worker panicked (request %s)", reqID), reqID)
	case errors.Is(err, hsfsim.ErrTimeout), errors.Is(err, context.DeadlineExceeded):
		writeErr(w, http.StatusRequestTimeout, err, reqID)
	case errors.Is(err, context.Canceled):
		// The client went away; nobody reads this response, but log it.
		s.cfg.Logger.Printf("%s %s: client closed request after %v", reqID, r.URL.Path, elapsed)
		writeErr(w, StatusClientClosedRequest, err, reqID)
	case errors.Is(err, hsfsim.ErrBudget):
		writeErr(w, http.StatusUnprocessableEntity, err, reqID)
	default:
		writeErr(w, http.StatusUnprocessableEntity, err, reqID)
	}
}
