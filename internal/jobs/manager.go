package jobs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hsfsim"
	"hsfsim/internal/hsf"
	"hsfsim/internal/qasm"
	"hsfsim/internal/telemetry"
	"hsfsim/internal/telemetry/trace"
)

// Config tunes a Manager; the zero value selects sane defaults.
type Config struct {
	// Runners bounds concurrent batch executions. 0 selects 2.
	Runners int
	// QueueCap bounds the total number of queued jobs; submissions beyond
	// it are shed with *QueueFullError (HTTP 429 upstream). 0 selects 256.
	QueueCap int
	// TenantQuota caps one tenant's outstanding (queued + running) jobs;
	// 0 means unlimited. Quotas overrides it per tenant.
	TenantQuota int
	Quotas      map[string]int
	// Store, when non-nil, makes jobs durable: manifests on every state
	// transition, mid-run checkpoints at most every FlushInterval, results
	// on completion. A restarted Manager over the same store re-offers
	// queued/running jobs and resumes their walks from the checkpoints.
	Store Store
	// FlushInterval rate-limits mid-run checkpoint flushes (hsf.Flusher).
	// 0 selects 2s.
	FlushInterval time.Duration
	// Logf receives job lifecycle log lines (always tagged with job= and,
	// when present, req=). Nil disables logging.
	Logf func(format string, args ...any)
	// OnResult, when non-nil, observes every successfully finished job
	// (after its state is visible as done).
	OnResult func(snap Snapshot, res *hsfsim.Result)
	// OnRunTelemetry, when non-nil, receives each in-process batch's
	// request-scoped telemetry recorder once its walk ends (success or
	// failure). The server merges these into service-lifetime histograms.
	OnRunTelemetry func(rec *hsfsim.TelemetryRecorder)
	// RunDistributed, when non-nil, executes jobs submitted with
	// Request.Distribute through the dist fleet instead of in-process. It
	// receives the batch's execution options — checkpoint writer, resume
	// source, OnCheckpoint, progress, telemetry, timeout — and must honour
	// them as SimulateCompiledContext does (dist.Coordinator.Simulate does).
	// Distributed jobs skip batching and this manager's admission compile —
	// the dist coordinator compiles the plan once per run and each worker
	// once per process — but share queueing, quotas, and the checkpoint and
	// resume path of local jobs: with a Store they flush their merged state,
	// and a re-offered one resumes from it on the fleet, never in-process.
	// When nil, distributed submissions are rejected, and a stored
	// distributed job fails when it is re-offered.
	RunDistributed func(ctx context.Context, qasmSrc string, opts hsfsim.Options) (*hsfsim.Result, error)
	// Trace, when non-nil, records job lifecycle spans (queued wait, batch
	// execution) into the flight recorder, and batch walks run under a
	// trace context so engine spans join the job's trace.
	Trace *trace.Recorder
}

// maxTenantLabels caps the distinct tenants tracked for per-tenant metrics;
// tenants beyond the cap aggregate into the "_other" bucket so a tenant-ID
// churn cannot blow up metric cardinality.
const maxTenantLabels = 64

// otherTenant is the overflow bucket label.
const otherTenant = "_other"

// tenantCounters is one tenant's lifetime counters, guarded by Manager.mu.
type tenantCounters struct {
	submitted int64
	completed int64
	failed    int64
	cancelled int64
}

type batchKey = uint64

// planCacheSize bounds the compiled-plan LRU.
const planCacheSize = 128

// job is the manager-internal record; all mutable fields are guarded by
// Manager.mu except progress (an atomic tracker shared with the walk).
type job struct {
	id         string
	tenant     string
	priority   int
	requestID  string
	qasm       string
	circuit    *hsfsim.Circuit
	opts       hsfsim.Options
	fp         uint64
	distribute bool

	// queued is the job's open queue-wait span (created → popped); sc is
	// the job's trace context, under which its batch execution records.
	queued trace.Span
	sc     trace.SpanContext

	state      State
	created    time.Time
	started    time.Time
	finished   time.Time
	err        error
	resumed    bool
	planShared bool
	batchSize  int
	batch      *batch
	cancelled  bool
	amps       []complex128
	resMeta    *ResultMeta
	progress   *telemetry.Tracker
	watchers   []chan struct{}

	// Manifests are snapshotted under m.mu but written after it is released,
	// so two writers (Submit's "queued", a runner's "running") can reach the
	// store out of order. manSeq numbers the snapshots; persist holds
	// persistMu across the write and drops any snapshot older than the one
	// already on disk.
	manSeq       uint64
	persistMu    sync.Mutex
	persistedSeq uint64
}

func (j *job) batchKeyOf() batchKey { return j.fp }

// numQubits reads the circuit width, falling back to the stored result
// metadata for terminal jobs reloaded without a parsed circuit.
func (j *job) numQubits() int {
	if j.circuit != nil {
		return j.circuit.NumQubits
	}
	if j.resMeta != nil {
		return j.resMeta.NumQubits
	}
	return 0
}

// batch is one scheduled walk serving one or more same-fingerprint jobs.
type batch struct {
	key    batchKey
	jobs   []*job
	cancel context.CancelFunc
	live   int // members not yet cancelled
	// plan is the leader's compiled plan once an in-process walk has fetched
	// it; only the batch's runner touches it.
	plan *hsfsim.CompiledPlan
}

// Manager owns the queues, the runner pool, the plan cache, and the store.
type Manager struct {
	cfg   Config
	store Store
	cache *hsfsim.PlanCache

	mu          sync.Mutex
	cond        *sync.Cond
	q           *tenantQueue
	jobs        map[string]*job
	outstanding map[string]int // per-tenant queued+running
	running     map[*batch]struct{}
	tenants     map[string]*tenantCounters // capped at maxTenantLabels
	closed      bool

	wg sync.WaitGroup

	submitted  atomic.Int64
	completed  atomic.Int64
	failedN    atomic.Int64
	cancelledN atomic.Int64
	resumedN   atomic.Int64
	batchesN   atomic.Int64
	batchedN   atomic.Int64 // jobs that shared a walk with at least one other
	runningN   atomic.Int64
	ewmaRunNS  atomic.Int64

	waitHist telemetry.Histogram // queue wait per job
	runHist  telemetry.Histogram // wall time per batch
}

// New starts a Manager: loads the store (re-offering unfinished jobs) and
// launches the runner pool.
func New(cfg Config) (*Manager, error) {
	if cfg.Runners <= 0 {
		cfg.Runners = 2
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 256
	}
	if cfg.FlushInterval <= 0 {
		cfg.FlushInterval = 2 * time.Second
	}
	m := &Manager{
		cfg:         cfg,
		store:       cfg.Store,
		cache:       hsfsim.NewPlanCache(planCacheSize),
		q:           newTenantQueue(),
		jobs:        map[string]*job{},
		outstanding: map[string]int{},
		running:     map[*batch]struct{}{},
		tenants:     map[string]*tenantCounters{},
	}
	m.cond = sync.NewCond(&m.mu)
	if m.store != nil {
		if err := m.loadStore(); err != nil {
			return nil, err
		}
	}
	for i := 0; i < cfg.Runners; i++ {
		m.wg.Add(1)
		go m.runner()
	}
	return m, nil
}

func (m *Manager) logf(format string, args ...any) {
	if m.cfg.Logf != nil {
		m.cfg.Logf(format, args...)
	}
}

// loadStore rebuilds the in-memory job table from manifests. Queued and
// running jobs are re-offered: back into the queue, FIFO by creation time.
// A previously running job's batch seeds from the store's mid-run checkpoint
// if one survived, and only then is it marked resumed (see execute).
func (m *Manager) loadStore() error {
	mans, err := m.store.Jobs()
	if err != nil {
		return fmt.Errorf("jobs: load store: %w", err)
	}
	sort.Slice(mans, func(i, k int) bool { return mans[i].Created.Before(mans[k].Created) })
	for _, man := range mans {
		j := &job{
			id:         man.ID,
			tenant:     man.Tenant,
			priority:   man.Priority,
			requestID:  man.RequestID,
			qasm:       man.QASM,
			opts:       man.Opts.Options(),
			fp:         man.Fingerprint,
			distribute: man.Distribute,
			state:      man.State,
			created:    man.Created,
			started:    man.Started,
			finished:   man.Finished,
			resumed:    man.Resumed,
			batchSize:  man.BatchSize,
			resMeta:    man.ResultMeta,
		}
		if man.Error != "" {
			j.err = errors.New(man.Error)
		}
		if !man.State.Terminal() {
			c, err := qasm.Parse(strings.NewReader(man.QASM))
			if err != nil {
				j.state = StateFailed
				j.err = fmt.Errorf("jobs: stored circuit unparseable: %w", err)
				j.finished = time.Now()
				m.jobs[j.id] = j
				m.persist(j, m.manifestOf(j))
				continue
			}
			j.circuit = c
			j.resumed = false // set again only if a checkpoint seeds the walk
			j.batchSize = 0
			j.state = StateQueued
			j.started = time.Time{}
			m.q.push(j)
			m.outstanding[j.tenant]++
			m.logf("jobs: re-offered job=%s tenant=%s state=%s", j.id, j.tenant, man.State)
		}
		m.jobs[j.id] = j
	}
	return nil
}

// sanitizeOpts strips caller-owned callbacks: the manager owns
// checkpointing, telemetry, and progress for queued jobs.
func sanitizeOpts(o hsfsim.Options) hsfsim.Options {
	o.CheckpointWriter = nil
	o.ResumeFrom = nil
	o.OnCheckpoint = nil
	o.Telemetry = nil
	o.Progress = nil
	return o
}

// Submit validates, admits, and enqueues one job, returning its initial
// snapshot. Errors: *QueueFullError / *QuotaError (shed, retryable),
// *hsfsim.BudgetError (over cost budget, permanent), parse and validation
// errors (permanent), ErrClosed.
func (m *Manager) Submit(req Request) (Snapshot, error) {
	c := req.Circuit
	if c == nil {
		if req.QASM == "" {
			return Snapshot{}, errors.New("jobs: submission needs a circuit or QASM source")
		}
		parsed, err := qasm.Parse(strings.NewReader(req.QASM))
		if err != nil {
			return Snapshot{}, err
		}
		c = parsed
	}
	qasmSrc := req.QASM
	if qasmSrc == "" {
		var buf bytes.Buffer
		if err := qasm.Write(&buf, c); err != nil {
			return Snapshot{}, fmt.Errorf("jobs: circuit not serializable: %w", err)
		}
		qasmSrc = buf.String()
	}
	opts := sanitizeOpts(req.Opts)
	fp, err := hsfsim.Fingerprint(c, opts)
	if err != nil {
		return Snapshot{}, err
	}
	tenant := req.Tenant
	if tenant == "" {
		tenant = "default"
	}

	// Fast-fail admission (queue capacity, tenant quota) before paying for
	// any compile. Rechecked at enqueue: the compile below runs unlocked.
	m.mu.Lock()
	if err := m.admitLocked(tenant); err != nil {
		m.mu.Unlock()
		return Snapshot{}, err
	}
	m.mu.Unlock()

	distribute := req.Distribute
	if distribute && m.cfg.RunDistributed == nil {
		return Snapshot{}, errNoFleet
	}
	if !distribute {
		// Cost admission through the plan cache: the first submission of a
		// fingerprint compiles (and caches) the plan; repeats and
		// concurrent duplicates estimate against the cached plan for free.
		cp, _, err := m.cache.Get(c, opts)
		if err != nil {
			return Snapshot{}, err
		}
		if err := cp.Admit(opts); err != nil {
			return Snapshot{}, err
		}
	}

	j := &job{
		id:         newID(),
		tenant:     tenant,
		priority:   req.Priority,
		requestID:  req.RequestID,
		qasm:       qasmSrc,
		circuit:    c,
		opts:       opts,
		fp:         fp,
		distribute: distribute,
		state:      StateQueued,
		created:    time.Now(),
	}
	// The queue-wait span opens now and ends when a runner pops the job;
	// a provided parent (the submitting HTTP request's span) stitches the
	// job's whole lifecycle into that request's trace.
	j.queued = m.cfg.Trace.Start(req.TraceParent, "job-queued")
	j.queued.SetStr("job", j.id)
	j.queued.SetStr("tenant", tenant)
	if j.requestID != "" {
		j.queued.SetStr("req", j.requestID)
	}
	j.sc = j.queued.Context()

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return Snapshot{}, ErrClosed
	}
	if err := m.admitLocked(tenant); err != nil {
		m.mu.Unlock()
		return Snapshot{}, err
	}
	m.q.push(j)
	m.outstanding[tenant]++
	m.tenantCountersLocked(tenant).submitted++
	m.jobs[j.id] = j
	snap := m.snapshotLocked(j)
	man := m.manifestOf(j)
	m.mu.Unlock()

	m.submitted.Add(1)
	m.persist(j, man)
	m.logf("jobs: queued job=%s req=%s tenant=%s prio=%d fp=%016x", j.id, j.requestID, tenant, j.priority, fp)
	m.cond.Signal()
	return snap, nil
}

// tenantCountersLocked returns the tenant's counter block, folding tenants
// beyond the cardinality cap into the shared overflow bucket.
func (m *Manager) tenantCountersLocked(tenant string) *tenantCounters {
	if tc := m.tenants[tenant]; tc != nil {
		return tc
	}
	if len(m.tenants) >= maxTenantLabels {
		tc := m.tenants[otherTenant]
		if tc == nil {
			tc = &tenantCounters{}
			m.tenants[otherTenant] = tc
		}
		return tc
	}
	tc := &tenantCounters{}
	m.tenants[tenant] = tc
	return tc
}

// tenantLabelLocked maps a tenant onto its metrics label: its own name
// while under the cardinality cap, the overflow bucket beyond it.
func (m *Manager) tenantLabelLocked(tenant string) string {
	if _, ok := m.tenants[tenant]; ok {
		return tenant
	}
	return otherTenant
}

// admitLocked enforces queue capacity and tenant quota.
func (m *Manager) admitLocked(tenant string) error {
	if depth := m.q.len(); depth >= m.cfg.QueueCap {
		return &QueueFullError{Depth: depth, Capacity: m.cfg.QueueCap, RetryAfter: m.retryAfterLocked()}
	}
	quota := m.cfg.TenantQuota
	if q, ok := m.cfg.Quotas[tenant]; ok {
		quota = q
	}
	if quota > 0 && m.outstanding[tenant] >= quota {
		return &QuotaError{Tenant: tenant, Outstanding: m.outstanding[tenant], Quota: quota, RetryAfter: m.retryAfterLocked()}
	}
	return nil
}

// retryAfterLocked estimates when queued work will have drained: queue
// depth over the runner pool, paced by the EWMA batch duration.
func (m *Manager) retryAfterLocked() time.Duration {
	ewma := time.Duration(m.ewmaRunNS.Load())
	if ewma <= 0 {
		ewma = time.Second
	}
	waves := m.q.len()/m.cfg.Runners + 1
	d := ewma * time.Duration(waves)
	if d < time.Second {
		d = time.Second
	}
	if d > 5*time.Minute {
		d = 5 * time.Minute
	}
	return d
}

// RetryAfter is the public form of the drain estimate, for HTTP 429s that
// account for queued work and not just in-flight requests.
func (m *Manager) RetryAfter() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.retryAfterLocked()
}

// QueueDepth reports the queued-job count against capacity.
func (m *Manager) QueueDepth() (depth, capacity int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.q.len(), m.cfg.QueueCap
}

// runner is one scheduler worker: pop the highest-priority job, sweep its
// queued batch mates, execute the walk, repeat.
func (m *Manager) runner() {
	defer m.wg.Done()
	for {
		m.mu.Lock()
		for m.q.len() == 0 && !m.closed {
			m.cond.Wait()
		}
		if m.closed {
			m.mu.Unlock()
			return
		}
		leader := m.q.pop()
		var mates []*job
		if !leader.distribute {
			mates = m.q.takeBatch(leader.batchKeyOf())
		}
		members := append([]*job{leader}, mates...)
		ctx, cancel := context.WithCancel(context.Background())
		b := &batch{key: leader.batchKeyOf(), jobs: members, cancel: cancel, live: len(members)}
		now := time.Now()
		tracker := &telemetry.Tracker{}
		for _, j := range members {
			j.state = StateRunning
			j.started = now
			j.batch = b
			j.batchSize = len(members)
			j.progress = tracker
		}
		m.running[b] = struct{}{}
		mans := make([]*Manifest, len(members))
		for i, j := range members {
			mans[i] = m.manifestOf(j)
		}
		m.mu.Unlock()

		m.runningN.Add(int64(len(members)))
		m.batchesN.Add(1)
		if len(members) > 1 {
			m.batchedN.Add(int64(len(members)))
		}
		for i, j := range members {
			m.waitHist.Observe(now.Sub(j.created))
			j.queued.End() // queue wait is over; the batch span takes it from here
			m.persist(j, mans[i])
			m.notify(j)
			m.logf("jobs: running job=%s req=%s tenant=%s batch=%d distribute=%t", j.id, j.requestID, j.tenant, len(members), j.distribute)
		}

		// The batch span parents the leader's trace; the walk runs under its
		// context, so engine compile/walk/prefix spans join the job's trace.
		bsp := m.cfg.Trace.Start(leader.sc, "job-batch")
		bsp.SetStr("job", leader.id)
		bsp.SetInt("jobs", int64(len(members)))
		if m.cfg.Trace != nil {
			ctx = trace.NewContext(ctx, m.cfg.Trace, bsp.Context())
		}
		start := time.Now()
		m.execute(ctx, b, tracker)
		bsp.End()
		cancel()
		dur := time.Since(start)
		m.runHist.Observe(dur)
		// EWMA with alpha 0.2, the Retry-After pacing signal.
		old := m.ewmaRunNS.Load()
		if old == 0 {
			m.ewmaRunNS.Store(int64(dur))
		} else {
			m.ewmaRunNS.Store(old + (int64(dur)-old)/5)
		}

		m.mu.Lock()
		delete(m.running, b)
		m.mu.Unlock()
	}
}

// resolveM maps a MaxAmplitudes request to the concrete accumulator length
// for an n-qubit register (0 or over-range means the full statevector).
func resolveM(n, maxAmps int) int {
	full := 1 << uint(n)
	if maxAmps <= 0 || maxAmps > full {
		return full
	}
	return maxAmps
}

// ckptKey names the store slot for a batch's mid-run checkpoint. Keyed by
// fingerprint alone: concurrent batches of the same circuit overwrite each
// other's flushes (last writer wins), which only costs resume granularity —
// any surviving checkpoint is a valid partial state of the shared plan.
func ckptKey(key batchKey) string { return fmt.Sprintf("%016x", uint64(key)) }

// execute runs one batch to completion and distributes the outcome. Local
// and distributed batches take one checkpoint path: with a store, the walk
// flushes its merged state through an hsf.Flusher, seeds from a surviving
// checkpoint of the batch's fingerprint, and a walk that stops early leaves
// its final state durable for the next start.
func (m *Manager) execute(ctx context.Context, b *batch, tracker *telemetry.Tracker) {
	leader := b.jobs[0]
	numQubits := leader.numQubits()

	// The batch accumulator must cover every member's amplitude request;
	// members read prefixes of it, so the max wins.
	need := 0
	runOpts := leader.opts
	runOpts.Timeout = 0
	for _, j := range b.jobs {
		if n := resolveM(numQubits, j.opts.MaxAmplitudes); n > need {
			need = n
		}
		// One member's timeout must not kill its batch mates: the batch
		// inherits the loosest bound (0 = none dominates).
		if j.opts.Timeout > runOpts.Timeout {
			runOpts.Timeout = j.opts.Timeout
		}
		if j.opts.Timeout == 0 {
			runOpts.Timeout = 0
		}
	}
	runOpts.MaxAmplitudes = need
	rec := hsfsim.NewTelemetryRecorder()
	runOpts.Telemetry = rec
	runOpts.Progress = tracker
	if m.cfg.OnRunTelemetry != nil {
		defer m.cfg.OnRunTelemetry(rec)
	}

	key := ckptKey(b.key)
	var finalCkpt bytes.Buffer
	var flusher *hsf.Flusher
	if m.store != nil && leader.opts.Method != hsfsim.Schrodinger {
		flusher = hsf.NewFlusher(m.cfg.FlushInterval, func(ck *hsf.Checkpoint) {
			if err := m.store.PutCheckpoint(key, ck); err != nil {
				m.logf("jobs: checkpoint flush failed key=%s: %v", key, err)
			}
		})
		runOpts.CheckpointWriter = &finalCkpt
		runOpts.OnCheckpoint = flusher.Hook
		if ck, _ := m.store.GetCheckpoint(key); ck != nil && ck.M >= need {
			// Resume the walk from the flushed partial state. Running with
			// the checkpoint's (possibly larger) M keeps it valid; members
			// still read their own prefixes.
			runOpts.MaxAmplitudes = ck.M
			var buf bytes.Buffer
			if err := hsf.WriteCheckpoint(&buf, ck); err == nil {
				runOpts.ResumeFrom = &buf
			}
		}
	}

	res, err := m.simulate(ctx, b, runOpts)
	if err != nil && errors.Is(err, hsfsim.ErrCheckpointMismatch) && runOpts.ResumeFrom != nil {
		// The stored checkpoint belonged to a different plan generation
		// (a build with another PlanHash, a fingerprint collision or a stale
		// file): drop it and run clean.
		_ = m.store.DeleteCheckpoint(key)
		runOpts.ResumeFrom = nil
		runOpts.MaxAmplitudes = need
		finalCkpt.Reset()
		res, err = m.simulate(ctx, b, runOpts)
	}
	// The last write of this walk is below; no older snapshot may land after.
	flusher.Stop()
	if err != nil {
		// A prematurely stopped walk hands its final state to the
		// CheckpointWriter; make it durable so a restart resumes from here.
		if finalCkpt.Len() > 0 {
			if ck, rerr := hsf.ReadCheckpoint(bytes.NewReader(finalCkpt.Bytes())); rerr == nil {
				_ = m.store.PutCheckpoint(key, ck)
			}
		}
		m.finishErr(b, err)
		return
	}
	if runOpts.ResumeFrom != nil {
		// The checkpoint seeded the walk that just finished.
		m.mu.Lock()
		for _, j := range b.jobs {
			j.resumed = true
		}
		m.mu.Unlock()
		m.resumedN.Add(int64(len(b.jobs)))
	}
	if m.store != nil {
		_ = m.store.DeleteCheckpoint(key)
	}
	m.finishOK(b, res, res.Amplitudes, numQubits)
}

// simulate runs one walk of batch b under opts: on the fleet for a
// distributed job — never in-process, even when no fleet is configured —
// and otherwise in-process on the leader's plan from the cache.
func (m *Manager) simulate(ctx context.Context, b *batch, opts hsfsim.Options) (*hsfsim.Result, error) {
	leader := b.jobs[0]
	if leader.distribute {
		if m.cfg.RunDistributed == nil {
			return nil, errNoFleet
		}
		return m.cfg.RunDistributed(ctx, leader.qasm, opts)
	}
	if b.plan == nil {
		cp, shared, err := m.cache.Get(leader.circuit, leader.opts)
		if err != nil {
			return nil, err
		}
		b.plan = cp
		m.mu.Lock()
		for _, j := range b.jobs {
			j.planShared = shared || len(b.jobs) > 1
		}
		m.mu.Unlock()
	}
	return hsfsim.SimulateCompiledContext(ctx, b.plan, opts)
}

// errNoFleet rejects distributed work on a manager without a fleet.
var errNoFleet = fmt.Errorf("jobs: distributed execution unavailable: %w", hsfsim.ErrUnsupported)

// finishOK distributes a successful result to every live member: each gets
// its own prefix of the batch accumulator, copied so results are
// independent of each other and of the engine's buffers.
func (m *Manager) finishOK(b *batch, res *hsfsim.Result, amps []complex128, numQubits int) {
	meta := &ResultMeta{
		NumQubits:       numQubits,
		NumPaths:        res.NumPaths,
		Log2Paths:       res.Log2Paths,
		PathsSimulated:  res.PathsSimulated,
		NumCuts:         res.NumCuts,
		NumBlocks:       res.NumBlocks,
		NumSeparateCuts: res.NumSeparateCuts,
		PreprocessNS:    int64(res.PreprocessTime),
		SimNS:           int64(res.SimTime),
	}
	now := time.Now()
	var finished []*job
	var mans []*Manifest
	var snaps []Snapshot
	m.mu.Lock()
	n := 0
	for _, j := range b.jobs {
		if j.cancelled {
			continue
		}
		mj := resolveM(numQubits, j.opts.MaxAmplitudes)
		if mj > len(amps) {
			mj = len(amps)
		}
		j.amps = append([]complex128(nil), amps[:mj]...)
		j.resMeta = meta
		j.state = StateDone
		j.finished = now
		m.outstanding[j.tenant]--
		m.tenantCountersLocked(j.tenant).completed++
		finished = append(finished, j)
		mans = append(mans, m.manifestOf(j))
		snaps = append(snaps, m.snapshotLocked(j))
		n++
	}
	m.mu.Unlock()
	m.runningN.Add(-int64(n))
	m.completed.Add(int64(n))
	for i, j := range finished {
		if m.store != nil {
			_ = m.store.PutResult(j.id, &hsfsim.Checkpoint{
				PlanHash:       j.fp,
				NumQubits:      numQubits,
				M:              len(j.amps),
				PathsSimulated: res.PathsSimulated,
				Acc:            j.amps,
			})
		}
		m.persist(j, mans[i])
		m.notify(j)
		m.logf("jobs: done job=%s req=%s tenant=%s paths=%d batch=%d", j.id, j.requestID, j.tenant, res.PathsSimulated, j.batchSize)
		if m.cfg.OnResult != nil {
			r := *res
			r.Amplitudes = j.amps
			m.cfg.OnResult(snaps[i], &r)
		}
	}
}

// finishErr marks every live member failed — unless the manager is closing,
// in which case the members stay "running" in the store so the next start
// re-offers and resumes them.
func (m *Manager) finishErr(b *batch, err error) {
	m.mu.Lock()
	if m.closed && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		m.mu.Unlock()
		for _, j := range b.jobs {
			m.logf("jobs: parked for re-offer job=%s (shutdown)", j.id)
		}
		return
	}
	now := time.Now()
	var finished []*job
	var mans []*Manifest
	n := 0
	for _, j := range b.jobs {
		if j.cancelled {
			continue
		}
		j.state = StateFailed
		j.err = err
		j.finished = now
		m.outstanding[j.tenant]--
		m.tenantCountersLocked(j.tenant).failed++
		finished = append(finished, j)
		mans = append(mans, m.manifestOf(j))
		n++
	}
	m.mu.Unlock()
	m.runningN.Add(-int64(n))
	m.failedN.Add(int64(n))
	for i, j := range finished {
		m.persist(j, mans[i])
		m.notify(j)
		m.logf("jobs: failed job=%s req=%s tenant=%s: %v", j.id, j.requestID, j.tenant, err)
	}
}

// Cancel cancels a queued or running job (idempotent on terminal jobs).
// Cancelling the last live member of a running batch cancels the walk.
func (m *Manager) Cancel(id string) (Snapshot, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return Snapshot{}, ErrNotFound
	}
	var man *Manifest
	switch j.state {
	case StateQueued:
		m.q.remove(id)
		j.state = StateCancelled
		j.finished = time.Now()
		j.queued.SetStr("err", "cancelled")
		j.queued.End()
		m.outstanding[j.tenant]--
		m.cancelledN.Add(1)
		m.tenantCountersLocked(j.tenant).cancelled++
		man = m.manifestOf(j)
	case StateRunning:
		if !j.cancelled {
			j.cancelled = true
			j.state = StateCancelled
			j.finished = time.Now()
			m.outstanding[j.tenant]--
			m.runningN.Add(-1)
			m.cancelledN.Add(1)
			m.tenantCountersLocked(j.tenant).cancelled++
			b := j.batch
			b.live--
			if b.live == 0 {
				b.cancel() // last member gone: stop the walk
			}
			man = m.manifestOf(j)
		}
	}
	snap := m.snapshotLocked(j)
	m.mu.Unlock()
	if man != nil {
		m.persist(j, man)
		m.notify(j)
		m.logf("jobs: cancelled job=%s req=%s tenant=%s", j.id, j.requestID, j.tenant)
	}
	return snap, nil
}

// Get returns a job's snapshot.
func (m *Manager) Get(id string) (Snapshot, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return Snapshot{}, ErrNotFound
	}
	return m.snapshotLocked(j), nil
}

// List returns snapshots of every known job (optionally one tenant's),
// oldest first.
func (m *Manager) List(tenant string) []Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Snapshot, 0, len(m.jobs))
	for _, j := range m.jobs {
		if tenant != "" && j.tenant != tenant {
			continue
		}
		out = append(out, m.snapshotLocked(j))
	}
	sort.Slice(out, func(i, k int) bool { return out[i].Created.Before(out[k].Created) })
	return out
}

// Result returns a done job's full result (amplitudes lazily reloaded from
// the store after a restart). Failed jobs return their failure error;
// non-terminal and cancelled jobs return ErrNoResult.
func (m *Manager) Result(id string) (*hsfsim.Result, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return nil, ErrNotFound
	}
	state, jerr := j.state, j.err
	amps := j.amps
	meta := j.resMeta
	method := j.opts.Method
	m.mu.Unlock()
	switch state {
	case StateFailed:
		return nil, jerr
	case StateDone:
	default:
		return nil, ErrNoResult
	}
	if amps == nil && m.store != nil {
		ck, err := m.store.GetResult(id)
		if err != nil {
			return nil, err
		}
		if ck == nil {
			return nil, ErrNoResult
		}
		amps = ck.Acc
		m.mu.Lock()
		j.amps = amps
		m.mu.Unlock()
	}
	res := &hsfsim.Result{Amplitudes: amps, Method: method}
	if meta != nil {
		res.NumPaths = meta.NumPaths
		res.Log2Paths = meta.Log2Paths
		res.PathsSimulated = meta.PathsSimulated
		res.NumCuts = meta.NumCuts
		res.NumBlocks = meta.NumBlocks
		res.NumSeparateCuts = meta.NumSeparateCuts
		res.PreprocessTime = time.Duration(meta.PreprocessNS)
		res.SimTime = time.Duration(meta.SimNS)
	}
	return res, nil
}

// Watch registers a coalescing notification channel for a job: the channel
// receives (at least) one signal after every state transition. The returned
// stop function unregisters it.
func (m *Manager) Watch(id string) (<-chan struct{}, func(), error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, nil, ErrNotFound
	}
	ch := make(chan struct{}, 1)
	j.watchers = append(j.watchers, ch)
	stop := func() {
		m.mu.Lock()
		defer m.mu.Unlock()
		for i, w := range j.watchers {
			if w == ch {
				j.watchers = append(j.watchers[:i], j.watchers[i+1:]...)
				break
			}
		}
	}
	return ch, stop, nil
}

func (m *Manager) notify(j *job) {
	m.mu.Lock()
	watchers := append([]chan struct{}(nil), j.watchers...)
	m.mu.Unlock()
	for _, ch := range watchers {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

func (m *Manager) snapshotLocked(j *job) Snapshot {
	s := Snapshot{
		ID:          j.id,
		Tenant:      j.tenant,
		Priority:    j.priority,
		RequestID:   j.requestID,
		State:       j.state,
		Created:     j.created,
		Started:     j.started,
		Finished:    j.finished,
		Fingerprint: j.fp,
		NumQubits:   j.numQubits(),
		BatchSize:   j.batchSize,
		PlanShared:  j.planShared,
		Resumed:     j.resumed,
	}
	if j.err != nil {
		s.Error = j.err.Error()
	}
	if j.resMeta != nil && j.state == StateDone {
		s.PathsDone = j.resMeta.PathsSimulated
		s.PathsTotal = j.resMeta.PathsSimulated
	} else if j.progress != nil {
		s.PathsDone = j.progress.Done()
		s.PathsTotal = j.progress.Total()
	}
	return s
}

// manifestOf snapshots j for the store. Callers hold m.mu (or, in loadStore,
// run before any other goroutine exists), which is what orders manSeq.
func (m *Manager) manifestOf(j *job) *Manifest {
	j.manSeq++
	man := &Manifest{
		seq:         j.manSeq,
		ID:          j.id,
		Tenant:      j.tenant,
		Priority:    j.priority,
		RequestID:   j.requestID,
		QASM:        j.qasm,
		Opts:        wireOptions(j.opts),
		Fingerprint: j.fp,
		Distribute:  j.distribute,
		State:       j.state,
		Created:     j.created,
		Started:     j.started,
		Finished:    j.finished,
		Resumed:     j.resumed,
		BatchSize:   j.batchSize,
		ResultMeta:  j.resMeta,
	}
	if j.err != nil {
		man.Error = j.err.Error()
	}
	return man
}

func (m *Manager) persist(j *job, man *Manifest) {
	if m.store == nil {
		return
	}
	j.persistMu.Lock()
	defer j.persistMu.Unlock()
	if man.seq < j.persistedSeq {
		return // a newer snapshot of this job is already on disk
	}
	if err := m.store.PutJob(man); err != nil {
		m.logf("jobs: persist failed job=%s: %v", j.id, err)
		return
	}
	j.persistedSeq = man.seq
}

// StatsSnapshot is the manager's observable state for /metrics and /readyz.
type StatsSnapshot struct {
	Queued    int   `json:"queued"`
	QueueCap  int   `json:"queue_cap"`
	Running   int64 `json:"running"`
	Submitted int64 `json:"submitted"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Cancelled int64 `json:"cancelled"`
	Resumed   int64 `json:"resumed"`
	// Batches counts executed walks; BatchedJobs counts jobs that shared a
	// walk with at least one other job. PlanHits/PlanMisses expose the
	// compiled-plan cache.
	Batches        int64                       `json:"batches"`
	BatchedJobs    int64                       `json:"batched_jobs"`
	PlanHits       int64                       `json:"plan_hits"`
	PlanMisses     int64                       `json:"plan_misses"`
	PlanEvictions  int64                       `json:"plan_evictions"`
	QueueWait      telemetry.HistogramSnapshot `json:"queue_wait"`
	BatchDurations telemetry.HistogramSnapshot `json:"batch_durations"`
}

// PlanCache returns the manager's compiled-plan cache, so an embedding
// daemon can compile distributed leases through the same cache and the
// plan-cache counters in Stats cover both.
func (m *Manager) PlanCache() *hsfsim.PlanCache { return m.cache }

// Stats returns a point-in-time copy of the manager's counters.
func (m *Manager) Stats() StatsSnapshot {
	hits, misses, evictions := m.cache.Stats()
	depth, capQ := m.QueueDepth()
	return StatsSnapshot{
		Queued:         depth,
		QueueCap:       capQ,
		Running:        m.runningN.Load(),
		Submitted:      m.submitted.Load(),
		Completed:      m.completed.Load(),
		Failed:         m.failedN.Load(),
		Cancelled:      m.cancelledN.Load(),
		Resumed:        m.resumedN.Load(),
		Batches:        m.batchesN.Load(),
		BatchedJobs:    m.batchedN.Load(),
		PlanHits:       hits,
		PlanMisses:     misses,
		PlanEvictions:  evictions,
		QueueWait:      m.waitHist.Snapshot(),
		BatchDurations: m.runHist.Snapshot(),
	}
}

// TenantStats is one tenant's point-in-time standing for per-tenant
// metrics: lifetime counters plus live queue state. The "_other" row
// aggregates every tenant beyond the cardinality cap.
type TenantStats struct {
	Tenant    string `json:"tenant"`
	Queued    int    `json:"queued"`
	Running   int    `json:"running"`
	Submitted int64  `json:"submitted"`
	Completed int64  `json:"completed"`
	Failed    int64  `json:"failed"`
	Cancelled int64  `json:"cancelled"`
	// OldestQueuedAgeSeconds is how long the tenant's oldest queued job
	// has been waiting (0 when nothing is queued) — the queue-age gauge
	// that makes one tenant's backlog visible next to fleet totals.
	OldestQueuedAgeSeconds float64 `json:"oldest_queued_age_seconds"`
}

// TenantStats returns per-tenant counters and queue ages, sorted by tenant
// label. Cardinality is bounded by maxTenantLabels plus the overflow row.
func (m *Manager) TenantStats() []TenantStats {
	now := time.Now()
	m.mu.Lock()
	rows := make(map[string]*TenantStats, len(m.tenants))
	for label, tc := range m.tenants {
		rows[label] = &TenantStats{
			Tenant:    label,
			Submitted: tc.submitted,
			Completed: tc.completed,
			Failed:    tc.failed,
			Cancelled: tc.cancelled,
		}
	}
	for _, j := range m.jobs {
		row := rows[m.tenantLabelLocked(j.tenant)]
		if row == nil {
			continue // tenant loaded from the store without new submissions
		}
		switch j.state {
		case StateQueued:
			row.Queued++
			if age := now.Sub(j.created).Seconds(); age > row.OldestQueuedAgeSeconds {
				row.OldestQueuedAgeSeconds = age
			}
		case StateRunning:
			row.Running++
		}
	}
	m.mu.Unlock()
	out := make([]TenantStats, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].Tenant < out[k].Tenant })
	return out
}

// Close stops the manager: running walks are cancelled (their final
// checkpoints flushed to the store so a successor resumes them) and the
// runner pool drains. Queued and running jobs stay queued/running in the
// store — a restarted Manager re-offers them. ctx bounds the wait.
func (m *Manager) Close(ctx context.Context) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	for b := range m.running {
		b.cancel()
	}
	m.cond.Broadcast()
	m.mu.Unlock()

	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
