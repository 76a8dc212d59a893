package dist

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hsfsim/internal/cut"
	"hsfsim/internal/hsf"
	"hsfsim/internal/telemetry"
	"hsfsim/internal/telemetry/trace"
)

// Stats are process-wide counters a coordinator updates; a daemon exposes
// them through expvar. All fields are monotonic except InFlightLeases.
type Stats struct {
	Runs              atomic.Int64
	LeasesGranted     atomic.Int64
	LeasesReassigned  atomic.Int64
	WorkersRetired    atomic.Int64
	PrefixesMerged    atomic.Int64
	PathsSimulated    atomic.Int64
	InFlightLeases    atomic.Int64
	PartialsDuplicate atomic.Int64
	// Elastic-runtime counters.
	LeasesStolen   atomic.Int64 // leases created by stealing from an in-flight lease
	LeasesResplit  atomic.Int64 // in-flight leases split so part could be re-leased
	PartialReturns atomic.Int64 // successful replies covering fewer prefixes than leased
	PartialsMixed  atomic.Int64 // replies dropped whole because they mixed merged and fresh prefixes
	WorkersJoined  atomic.Int64 // workers admitted into a run after it started
	WorkersLeft    atomic.Int64 // workers that dropped out of a run's rotation
}

// Coordinator shards prefix-task leases across an elastic worker fleet.
type Coordinator struct {
	cfg Config
	reg *registry

	mu       sync.Mutex
	sessions map[*session]struct{}
}

// New returns a Coordinator over the given configuration. The configuration
// is validated first; a rejected field is reported as a *ConfigError.
func New(cfg Config) (*Coordinator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	return &Coordinator{
		cfg:      cfg,
		reg:      newRegistry(cfg.WorkerTTL),
		sessions: make(map[*session]struct{}),
	}, nil
}

// AddWorker pins a static worker (never expires). Running sessions admit it
// at their next membership poll.
func (c *Coordinator) AddWorker(addr string) {
	c.reg.addStatic(addr)
	c.pokeSessions()
}

// Register records a dynamic worker heartbeat and returns the fleet size.
// Running sessions admit a new worker at their next membership poll.
func (c *Coordinator) Register(addr string) int {
	c.reg.register(addr)
	c.pokeSessions()
	return len(c.reg.workers())
}

// Deregister removes a worker that announced it is draining. Its in-flight
// leases become immediately stealable; its loop exits once idle.
func (c *Coordinator) Deregister(addr string) {
	c.reg.remove(addr)
	c.pokeSessions()
}

// PartitionRegistry simulates a network partition between the registry and
// addr: heartbeats from addr are ignored and it is excluded from the fleet,
// while any lease it is already executing keeps running. Chaos tests use
// this to pin the exactly-once guarantee for partials returned by workers
// the coordinator has given up on.
func (c *Coordinator) PartitionRegistry(addr string, cut bool) {
	c.reg.partition(addr, cut)
	c.pokeSessions()
}

// Workers returns the live fleet.
func (c *Coordinator) Workers() []string { return c.reg.workers() }

// TTL returns the dynamic-registration heartbeat TTL.
func (c *Coordinator) TTL() time.Duration { return c.reg.ttl }

// HeartbeatInterval returns the re-registration cadence advertised to
// workers.
func (c *Coordinator) HeartbeatInterval() time.Duration { return c.cfg.HeartbeatInterval }

func (c *Coordinator) addSession(s *session) {
	c.mu.Lock()
	c.sessions[s] = struct{}{}
	c.mu.Unlock()
}

func (c *Coordinator) removeSession(s *session) {
	c.mu.Lock()
	delete(c.sessions, s)
	c.mu.Unlock()
}

// pokeSessions nudges every running session to re-read the registry now
// instead of waiting for the next membership tick.
func (c *Coordinator) pokeSessions() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for s := range c.sessions {
		select {
		case s.poke <- struct{}{}:
		default:
		}
	}
}

// RunOptions carries per-run I/O: crash recovery in and out, plus optional
// observability sinks. A run that must outlive its coordinator flushes
// OnCheckpoint snapshots somewhere durable (hsf.Flusher) and a later Run on
// any fleet resumes from the newest one.
type RunOptions struct {
	// Resume seeds the merged state from a prior checkpoint: already-merged
	// prefixes are never leased again.
	Resume *hsf.Checkpoint
	// CheckpointWriter receives the merged state if the run stops
	// prematurely, in the exact format single-process runs write.
	CheckpointWriter io.Writer
	// OnCheckpoint, when non-nil, runs after every merged lease with the
	// run's live checkpoint, under the merge lock: the engine's
	// Options.OnCheckpoint contract, so it must be fast — rate-limit, Clone,
	// and hand off (hsf.Flusher does all three).
	OnCheckpoint func(*hsf.Checkpoint)
	// Telemetry, when non-nil, records the run's lease timeline (one
	// LeaseEvent per lease, lease-duration histogram) and final totals.
	Telemetry *telemetry.Recorder
	// Progress, when non-nil, is advanced as leases merge, so callers can
	// render a live paths-done/total ticker for distributed runs too.
	Progress *telemetry.Tracker
}

// Run executes the job across the current fleet and returns the merged
// result. It is the coordinator side of the protocol: enumerate once, lease
// prefix batches from a shared pool, merge partials exactly once, requeue or
// re-split on failure, and keep the fleet elastic — workers joining the
// registry mid-run are admitted, leavers are drained.
func (c *Coordinator) Run(ctx context.Context, job *Job, opts RunOptions) (*Result, error) {
	cp, _, err := job.compile(nil)
	if err != nil {
		return nil, err
	}
	return c.run(ctx, job, cp.CutPlan(), opts)
}

// run is Run on the job's compiled plan.
func (c *Coordinator) run(ctx context.Context, job *Job, plan *cut.Plan, opts RunOptions) (*Result, error) {
	workers := c.reg.workers()
	if len(workers) == 0 {
		return nil, ErrNoWorkers
	}
	c.cfg.Stats.Runs.Add(1)

	ck, pending, err := hsf.Seed(plan, hsf.AccumulatorLen(plan, job.MaxAmplitudes),
		hsf.ChooseSplitLevels(plan, tasksPerWorker*len(workers)), opts.Resume)
	if err != nil {
		return nil, fmt.Errorf("dist: resume checkpoint rejected: %w", err)
	}
	planHash, splitLevels := ck.PlanHash, ck.SplitLevels
	merged := make(map[string]bool, len(ck.Prefixes)+len(pending))
	for _, p := range ck.Prefixes {
		merged[hsf.PrefixKey(p)] = true
	}

	np, _ := plan.NumPaths()
	npClamped := int64(np)
	if np > 1<<63-1 {
		npClamped = 1<<63 - 1
	}
	resumedPaths := ck.PathsSimulated
	opts.Progress.Start(npClamped, resumedPaths, nil)
	start := time.Now()

	// The flight recorder rides the caller's context; the run attribute is
	// the plan hash, which /debug/trace?run= resolves.
	trc, parentSC := trace.FromContext(ctx)
	rootSpan := trc.Start(parentSC, "dist-run")
	rootSpan.SetStr("run", fmt.Sprintf("%016x", planHash))
	rootSpan.SetInt("prefixes", int64(len(pending)))
	rootSpan.SetInt("workers", int64(len(workers)))
	if rid := trace.RequestID(ctx); rid != "" {
		rootSpan.SetStr("req", rid)
	}

	s := &session{
		co:       c,
		job:      job,
		planHash: planHash,
		split:    splitLevels,
		ck:       ck,
		merged:   merged,
		unmerged: len(pending),
		inflight: make(map[string]int),
		pooled:   make(map[string]bool, len(pending)),
		leases:   make(map[int]*lease),
		workers:  make(map[string]*sessWorker),
		poke:     make(chan struct{}, 1),
		onCkpt:   opts.OnCheckpoint,
		tel:      opts.Telemetry,
		trc:      trc,
		root:     rootSpan.Context(),
		progress: opts.Progress,
		start:    start,
	}
	s.cond = sync.NewCond(&s.mu)
	s.pool = append(s.pool, pending...)
	for _, p := range pending {
		s.pooled[hsf.PrefixKey(p)] = true
	}
	s.baseLease = c.cfg.BatchSize
	if s.baseLease <= 0 {
		s.baseLease = (len(pending) + 4*len(workers) - 1) / (4 * len(workers))
		if s.baseLease < 1 {
			s.baseLease = 1
		}
	}

	finish := func() {
		rootSpan.End()
		opts.Telemetry.FinishRun(telemetry.RunTotals{
			TotalPaths: npClamped,
			Log2Paths:  plan.Log2Paths(),
			Simulated:  ck.PathsSimulated,
			Resumed:    resumedPaths,
			Workers:    len(workers),
			Gomaxprocs: runtime.GOMAXPROCS(0),
			Elapsed:    time.Since(start),
		})
	}
	result := func() *Result {
		return &Result{
			Amplitudes:      ck.Acc,
			NumPaths:        np,
			Log2Paths:       plan.Log2Paths(),
			PathsSimulated:  ck.PathsSimulated,
			NumCuts:         len(plan.Cuts),
			NumBlocks:       plan.NumBlocks(),
			NumSeparateCuts: plan.NumSeparateCuts(),
			SplitLevels:     splitLevels,
			Batches:         int(s.granted.Load()),
			Workers:         s.spawnedCount(),
			Reassignments:   s.reassigned.Load(),
			Steals:          s.steals.Load(),
			Resplits:        s.resplits.Load(),
			PartialReturns:  s.partials.Load(),
			WorkersJoined:   s.joined.Load(),
			WorkersLeft:     s.left.Load(),
		}
	}
	if len(pending) == 0 { // everything already checkpointed
		finish()
		return result(), nil
	}

	s.runCtx, s.cancel = context.WithCancelCause(ctx)
	defer s.cancel(nil)
	// Any state transition that could unblock a waiting worker loop must
	// broadcast; run-context cancellation is one of them.
	stopWake := context.AfterFunc(s.runCtx, func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	defer stopWake()

	c.addSession(s)
	defer c.removeSession(s)

	s.mu.Lock()
	for _, w := range workers {
		s.addWorkerLocked(w, true)
	}
	s.mu.Unlock()

	s.wg.Add(1)
	go s.membershipLoop()

	<-s.runCtx.Done()
	s.wg.Wait()

	finish()
	if err := s.err(); err != nil {
		if opts.CheckpointWriter != nil {
			if werr := hsf.WriteCheckpoint(opts.CheckpointWriter, ck); werr != nil {
				return nil, errors.Join(err, fmt.Errorf("dist: writing checkpoint: %w", werr))
			}
		}
		return nil, err
	}
	return result(), nil
}

// session is the mutable state of one Run: the prefix pool, in-flight
// leases, the merged checkpoint, and membership bookkeeping shared by the
// per-worker loops.
type session struct {
	co       *Coordinator
	job      *Job
	planHash uint64
	split    int

	mu   sync.Mutex
	cond *sync.Cond // signaled whenever pool/lease/membership state changes

	ck       *hsf.Checkpoint
	merged   map[string]bool // prefix key → merged into ck
	unmerged int             // prefixes not yet merged
	pool     [][]int         // pending prefixes, not leased anywhere
	pooled   map[string]bool // prefix key → present in pool
	inflight map[string]int  // prefix key → live leases covering it
	leases   map[int]*lease  // live leases by id
	nextID   int

	workers     map[string]*sessWorker
	spawned     int // distinct workers ever admitted
	activeLoops int // worker loops currently running
	firstErr    error
	done        bool // every prefix merged

	poke   chan struct{} // nudges the membership loop
	runCtx context.Context
	cancel context.CancelCauseFunc
	wg     sync.WaitGroup

	granted    atomic.Int64
	reassigned atomic.Int64
	steals     atomic.Int64
	resplits   atomic.Int64
	partials   atomic.Int64
	joined     atomic.Int64
	left       atomic.Int64

	baseLease int
	onCkpt    func(*hsf.Checkpoint) // called under mu after every merge
	tel       *telemetry.Recorder
	progress  *telemetry.Tracker
	start     time.Time

	// trc records the run's spans (lease grant→resolve, lease-wait, merge,
	// reconstructed worker execution windows); root is the
	// dist-run span they all hang under. Nil/zero when the run is untraced.
	trc  *trace.Recorder
	root trace.SpanContext
}

// lease is one in-flight grant: a set of prefixes executing on one worker.
type lease struct {
	id       int
	prefixes [][]int
	keys     []string
	worker   string
	started  time.Time
	stolen   bool // a thief has already re-leased part of this work
	isSteal  bool // this lease was created by stealing

	// span covers grant→resolve on the coordinator timeline; sc is its
	// propagation context — it rides the traceparent header to the worker,
	// and a thief's lease span links the victim's sc.
	span trace.Span
	sc   trace.SpanContext
}

// sessWorker is one worker's standing in the session.
type sessWorker struct {
	addr         string
	lane         int  // timeline row in trace output (1-based; 0 is the coordinator)
	running      bool // loop goroutine alive
	leaving      bool // dropped out of the registry; drains, may rejoin
	retired      bool // struck out; sticky for the run
	strikes      int
	prefixesDone int64
	// hist observes successful lease durations; with prefixesDone it yields
	// the per-prefix rate the adaptive sizer uses.
	hist telemetry.Histogram
	// Clock-offset estimate (worker clock − coordinator clock) from lease
	// round trips; the sample with the least transport overhead wins.
	clockSet   bool
	clockOffNS int64
	clockRTTNS int64
}

func (s *session) spawnedCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.spawned
}

// addWorkerLocked admits addr into the rotation, spawning its lease loop.
// Safe to call for a worker that is already running (no-op) or one that left
// and came back (respawn, unless retired).
func (s *session) addWorkerLocked(addr string, initial bool) {
	if s.runCtx != nil && s.runCtx.Err() != nil {
		return
	}
	w := s.workers[addr]
	if w == nil {
		w = &sessWorker{addr: addr}
		s.workers[addr] = w
		s.spawned++
		w.lane = s.spawned // stable 1-based timeline row; lane 0 is the coordinator
		if !initial {
			s.joined.Add(1)
			s.co.cfg.Stats.WorkersJoined.Add(1)
			s.co.cfg.Logger.Printf("dist: worker %s joined mid-run", addr)
		}
	}
	if w.retired || w.running {
		w.leaving = false
		return
	}
	if w.leaving { // rejoin after leaving
		w.leaving = false
		s.joined.Add(1)
		s.co.cfg.Stats.WorkersJoined.Add(1)
		s.co.cfg.Logger.Printf("dist: worker %s rejoined", addr)
	}
	w.running = true
	s.activeLoops++
	s.wg.Add(1)
	go s.runWorker(w)
}

// markLeavingLocked retires addr from new work: its in-flight leases become
// immediately stealable and its loop exits once idle. In-flight transport
// calls are NOT canceled — a leaver that still answers gets its partial
// merged (or rejected as a duplicate if someone else got there first).
func (s *session) markLeavingLocked(w *sessWorker) {
	if w.leaving || !w.running {
		return
	}
	w.leaving = true
	s.left.Add(1)
	s.co.cfg.Stats.WorkersLeft.Add(1)
	s.co.cfg.Logger.Printf("dist: worker %s left the registry; draining", w.addr)
	s.cond.Broadcast()
}

// membershipLoop reconciles the session's rotation with the registry: new
// registrations spawn loops, missing workers are marked leaving. It doubles
// as the periodic wake-up that makes time-based steal eligibility fire.
func (s *session) membershipLoop() {
	defer s.wg.Done()
	interval := s.co.cfg.MembershipInterval
	if sd := s.co.cfg.StealDelay / 2; sd < interval {
		interval = sd
	}
	if interval < 5*time.Millisecond {
		interval = 5 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.runCtx.Done():
			return
		case <-t.C:
		case <-s.poke:
		}
		live := s.co.reg.workers()
		liveSet := make(map[string]bool, len(live))
		s.mu.Lock()
		for _, addr := range live {
			liveSet[addr] = true
			s.addWorkerLocked(addr, false)
		}
		for addr, w := range s.workers {
			if w.running && !w.leaving && !liveSet[addr] {
				s.markLeavingLocked(w)
			}
		}
		s.cond.Broadcast() // age-based steal eligibility advances with time
		s.mu.Unlock()
	}
}

// emit reports one completed (or failed) lease to the configured sinks.
func (s *session) emit(addr string, l *lease, t0 time.Time, part *hsf.Checkpoint, err error) {
	if s.tel == nil && s.co.cfg.OnLease == nil {
		return
	}
	ev := telemetry.LeaseEvent{
		Worker:   addr,
		Batch:    l.id,
		Prefixes: len(l.prefixes),
		StartMs:  float64(t0.Sub(s.start)) / 1e6,
		DurMs:    float64(time.Since(t0)) / 1e6,
		Stolen:   l.isSteal,
	}
	if part != nil {
		ev.Paths = part.PathsSimulated
		ev.Partial = err == nil && len(part.Prefixes) < len(l.prefixes)
	}
	if err != nil {
		ev.Err = err.Error()
	}
	s.tel.Lease(ev)
	if cb := s.co.cfg.OnLease; cb != nil {
		cb(ev)
	}
}

// errAllDone is the private cancellation cause distinguishing "every prefix
// merged" from a real failure.
var errAllDone = errors.New("dist: all prefixes merged")

func (s *session) err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.firstErr != nil {
		return s.firstErr
	}
	if s.unmerged > 0 {
		// The run context must have been canceled externally.
		if cause := context.Cause(s.runCtx); cause != nil && !errors.Is(cause, errAllDone) {
			return cause
		}
		return fmt.Errorf("dist: run ended with %d prefixes unmerged", s.unmerged)
	}
	return nil
}

func (s *session) failLocked(err error) {
	if s.firstErr == nil {
		s.firstErr = err
	}
	s.cancel(err) // AfterFunc broadcast runs in its own goroutine
}

// runWorker is one worker's lease loop: take (or steal) a lease, execute it
// under the lease deadline, resolve the reply. It exits when the run is
// over, the worker is retired, or the worker is leaving and the pool has no
// work for it.
func (s *session) runWorker(w *sessWorker) {
	cfg := &s.co.cfg
	defer s.wg.Done()
	defer s.workerExit(w)
	for {
		l := s.nextLease(w)
		if l == nil {
			return
		}
		if cfg.onLease != nil {
			cfg.onLease(w.addr, l.id)
		}
		s.granted.Add(1)
		cfg.Stats.LeasesGranted.Add(1)
		cfg.Stats.InFlightLeases.Add(1)
		t0 := time.Now()
		lctx, lcancel := context.WithTimeout(s.runCtx, cfg.LeaseTimeout+leaseGrace(cfg.LeaseTimeout))
		// The lease span context rides to the worker (traceparent over HTTP,
		// the context itself over loopback); the metadata carrier brings the
		// worker's execution window back for clock-offset estimation.
		lctx = trace.NewContext(lctx, s.trc, l.sc)
		meta := &leaseMeta{}
		lctx = withLeaseMeta(lctx, meta)
		part, err := cfg.Transport.Run(lctx, w.addr, &RunRequest{
			Job:          *s.job,
			PlanHash:     s.planHash,
			SplitLevels:  s.split,
			Prefixes:     l.prefixes,
			LeaseMillis:  int(cfg.LeaseTimeout / time.Millisecond),
			AllowPartial: true,
		})
		lcancel()
		received := time.Now()
		cfg.Stats.InFlightLeases.Add(-1)
		if s.trc != nil {
			s.mu.Lock()
			off := w.observeClock(t0, received, meta)
			s.mu.Unlock()
			s.recordWorkerExec(w, l, meta, off)
		}
		s.emit(w.addr, l, t0, part, err)
		s.resolve(w, l, part, err, received.Sub(t0))
	}
}

// workerExit runs when a worker loop ends. If the whole fleet is gone with
// work outstanding, the run fails with ErrNoWorkers.
func (s *session) workerExit(w *sessWorker) {
	s.mu.Lock()
	defer s.mu.Unlock()
	w.running = false
	s.activeLoops--
	if s.activeLoops > 0 || s.unmerged == 0 || s.done || s.firstErr != nil {
		return
	}
	if context.Cause(s.runCtx) != nil {
		return
	}
	s.failLocked(fmt.Errorf("%w: all workers retired or left with %d prefixes unmerged",
		ErrNoWorkers, s.unmerged))
}
