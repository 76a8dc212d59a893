// Runtime metrics, two surfaces rendered from one table (scalarMetrics):
//
//   - GET /debug/vars — the process-global expvar map "hsfsimd", served by
//     the standard expvar handler. Counters describe the whole process:
//     multiple service instances (tests, embedded daemons) aggregate here.
//   - GET /metrics — Prometheus text exposition of the same counters plus
//     the per-service latency histograms (leaf latency, leaf fold, segment
//     sweep time, dist lease durations) and runtime gauges (heap, GC,
//     goroutines).
//
// Dist lease stats are scoped per coordinator: every service owns a private
// *dist.Stats (so concurrent services — e.g. a coordinator and its workers
// in one test process — never cross-talk), and the process-global expvar
// values are computed by summing a registry of all live instances.
package server

import (
	"expvar"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"

	"hsfsim/internal/dist"
	"hsfsim/internal/jobs"
	"hsfsim/internal/statevec"
	"hsfsim/internal/telemetry"
)

var (
	metricRequests       = new(expvar.Int) // HTTP requests received (all endpoints)
	metricSimulations    = new(expvar.Int) // /simulate runs completed successfully
	metricPathsSimulated = new(expvar.Int) // Feynman path leaves across local simulations
	metricShed429        = new(expvar.Int) // requests shed by the concurrency limiter
	metricInFlight       = new(expvar.Int) // simulation requests currently executing
	metricWorkerRuns     = new(expvar.Int) // /dist/run leases served as a worker
)

// distStatsRegistry tracks every service's private *dist.Stats so the
// process-global expvar aggregation can sum over them.
var distStatsRegistry struct {
	mu  sync.Mutex
	all []*dist.Stats
}

// newDistStats allocates a coordinator-scoped stats block and registers it
// for process-global aggregation.
func newDistStats() *dist.Stats {
	s := &dist.Stats{}
	distStatsRegistry.mu.Lock()
	distStatsRegistry.all = append(distStatsRegistry.all, s)
	distStatsRegistry.mu.Unlock()
	return s
}

// sumDistStats folds one counter across every registered coordinator.
func sumDistStats(read func(*dist.Stats) int64) int64 {
	distStatsRegistry.mu.Lock()
	defer distStatsRegistry.mu.Unlock()
	var total int64
	for _, s := range distStatsRegistry.all {
		total += read(s)
	}
	return total
}

// distCounter reads one coordinator counter summed over every registered
// service.
func distCounter(field func(*dist.Stats) *atomic.Int64) func() int64 {
	return func() int64 {
		return sumDistStats(func(s *dist.Stats) int64 { return field(s).Load() })
	}
}

// metricKind is the Prometheus type a scalar metric is exposed as.
type metricKind int

const (
	counter metricKind = iota
	gauge
)

// scalarMetric declares one scalar metric for both surfaces: expvar is its
// key in the "hsfsimd" map of /debug/vars ("" for a /metrics-only metric),
// prom its family name on /metrics. Exactly one reader is set: proc reads a
// process-global value; jobs reads one job manager's stats, summed over every
// manager in the process for /debug/vars and taken from the serving
// instance's manager for /metrics.
type scalarMetric struct {
	expvar, prom, help string
	kind               metricKind
	proc               func() int64
	jobs               func(jobs.StatsSnapshot) int64
}

// scalarMetrics is the one declaration of every scalar metric, in /metrics
// order.
var scalarMetrics = []scalarMetric{
	{"requests_total", "hsfsimd_requests_total",
		"HTTP requests received across all endpoints.", counter, metricRequests.Value, nil},
	{"simulations_total", "hsfsimd_simulations_total",
		"Simulations completed successfully.", counter, metricSimulations.Value, nil},
	{"paths_simulated_total", "hsfsimd_paths_simulated_total",
		"Feynman path leaves simulated locally.", counter, metricPathsSimulated.Value, nil},
	{"shed_429_total", "hsfsimd_shed_429_total",
		"Requests shed by the concurrency limiter.", counter, metricShed429.Value, nil},
	{"in_flight", "hsfsimd_in_flight",
		"Simulation requests currently executing.", gauge, metricInFlight.Value, nil},
	{"worker_runs_total", "hsfsimd_worker_runs_total",
		"Distributed leases served as a worker.", counter, metricWorkerRuns.Value, nil},

	{"dist_leases_granted_total", "hsfsimd_dist_leases_granted_total",
		"Distributed leases granted by coordinators.", counter,
		distCounter(func(s *dist.Stats) *atomic.Int64 { return &s.LeasesGranted }), nil},
	{"dist_lease_reassignments_total", "hsfsimd_dist_lease_reassignments_total",
		"Leases reassigned after worker failure or stall.", counter,
		distCounter(func(s *dist.Stats) *atomic.Int64 { return &s.LeasesReassigned }), nil},
	{"dist_workers_retired_total", "hsfsimd_dist_workers_retired_total",
		"Workers retired after repeated lease failures.", counter,
		distCounter(func(s *dist.Stats) *atomic.Int64 { return &s.WorkersRetired }), nil},
	{"dist_prefixes_merged_total", "hsfsimd_dist_prefixes_merged_total",
		"Prefix tasks merged into coordinator state.", counter,
		distCounter(func(s *dist.Stats) *atomic.Int64 { return &s.PrefixesMerged }), nil},
	{"dist_paths_simulated_total", "hsfsimd_dist_paths_simulated_total",
		"Feynman path leaves merged from distributed workers.", counter,
		distCounter(func(s *dist.Stats) *atomic.Int64 { return &s.PathsSimulated }), nil},
	{"dist_leases_in_flight", "hsfsimd_dist_leases_in_flight",
		"Distributed leases currently executing.", gauge,
		distCounter(func(s *dist.Stats) *atomic.Int64 { return &s.InFlightLeases }), nil},
	{"dist_leases_stolen_total", "hsfsimd_dist_leases_stolen_total",
		"Leases created by stealing from slow or leaving workers.", counter,
		distCounter(func(s *dist.Stats) *atomic.Int64 { return &s.LeasesStolen }), nil},
	{"dist_leases_resplit_total", "hsfsimd_dist_leases_resplit_total",
		"In-flight leases split so part could be re-leased.", counter,
		distCounter(func(s *dist.Stats) *atomic.Int64 { return &s.LeasesResplit }), nil},
	{"dist_partial_returns_total", "hsfsimd_dist_partial_returns_total",
		"Successful lease replies covering fewer prefixes than leased.", counter,
		distCounter(func(s *dist.Stats) *atomic.Int64 { return &s.PartialReturns }), nil},
	{"dist_partials_duplicate_total", "hsfsimd_dist_partials_duplicate_total",
		"Returned partials dropped by exactly-once dedup.", counter,
		distCounter(func(s *dist.Stats) *atomic.Int64 { return &s.PartialsDuplicate }), nil},
	{"dist_workers_joined_total", "hsfsimd_dist_workers_joined_total",
		"Workers admitted into runs after they started.", counter,
		distCounter(func(s *dist.Stats) *atomic.Int64 { return &s.WorkersJoined }), nil},
	{"dist_workers_left_total", "hsfsimd_dist_workers_left_total",
		"Workers that dropped out of running rotations.", counter,
		distCounter(func(s *dist.Stats) *atomic.Int64 { return &s.WorkersLeft }), nil},

	{"jobs_queued", "hsfsimd_jobs_queued",
		"Jobs waiting in the async queue.", gauge,
		nil, func(st jobs.StatsSnapshot) int64 { return int64(st.Queued) }},
	{"", "hsfsimd_jobs_queue_capacity",
		"Capacity of the async job queue.", gauge,
		nil, func(st jobs.StatsSnapshot) int64 { return int64(st.QueueCap) }},
	{"jobs_running", "hsfsimd_jobs_running",
		"Jobs currently executing.", gauge,
		nil, func(st jobs.StatsSnapshot) int64 { return st.Running }},
	{"jobs_submitted_total", "hsfsimd_jobs_submitted_total",
		"Jobs admitted into the queue.", counter,
		nil, func(st jobs.StatsSnapshot) int64 { return st.Submitted }},
	{"jobs_completed_total", "hsfsimd_jobs_completed_total",
		"Jobs finished successfully.", counter,
		nil, func(st jobs.StatsSnapshot) int64 { return st.Completed }},
	{"jobs_failed_total", "hsfsimd_jobs_failed_total",
		"Jobs that ended in failure.", counter,
		nil, func(st jobs.StatsSnapshot) int64 { return st.Failed }},
	{"jobs_cancelled_total", "hsfsimd_jobs_cancelled_total",
		"Jobs cancelled by callers.", counter,
		nil, func(st jobs.StatsSnapshot) int64 { return st.Cancelled }},
	{"jobs_resumed_total", "hsfsimd_jobs_resumed_total",
		"Jobs resumed from durable checkpoints after a restart.", counter,
		nil, func(st jobs.StatsSnapshot) int64 { return st.Resumed }},
	{"jobs_batches_total", "hsfsimd_jobs_batches_total",
		"Walks executed by the job runner pool.", counter,
		nil, func(st jobs.StatsSnapshot) int64 { return st.Batches }},
	{"jobs_batched_total", "hsfsimd_jobs_batched_total",
		"Jobs that shared a walk with at least one other job.", counter,
		nil, func(st jobs.StatsSnapshot) int64 { return st.BatchedJobs }},
	{"jobs_plan_hits_total", "hsfsimd_jobs_plan_cache_hits_total",
		"Plan-cache hits (a compiled plan was reused); the cache serves /jobs and /dist/run.", counter,
		nil, func(st jobs.StatsSnapshot) int64 { return st.PlanHits }},
	{"jobs_plan_misses_total", "hsfsimd_jobs_plan_cache_misses_total",
		"Plan-cache misses (a plan was compiled); the cache serves /jobs and /dist/run.", counter,
		nil, func(st jobs.StatsSnapshot) int64 { return st.PlanMisses }},
	{"jobs_plan_evictions_total", "hsfsimd_jobs_plan_cache_evictions_total",
		"Compiled plans evicted from the LRU shared by /jobs and /dist/run.", counter,
		nil, func(st jobs.StatsSnapshot) int64 { return st.PlanEvictions }},
}

func init() {
	m := expvar.NewMap("hsfsimd")
	for _, sm := range scalarMetrics {
		switch {
		case sm.expvar == "":
		case sm.proc != nil:
			m.Set(sm.expvar, expvar.Func(func() any { return sm.proc() }))
		default:
			m.Set(sm.expvar, expvar.Func(func() any { return sumJobsStats(sm.jobs) }))
		}
	}
}

// handleMetrics serves the Prometheus text exposition format: every scalar
// metric (the "hsfsimd" expvar map plus the queue capacity), the service's
// latency histograms, and runtime gauges. Process and dist metrics are
// process-global (matching /debug/vars); job metrics and histograms are
// scoped to this service instance.
func (s *service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", telemetry.PrometheusContentType)

	telemetry.WriteInfoGauge(w, "hsfsimd_build_info",
		"Build and runtime properties of this daemon; value is always 1.",
		[][2]string{
			{"go_version", runtime.Version()},
			{"kernel_isa", statevec.KernelISA()},
		})
	jst := s.jobs.Stats()
	for _, sm := range scalarMetrics {
		var v int64
		if sm.proc != nil {
			v = sm.proc()
		} else {
			v = sm.jobs(jst)
		}
		if sm.kind == gauge {
			telemetry.WriteGauge(w, sm.prom, sm.help, float64(v))
		} else {
			telemetry.WriteCounter(w, sm.prom, sm.help, v)
		}
	}
	telemetry.WriteHistogramSnapshot(w, "hsfsimd_jobs_queue_wait_seconds",
		"Time jobs spent queued before their walk started.", jst.QueueWait)
	telemetry.WriteHistogramSnapshot(w, "hsfsimd_jobs_batch_duration_seconds",
		"Wall time of executed job batches.", jst.BatchDurations)
	writeTenantMetrics(w, s.jobs.TenantStats())

	telemetry.WriteHistogram(w, "hsfsimd_leaf_latency_seconds",
		"Sampled per-leaf latency (last segment sweep + emit into the leaf batch) of local runs.",
		&s.leafLatency)
	telemetry.WriteHistogram(w, "hsfsimd_leaf_fold_seconds",
		"Sampled durations of folding one leaf batch into the accumulator, local runs.",
		&s.leafFold)
	telemetry.WriteHistogram(w, "hsfsimd_segment_sweep_seconds",
		"Sampled segment sweep durations of local runs.", &s.segmentSweep)
	telemetry.WriteHistogram(w, "hsfsimd_dist_lease_duration_seconds",
		"Durations of distributed leases dispatched by this coordinator.",
		&s.leaseDurations)

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	telemetry.WriteGauge(w, "hsfsimd_heap_alloc_bytes",
		"Bytes of allocated heap objects.", float64(ms.HeapAlloc))
	telemetry.WriteGauge(w, "hsfsimd_heap_sys_bytes",
		"Heap memory obtained from the OS.", float64(ms.HeapSys))
	telemetry.WriteGauge(w, "hsfsimd_gc_pause_seconds_total",
		"Cumulative GC stop-the-world pause time.", float64(ms.PauseTotalNs)/1e9)
	telemetry.WriteCounter(w, "hsfsimd_gc_cycles_total",
		"Completed GC cycles.", int64(ms.NumGC))
	telemetry.WriteGauge(w, "hsfsimd_goroutines",
		"Current number of goroutines.", float64(runtime.NumGoroutine()))
}

// writeTenantMetrics emits the per-tenant job families. They use distinct
// metric names from the unlabeled hsfsimd_jobs_* aggregates (a family may not
// appear twice in one exposition), and their cardinality is bounded by the
// manager's tenant-label cap — overflow tenants collapse into "_other".
func writeTenantMetrics(w http.ResponseWriter, rows []jobs.TenantStats) {
	if len(rows) == 0 {
		return
	}
	series := func(read func(jobs.TenantStats) float64) []telemetry.LabeledValue {
		out := make([]telemetry.LabeledValue, len(rows))
		for i, row := range rows {
			out[i] = telemetry.LabeledValue{Label: row.Tenant, Value: read(row)}
		}
		return out
	}
	telemetry.WriteLabeledGauge(w, "hsfsimd_jobs_tenant_queued",
		"Jobs waiting in the async queue, by tenant.", "tenant",
		series(func(r jobs.TenantStats) float64 { return float64(r.Queued) }))
	telemetry.WriteLabeledGauge(w, "hsfsimd_jobs_tenant_running",
		"Jobs currently executing, by tenant.", "tenant",
		series(func(r jobs.TenantStats) float64 { return float64(r.Running) }))
	telemetry.WriteLabeledGauge(w, "hsfsimd_jobs_tenant_queue_age_seconds",
		"Age of the oldest queued job, by tenant (0 when none queued).", "tenant",
		series(func(r jobs.TenantStats) float64 { return r.OldestQueuedAgeSeconds }))
	telemetry.WriteLabeledCounter(w, "hsfsimd_jobs_tenant_submitted_total",
		"Jobs admitted into the queue, by tenant.", "tenant",
		series(func(r jobs.TenantStats) float64 { return float64(r.Submitted) }))
	telemetry.WriteLabeledCounter(w, "hsfsimd_jobs_tenant_completed_total",
		"Jobs finished successfully, by tenant.", "tenant",
		series(func(r jobs.TenantStats) float64 { return float64(r.Completed) }))
	telemetry.WriteLabeledCounter(w, "hsfsimd_jobs_tenant_failed_total",
		"Jobs that ended in failure, by tenant.", "tenant",
		series(func(r jobs.TenantStats) float64 { return float64(r.Failed) }))
	telemetry.WriteLabeledCounter(w, "hsfsimd_jobs_tenant_cancelled_total",
		"Jobs cancelled by callers, by tenant.", "tenant",
		series(func(r jobs.TenantStats) float64 { return float64(r.Cancelled) }))
}

// mergeRunTelemetry folds one request-scoped recorder's histograms into the
// service-level histograms /metrics exposes.
func (s *service) mergeRunTelemetry(rec *telemetry.Recorder) {
	s.leafLatency.Merge(rec.LeafLatency.Snapshot())
	s.leafFold.Merge(rec.LeafFold.Snapshot())
	s.segmentSweep.Merge(rec.SegmentSweep.Snapshot())
}
