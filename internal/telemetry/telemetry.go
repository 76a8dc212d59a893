// Package telemetry is the run-level measurement layer: spans around plan
// compilation, per-segment sweep timings, per-worker path counters, pool and
// parallelism statistics, and distributed lease timelines, assembled into a
// JSON Report and Prometheus-compatible histograms.
//
// Naming note: internal/obs is quantum *observables* (operators measured on
// the final state); this package is *observability* (measurements of the
// simulator itself). The short name "telemetry" keeps the two apart.
//
// The design constraint is the hot path: the walker executes millions of
// leaves per second with zero heap allocations per leaf, and telemetry must
// not change that. Counters are therefore accumulated in per-worker
// WorkerCounters structs with plain (non-atomic) fields, flushed into the
// Recorder exactly once when the worker exits. Timings are sampled (1 in 64)
// so the time.Now() cost disappears into the noise, and the shared
// histograms they feed use atomic adds only. Kernel-class attribution costs
// nothing at runtime: the engine records, at compile time, how many gates of
// each class every segment and cut term contains, and the walker only counts
// segment/term applications — the per-class totals are a dot product taken
// at Report() time.
package telemetry

import (
	"sync"
	"time"
)

// sampleMask selects 1 in 64 operations for wall-clock timing.
const sampleMask = 63

// Recorder aggregates telemetry for one run (or one process, for the
// daemon's service-level histograms). All methods are safe on a nil
// receiver, so call sites can thread an optional *Recorder without guards.
type Recorder struct {
	mu    sync.Mutex
	start time.Time

	spans []SpanRecord

	// Compile-time structure tables (SetStructure).
	classNames []string
	segClasses [][]int64   // [segment][class] gate counts
	cutClasses [][][]int64 // [level][term][class] gate counts

	// Merged worker totals.
	leaves      int64
	folds       int64
	foldLeaves  int64
	segApps     []int64 // [segment] application counts
	segSampleNs []int64
	segSamples  []int64
	cutApps     [][]int64 // [level][term] application counts
	cutTerms    int64
	forks       int64
	poolGets    int64
	poolReuses  int64
	workers     int

	// Directly-attributed kernel classes (Schrödinger path, which has no
	// walker and counts its gates up front, and the HSF fold epilogue,
	// counted once per run from its finished tasks).
	extraClasses map[string]int64

	leases []LeaseEvent
	totals RunTotals

	// Shared histograms; observed from worker goroutines via atomics.
	// LeafLatency is a leaf's last segment sweep plus its emit into the
	// worker's leaf batch; the accumulate itself is deferred to the fold that
	// applies the whole batch, which LeafFold times.
	LeafLatency    Histogram
	LeafFold       Histogram
	SegmentSweep   Histogram
	LeaseDurations Histogram
}

// New returns a Recorder with its start time pinned to now.
func New() *Recorder {
	return &Recorder{start: time.Now()}
}

// SpanRecord is one named, timed phase of a run (e.g. "plan", "compile").
type SpanRecord struct {
	Name    string  `json:"name"`
	StartMs float64 `json:"start_ms"`
	DurMs   float64 `json:"dur_ms"`
}

// Span starts a named span and returns the function that closes it.
//
//	defer rec.Span("compile")()
func (r *Recorder) Span(name string) func() {
	if r == nil {
		return func() {}
	}
	t0 := time.Now()
	return func() {
		d := time.Since(t0)
		r.mu.Lock()
		r.spans = append(r.spans, SpanRecord{
			Name:    name,
			StartMs: float64(t0.Sub(r.start)) / 1e6,
			DurMs:   float64(d) / 1e6,
		})
		r.mu.Unlock()
	}
}

// SetStructure installs the compile-time class tables: classNames[k] names
// kernel class k, segClasses[s][k] counts class-k gates in segment s, and
// cutClasses[l][t][k] counts class-k gates in term t of cut level l.
func (r *Recorder) SetStructure(classNames []string, segClasses [][]int64, cutClasses [][][]int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.classNames = classNames
	r.segClasses = segClasses
	r.cutClasses = cutClasses
	r.mu.Unlock()
}

// AddKernelClasses adds directly-counted class totals (used by the
// Schrödinger baseline, which applies every gate exactly once, and by the HSF
// engine for the gates its fold epilogue applied).
func (r *Recorder) AddKernelClasses(names []string, counts []int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.extraClasses == nil {
		r.extraClasses = make(map[string]int64, len(names))
	}
	for i, n := range names {
		if counts[i] != 0 {
			r.extraClasses[n] += counts[i]
		}
	}
	r.mu.Unlock()
}

// ObserveSegment records one un-sampled segment application of duration d
// (Schrödinger path: tens of applications per run, so the mutex is fine).
func (r *Recorder) ObserveSegment(seg int, d time.Duration) {
	if r == nil {
		return
	}
	r.SegmentSweep.Observe(d)
	r.mu.Lock()
	r.growSegs(seg + 1)
	r.segApps[seg]++
	r.segSampleNs[seg] += int64(d)
	r.segSamples[seg]++
	r.mu.Unlock()
}

// growSegs must be called with r.mu held.
func (r *Recorder) growSegs(n int) {
	for len(r.segApps) < n {
		r.segApps = append(r.segApps, 0)
		r.segSampleNs = append(r.segSampleNs, 0)
		r.segSamples = append(r.segSamples, 0)
	}
}

// LeaseEvent is one coordinator→worker lease: a batch of prefix tasks
// granted, executed (or failed), and merged. Defined here rather than in
// internal/dist so dist can depend on telemetry without a cycle.
type LeaseEvent struct {
	Worker   string  `json:"worker"`
	Batch    int     `json:"batch"`
	Prefixes int     `json:"prefixes"`
	StartMs  float64 `json:"start_ms"`
	DurMs    float64 `json:"dur_ms"`
	Paths    int64   `json:"paths,omitempty"`
	Err      string  `json:"err,omitempty"`
	// Stolen marks a lease created by re-splitting another worker's
	// in-flight lease; Partial marks a reply covering fewer prefixes than
	// leased (a draining or deadline-bound worker handing work back).
	Stolen  bool `json:"stolen,omitempty"`
	Partial bool `json:"partial,omitempty"`
}

// Lease records one lease event and its duration.
func (r *Recorder) Lease(ev LeaseEvent) {
	if r == nil {
		return
	}
	r.LeaseDurations.Observe(time.Duration(ev.DurMs * 1e6))
	r.mu.Lock()
	r.leases = append(r.leases, ev)
	r.mu.Unlock()
}

// RunTotals is the end-of-run summary handed to FinishRun.
type RunTotals struct {
	TotalPaths int64
	Log2Paths  float64
	Simulated  int64
	Resumed    int64
	Workers    int
	Gomaxprocs int
	Reserved   int
	Inner      int
	Elapsed    time.Duration
}

// FinishRun records the run's final totals. Later calls overwrite earlier
// ones except that Simulated/Resumed accumulate, so a distributed
// coordinator and its in-process workers can both report.
func (r *Recorder) FinishRun(t RunTotals) {
	if r == nil {
		return
	}
	r.mu.Lock()
	prevSim, prevRes := r.totals.Simulated, r.totals.Resumed
	r.totals = t
	if t.Simulated < prevSim {
		r.totals.Simulated = prevSim
	}
	if t.Resumed < prevRes {
		r.totals.Resumed = prevRes
	}
	r.mu.Unlock()
}

// WorkerCounters accumulates one worker goroutine's counters with plain
// (non-atomic, unshared) fields. The walker owns it exclusively until the
// worker exits and Flush folds it into the Recorder; nothing on this struct
// allocates or locks, preserving the zero-allocs-per-leaf guarantee.
type WorkerCounters struct {
	rec         *Recorder
	tick        uint64
	leaves      int64
	folds       int64
	foldLeaves  int64
	segCount    []int64
	segSampleNs []int64
	segSamples  []int64
	cutCount    [][]int64
	cutTerms    int64
	forks       int64
	poolGets    int64
	poolReuses  int64
}

// Worker allocates the per-worker counter block for a plan with nSegs
// segments and the given per-level cut ranks. Returns nil on a nil
// Recorder (telemetry disabled).
func (r *Recorder) Worker(nSegs int, cutRanks []int) *WorkerCounters {
	if r == nil {
		return nil
	}
	w := &WorkerCounters{
		rec:         r,
		segCount:    make([]int64, nSegs),
		segSampleNs: make([]int64, nSegs),
		segSamples:  make([]int64, nSegs),
		cutCount:    make([][]int64, len(cutRanks)),
	}
	for i, rank := range cutRanks {
		w.cutCount[i] = make([]int64, rank)
	}
	return w
}

// Sample advances the sampling tick and reports whether this operation
// should be wall-clock timed (1 in 64).
func (w *WorkerCounters) Sample() bool {
	w.tick++
	return w.tick&sampleMask == 0
}

// Seg counts one application of segment seg; if sampled, t0 is its start
// time and the duration feeds the per-segment sums and the sweep histogram.
func (w *WorkerCounters) Seg(seg int, sampled bool, t0 time.Time) {
	w.segCount[seg]++
	if sampled {
		d := time.Since(t0)
		w.segSampleNs[seg] += int64(d)
		w.segSamples[seg]++
		w.rec.SegmentSweep.Observe(d)
	}
}

// Leaf counts one emitted leaf; if sampled, t0 is the start of the leaf's
// segment application and the span — sweep plus emit, not the deferred
// accumulate — feeds the leaf-latency histogram.
func (w *WorkerCounters) Leaf(sampled bool, t0 time.Time) {
	w.leaves++
	if sampled {
		w.rec.LeafLatency.Observe(time.Since(t0))
	}
}

// Fold counts one fold of n held leaves into the accumulator; if sampled, t0
// is its start and the duration feeds the leaf-fold histogram.
func (w *WorkerCounters) Fold(n int, sampled bool, t0 time.Time) {
	w.folds++
	w.foldLeaves += int64(n)
	if sampled {
		w.rec.LeafFold.Observe(time.Since(t0))
	}
}

// CutTerm counts one application of term t at cut level l.
func (w *WorkerCounters) CutTerm(l, t int) {
	w.cutCount[l][t]++
	w.cutTerms++
}

// Fork counts one pair-state fork.
func (w *WorkerCounters) Fork() { w.forks++ }

// AddPool records statevector pool statistics gathered at worker exit.
func (w *WorkerCounters) AddPool(gets, reuses int) {
	w.poolGets += int64(gets)
	w.poolReuses += int64(reuses)
}

// Flush folds the worker's counters into the Recorder. Call exactly once,
// after the worker goroutine has finished using w.
func (r *Recorder) Flush(w *WorkerCounters) {
	if r == nil || w == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.workers++
	r.leaves += w.leaves
	r.folds += w.folds
	r.foldLeaves += w.foldLeaves
	r.cutTerms += w.cutTerms
	r.forks += w.forks
	r.poolGets += w.poolGets
	r.poolReuses += w.poolReuses
	r.growSegs(len(w.segCount))
	for i := range w.segCount {
		r.segApps[i] += w.segCount[i]
		r.segSampleNs[i] += w.segSampleNs[i]
		r.segSamples[i] += w.segSamples[i]
	}
	for len(r.cutApps) < len(w.cutCount) {
		r.cutApps = append(r.cutApps, nil)
	}
	for l := range w.cutCount {
		for len(r.cutApps[l]) < len(w.cutCount[l]) {
			r.cutApps[l] = append(r.cutApps[l], 0)
		}
		for t := range w.cutCount[l] {
			r.cutApps[l][t] += w.cutCount[l][t]
		}
	}
}

// PathStats summarizes path-tree progress for the Report.
type PathStats struct {
	Total     int64   `json:"total"`
	Log2Total float64 `json:"log2_total,omitempty"`
	Simulated int64   `json:"simulated"`
	Resumed   int64   `json:"resumed,omitempty"`
	PerSecond float64 `json:"per_second,omitempty"`
}

// Counters is the flat counter block of the Report.
type Counters struct {
	Leaves              int64 `json:"leaves"`
	LeafFolds           int64 `json:"leaf_folds"`
	LeavesFolded        int64 `json:"leaves_folded"`
	SegmentApplications int64 `json:"segment_applications"`
	CutTermApplications int64 `json:"cut_term_applications"`
	Forks               int64 `json:"forks"`
	PoolGets            int64 `json:"pool_gets"`
	PoolReuses          int64 `json:"pool_reuses"`
}

// SegmentStats is one segment's application count and sampled timing.
type SegmentStats struct {
	Index        int   `json:"index"`
	Applications int64 `json:"applications"`
	Samples      int64 `json:"samples,omitempty"`
	AvgNs        int64 `json:"avg_ns,omitempty"`
}

// ParStats snapshots the process parallelism budget during the run.
type ParStats struct {
	Gomaxprocs int `json:"gomaxprocs"`
	Workers    int `json:"workers"`
	Reserved   int `json:"reserved"`
	Inner      int `json:"inner"`
}

// Report is the JSON-serializable summary of everything the Recorder saw.
type Report struct {
	StartTime      time.Time         `json:"start_time"`
	WallMs         float64           `json:"wall_ms"`
	KernelISA      string            `json:"kernel_isa,omitempty"`
	Spans          []SpanRecord      `json:"spans,omitempty"`
	Paths          PathStats         `json:"paths"`
	Counters       Counters          `json:"counters"`
	KernelClasses  map[string]int64  `json:"kernel_classes,omitempty"`
	Segments       []SegmentStats    `json:"segments,omitempty"`
	LeafLatency    HistogramSnapshot `json:"leaf_latency"`
	LeafFold       HistogramSnapshot `json:"leaf_fold"`
	SegmentSweep   HistogramSnapshot `json:"segment_sweep"`
	LeaseDurations HistogramSnapshot `json:"lease_durations"`
	Leases         []LeaseEvent      `json:"leases,omitempty"`
	Par            ParStats          `json:"par"`
}

// Report assembles the final report. Safe to call more than once; returns
// nil on a nil receiver.
func (r *Recorder) Report() *Report {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()

	rep := &Report{
		StartTime: r.start,
		WallMs:    float64(time.Since(r.start)) / 1e6,
		Spans:     append([]SpanRecord(nil), r.spans...),
		Leases:    append([]LeaseEvent(nil), r.leases...),
		Paths: PathStats{
			Total:     r.totals.TotalPaths,
			Log2Total: r.totals.Log2Paths,
			Simulated: r.totals.Simulated,
			Resumed:   r.totals.Resumed,
		},
		Counters: Counters{
			Leaves:              r.leaves,
			LeafFolds:           r.folds,
			LeavesFolded:        r.foldLeaves,
			CutTermApplications: r.cutTerms,
			Forks:               r.forks,
			PoolGets:            r.poolGets,
			PoolReuses:          r.poolReuses,
		},
		LeafLatency:    r.LeafLatency.Snapshot(),
		LeafFold:       r.LeafFold.Snapshot(),
		SegmentSweep:   r.SegmentSweep.Snapshot(),
		LeaseDurations: r.LeaseDurations.Snapshot(),
		Par: ParStats{
			Gomaxprocs: r.totals.Gomaxprocs,
			Workers:    r.totals.Workers,
			Reserved:   r.totals.Reserved,
			Inner:      r.totals.Inner,
		},
	}
	if r.totals.Elapsed > 0 && r.totals.Simulated > 0 {
		rep.Paths.PerSecond = float64(r.totals.Simulated) / r.totals.Elapsed.Seconds()
	}

	for i, n := range r.segApps {
		rep.Counters.SegmentApplications += n
		s := SegmentStats{Index: i, Applications: n, Samples: r.segSamples[i]}
		if s.Samples > 0 {
			s.AvgNs = r.segSampleNs[i] / s.Samples
		}
		rep.Segments = append(rep.Segments, s)
	}

	// Kernel-class totals: dot product of application counts with the
	// compile-time class tables, plus any directly-attributed classes.
	classes := make(map[string]int64, len(r.classNames))
	for s, n := range r.segApps {
		if s >= len(r.segClasses) {
			break
		}
		for k, c := range r.segClasses[s] {
			if c != 0 {
				classes[r.classNames[k]] += n * c
			}
		}
	}
	for l := range r.cutApps {
		if l >= len(r.cutClasses) {
			break
		}
		for t := range r.cutApps[l] {
			if t >= len(r.cutClasses[l]) {
				break
			}
			for k, c := range r.cutClasses[l][t] {
				if c != 0 {
					classes[r.classNames[k]] += r.cutApps[l][t] * c
				}
			}
		}
	}
	for n, c := range r.extraClasses {
		classes[n] += c
	}
	for n, c := range classes {
		if c == 0 {
			delete(classes, n)
		}
	}
	if len(classes) > 0 {
		rep.KernelClasses = classes
	}
	return rep
}
