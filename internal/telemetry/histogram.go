package telemetry

import (
	"sync/atomic"
	"time"
)

// Histogram is a fixed-bucket exponential latency histogram safe for
// concurrent use. Observations are recorded with atomic adds only — no
// locks, no allocation — so it can sit on the sampled hot path of the
// walker without disturbing the zero-alloc guarantee.
//
// Bucket bounds are shared by every histogram in the process (they are
// latency histograms; one geometry fits leaf latencies, segment sweeps,
// and lease durations alike): powers of 4 starting at 250ns, which spans
// sub-microsecond kernel applications up to minute-scale leases in 14
// buckets plus +Inf.
type Histogram struct {
	counts [numBuckets + 1]atomic.Int64 // last slot is +Inf
	sumNs  atomic.Int64
	n      atomic.Int64
}

const numBuckets = 14

// bucketBoundsNs holds the inclusive upper bound of each bucket in
// nanoseconds: 250ns * 4^i for i in [0, numBuckets).
var bucketBoundsNs = func() [numBuckets]int64 {
	var b [numBuckets]int64
	v := int64(250)
	for i := range b {
		b[i] = v
		v *= 4
	}
	return b
}()

// Observe records one duration. Safe for concurrent use; never allocates.
func (h *Histogram) Observe(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	i := 0
	for i < numBuckets && ns > bucketBoundsNs[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sumNs.Add(ns)
	h.n.Add(1)
}

// HistogramSnapshot is a point-in-time copy of a Histogram, in seconds,
// suitable for JSON reports and Prometheus exposition.
type HistogramSnapshot struct {
	// BoundsSeconds are the inclusive upper bounds of each finite bucket.
	BoundsSeconds []float64 `json:"bounds_seconds"`
	// Counts holds per-bucket (non-cumulative) observation counts; its
	// length is len(BoundsSeconds)+1, the last entry being the +Inf bucket.
	Counts     []int64 `json:"counts"`
	Count      int64   `json:"count"`
	SumSeconds float64 `json:"sum_seconds"`
}

// Snapshot returns a copy of the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		BoundsSeconds: make([]float64, numBuckets),
		Counts:        make([]int64, numBuckets+1),
	}
	for i := range bucketBoundsNs {
		s.BoundsSeconds[i] = float64(bucketBoundsNs[i]) / 1e9
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	s.Count = h.n.Load()
	s.SumSeconds = float64(h.sumNs.Load()) / 1e9
	return s
}

// Merge folds a snapshot produced by another Histogram into this one.
// Snapshots with a different bucket geometry are merged by count and sum
// only (their bucket shape is lost); in practice every histogram in the
// process shares the fixed geometry above.
func (h *Histogram) Merge(s HistogramSnapshot) {
	if len(s.Counts) == numBuckets+1 {
		for i, c := range s.Counts {
			h.counts[i].Add(c)
		}
	} else if s.Count > 0 {
		h.counts[numBuckets].Add(s.Count)
	}
	h.n.Add(s.Count)
	h.sumNs.Add(int64(s.SumSeconds * 1e9))
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.n.Load() }
