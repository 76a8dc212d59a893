// Distributed tracing support: lease execution metadata (the worker-side
// execution window, reported back through the transport), NTP-style worker
// clock-offset estimation from lease round-trips, and the offset-corrected
// worker-exec spans that make the caller's flight recorder hold the merged
// fleet timeline.
package dist

import (
	"context"
	"time"
)

// Worker-execution-window headers: the /dist/run handler stamps its local
// wall clock around ExecuteRun, the HTTPTransport carries them back, and
// the coordinator turns them into offset-corrected worker-exec spans.
// Exported so the HTTP server sets them without reaching into dist internals.
const (
	WorkerStartHeader = "X-Hsfsim-Worker-Start-Ns"
	WorkerEndHeader   = "X-Hsfsim-Worker-End-Ns"
)

// leaseMeta rides a lease's context from the coordinator through the
// transport: whichever side actually executes the lease fills in the
// worker's wall-clock execution window. Loopback execution writes it
// directly (one process, one clock); the HTTP transport fills it from the
// reply headers. Written before the transport call returns and read only
// after, so plain fields suffice.
type leaseMeta struct {
	workerStartNS int64
	workerEndNS   int64
}

type leaseMetaKey struct{}

// withLeaseMeta attaches the metadata carrier to a lease context.
func withLeaseMeta(ctx context.Context, m *leaseMeta) context.Context {
	return context.WithValue(ctx, leaseMetaKey{}, m)
}

// leaseMetaFrom returns the lease's metadata carrier, or nil.
func leaseMetaFrom(ctx context.Context) *leaseMeta {
	m, _ := ctx.Value(leaseMetaKey{}).(*leaseMeta)
	return m
}

// observeClock folds one lease round-trip into the worker's clock-offset
// estimate. The NTP-style estimate from a single round trip is
//
//	offset = ((workerStart − sent) + (workerEnd − received)) / 2
//
// with error bounded by half the non-execution round-trip time, so the
// sample from the lease with the smallest transport overhead wins.
// Returns the worker's current best offset (worker clock − coordinator
// clock). Caller holds s.mu.
func (w *sessWorker) observeClock(sent, received time.Time, m *leaseMeta) int64 {
	if m == nil || m.workerStartNS == 0 || m.workerEndNS == 0 {
		return w.clockOffNS
	}
	exec := m.workerEndNS - m.workerStartNS
	overhead := received.Sub(sent).Nanoseconds() - exec
	if overhead < 0 {
		overhead = 0
	}
	if !w.clockSet || overhead < w.clockRTTNS {
		w.clockRTTNS = overhead
		w.clockOffNS = ((m.workerStartNS - sent.UnixNano()) + (m.workerEndNS - received.UnixNano())) / 2
		w.clockSet = true
	}
	return w.clockOffNS
}

// recordWorkerExec synthesizes the worker-side execution span on the
// coordinator's timeline, shifted onto the coordinator's clock by the
// worker's estimated offset and parented to the lease span.
func (s *session) recordWorkerExec(w *sessWorker, l *lease, m *leaseMeta, offNS int64) {
	if s.trc == nil || m == nil || m.workerStartNS == 0 || m.workerEndNS == 0 {
		return
	}
	start := time.Unix(0, m.workerStartNS-offNS)
	end := start.Add(time.Duration(m.workerEndNS - m.workerStartNS))
	sp := s.trc.StartAt(l.sc, "worker-exec", start)
	sp.SetStr("worker", w.addr)
	sp.SetInt("offset_ns", offNS)
	sp.SetLane(w.lane)
	sp.EndAt(end)
}
