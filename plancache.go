package hsfsim

import (
	"container/list"
	"sync"
)

// PlanCache is a single-flight LRU of compiled plans keyed by Fingerprint.
// The first Get of a fingerprint compiles (paying the Schmidt decompositions
// once); concurrent Gets of the same fingerprint block on the in-flight
// compile instead of duplicating it, and later ones hit the finished entry.
// Compile errors are cached too — resubmitting a circuit the planner rejects
// should not re-run the planner — but error entries still count toward the
// LRU bound, so they age out.
//
// A daemon keeps one PlanCache for every entry point that compiles (queued
// jobs and distributed leases), so a circuit is planned once per process. A
// nil *PlanCache is valid: Get compiles every call and Stats reads zero.
type PlanCache struct {
	mu      sync.Mutex
	max     int
	entries map[uint64]*planEntry
	lru     *list.List // front = most recently used; values are *planEntry

	hits, misses, evictions int64
}

type planEntry struct {
	fp    uint64
	ready chan struct{} // closed once cp/err are set
	cp    *CompiledPlan
	err   error
	elem  *list.Element
}

// NewPlanCache returns an empty cache holding at most size plans (at least
// one).
func NewPlanCache(size int) *PlanCache {
	return &PlanCache{max: max(size, 1), entries: map[uint64]*planEntry{}, lru: list.New()}
}

// Get returns the compiled plan for (c, opts), compiling it if this is the
// fingerprint's first appearance. shared reports whether the plan already
// existed (or was being compiled by a concurrent caller) — the signal job
// services use to prove same-circuit jobs share one plan. The plan is shared:
// execute it with SimulateCompiledContext, never mutate it.
func (pc *PlanCache) Get(c *Circuit, opts Options) (cp *CompiledPlan, shared bool, err error) {
	if pc == nil {
		cp, err = Compile(c, opts)
		return cp, false, err
	}
	fp, err := Fingerprint(c, opts)
	if err != nil {
		return nil, false, err
	}
	pc.mu.Lock()
	if e, ok := pc.entries[fp]; ok {
		pc.hits++
		pc.lru.MoveToFront(e.elem)
		pc.mu.Unlock()
		<-e.ready
		return e.cp, true, e.err
	}
	pc.misses++
	e := &planEntry{fp: fp, ready: make(chan struct{})}
	e.elem = pc.lru.PushFront(e)
	pc.entries[fp] = e
	for pc.lru.Len() > pc.max {
		back := pc.lru.Back()
		old := back.Value.(*planEntry)
		pc.lru.Remove(back)
		delete(pc.entries, old.fp)
		pc.evictions++
	}
	pc.mu.Unlock()

	e.cp, e.err = Compile(c, opts)
	close(e.ready)
	return e.cp, false, e.err
}

// Stats returns the cache counters: hits, misses (compiles), and evictions.
func (pc *PlanCache) Stats() (hits, misses, evictions int64) {
	if pc == nil {
		return 0, 0, 0
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.hits, pc.misses, pc.evictions
}
