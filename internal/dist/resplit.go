// Lease scheduling: the shared prefix pool, adaptive lease sizing from
// per-worker lease-duration histograms, work stealing via lease re-splitting,
// and the exactly-once resolution of returned partials.
//
// Invariants (all guarded by session.mu):
//
//   - A prefix is in exactly one of three places: the pool, covered by ≥1
//     live lease (inflight[key] ≥ 1), or merged. Stealing is the only way a
//     prefix is covered by two leases at once, and then first-write-wins:
//     whichever reply arrives first merges, the loser is dropped whole.
//   - The accumulator of a returned partial is a sum over its prefixes and
//     cannot be split, so a reply that mixes already-merged and fresh
//     prefixes is dropped whole and its fresh prefixes are requeued.
//   - A prefix leaves the merged set never; the pool and inflight maps only
//     shrink toward it. unmerged==0 ends the run.
package dist

import (
	"context"
	"fmt"
	"time"

	"hsfsim/internal/hsf"
	"hsfsim/internal/telemetry/trace"
)

// nextLease blocks until the worker can be granted a lease (from the pool,
// or stolen from a slow/leaving peer) and returns it, or returns nil when
// the loop should exit: run over, worker retired, or worker leaving with no
// pool work left.
func (s *session) nextLease(w *sessWorker) *lease {
	s.mu.Lock()
	defer s.mu.Unlock()
	// An idle worker shows up on the fleet timeline as a lease-wait span,
	// started lazily before the first block so the uncontended fast path
	// records nothing.
	var wait trace.Span
	waiting := false
	defer wait.End()
	for {
		if s.done || s.firstErr != nil || s.runCtx.Err() != nil || w.retired {
			return nil
		}
		if len(s.pool) > 0 {
			return s.takeFromPoolLocked(w)
		}
		if w.leaving {
			return nil
		}
		if l := s.stealLocked(w); l != nil {
			return l
		}
		if s.unmerged == 0 {
			return nil
		}
		if !waiting {
			wait = s.trc.Start(s.root, "lease-wait")
			wait.SetStr("worker", w.addr)
			wait.SetLane(w.lane)
			waiting = true
		}
		s.cond.Wait()
	}
}

// takeFromPoolLocked grants the worker a lease of up to its adaptive size
// from the front of the pool.
func (s *session) takeFromPoolLocked(w *sessWorker) *lease {
	n := s.leaseSizeLocked(w)
	if n > len(s.pool) {
		n = len(s.pool)
	}
	prefixes := make([][]int, n)
	copy(prefixes, s.pool[:n])
	s.pool = s.pool[n:]
	return s.grantLocked(w, prefixes, nil)
}

// grantLocked registers a new lease over the given prefixes. A non-nil
// victim marks this a steal: the new lease's span links the victim's, so
// the timeline shows which grant the thief re-split.
func (s *session) grantLocked(w *sessWorker, prefixes [][]int, victim *lease) *lease {
	l := &lease{
		id:       s.nextID,
		prefixes: prefixes,
		keys:     make([]string, len(prefixes)),
		worker:   w.addr,
		started:  time.Now(),
		isSteal:  victim != nil,
	}
	s.nextID++
	l.span = s.trc.Start(s.root, "lease")
	l.span.SetStr("worker", w.addr)
	l.span.SetInt("prefixes", int64(len(prefixes)))
	l.span.SetLane(w.lane)
	if victim != nil {
		l.span.Link(victim.sc)
	}
	l.sc = l.span.Context()
	for i, p := range prefixes {
		k := hsf.PrefixKey(p)
		l.keys[i] = k
		delete(s.pooled, k)
		s.inflight[k]++
	}
	s.leases[l.id] = l
	return l
}

// leaseSizeLocked returns how many prefixes to grant this worker. With a
// fixed BatchSize the answer is constant; otherwise leases start at the base
// size and are resized from the worker's lease-duration histogram so each
// lease lands near a quarter of LeaseTimeout: slow workers get smaller leases
// (cheap to reassign), fast workers larger ones (less lease overhead).
func (s *session) leaseSizeLocked(w *sessWorker) int {
	if s.co.cfg.BatchSize > 0 {
		return s.co.cfg.BatchSize
	}
	n := s.baseLease
	if w.prefixesDone > 0 {
		if snap := w.hist.Snapshot(); snap.Count > 0 && snap.SumSeconds > 0 {
			perPrefix := snap.SumSeconds / float64(w.prefixesDone)
			n = int((s.co.cfg.LeaseTimeout / 4).Seconds() / perPrefix)
		}
	}
	if n < 1 {
		n = 1
	}
	if max := 4 * s.baseLease; n > max {
		n = max
	}
	return n
}

// stealLocked re-splits an in-flight lease: when the pool is dry and a peer
// lease is stealable — its holder is leaving or retired, or the lease has
// aged past StealDelay — the idle worker duplicates the un-merged,
// single-covered tail of the oldest such lease. The victim keeps running;
// whichever reply lands first wins.
func (s *session) stealLocked(w *sessWorker) *lease {
	now := time.Now()
	var victim *lease
	for _, l := range s.leases {
		if l.worker == w.addr || l.stolen {
			continue
		}
		vw := s.workers[l.worker]
		eligible := now.Sub(l.started) > s.co.cfg.StealDelay
		if vw != nil && (vw.leaving || vw.retired) {
			eligible = true
		}
		if !eligible {
			continue
		}
		if len(s.stealableKeysLocked(l)) == 0 {
			continue
		}
		if victim == nil || l.started.Before(victim.started) {
			victim = l
		}
	}
	if victim == nil {
		return nil
	}
	idx := s.stealableKeysLocked(victim)
	take := idx
	vw := s.workers[victim.worker]
	if vw == nil || (!vw.leaving && !vw.retired) {
		// The victim is merely slow, not gone: re-split, leaving it the front
		// half it is presumably already working through.
		half := (len(idx) + 1) / 2
		take = idx[len(idx)-half:]
	}
	if limit := s.leaseSizeLocked(w); len(take) > limit {
		take = take[len(take)-limit:]
	}
	prefixes := make([][]int, len(take))
	for i, j := range take {
		prefixes[i] = victim.prefixes[j]
	}
	victim.stolen = true
	s.steals.Add(1)
	s.co.cfg.Stats.LeasesStolen.Add(1)
	if len(take) < len(victim.prefixes) {
		s.resplits.Add(1)
		s.co.cfg.Stats.LeasesResplit.Add(1)
	}
	s.co.cfg.Logger.Printf("dist: %s stealing %d/%d prefixes of lease %d from %s",
		w.addr, len(take), len(victim.prefixes), victim.id, victim.worker)
	return s.grantLocked(w, prefixes, victim)
}

// stealableKeysLocked returns the indices of the lease's prefixes that are
// un-merged and covered by this lease alone.
func (s *session) stealableKeysLocked(l *lease) []int {
	var idx []int
	for i, k := range l.keys {
		if !s.merged[k] && s.inflight[k] == 1 {
			idx = append(idx, i)
		}
	}
	return idx
}

// requeueLocked returns the lease's prefixes that are still un-merged and
// not covered by another live lease to the pool.
func (s *session) requeueLocked(l *lease) {
	for i, k := range l.keys {
		if !s.merged[k] && s.inflight[k] == 0 && !s.pooled[k] {
			s.pool = append(s.pool, l.prefixes[i])
			s.pooled[k] = true
		}
	}
}

// resolve applies one lease reply to the session state. Exactly-once is
// enforced here: a reply whose prefixes are all fresh merges whole; all
// already merged (a stolen lease lost the race, or a duplicate delivery) is
// dropped whole; a mix is dropped whole — the accumulator cannot be split —
// and its fresh prefixes go back to the pool.
func (s *session) resolve(w *sessWorker, l *lease, part *hsf.Checkpoint, err error, dur time.Duration) {
	cfg := &s.co.cfg
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.cond.Broadcast()
	delete(s.leases, l.id)
	for _, k := range l.keys {
		if s.inflight[k] > 0 {
			s.inflight[k]--
		}
	}
	if err != nil {
		l.span.SetStr("err", "failed")
	} else if part != nil {
		l.span.SetInt("paths", part.PathsSimulated)
	}
	l.span.End() // grant→resolve, whatever the outcome

	if err != nil {
		if context.Cause(s.runCtx) != nil {
			return // run already over (done, failed, or canceled externally)
		}
		if IsPermanent(err) {
			s.failLocked(err)
			return
		}
		s.strikeLocked(w, l, fmt.Sprintf("lease %d on %s failed: %v", l.id, w.addr, err))
		return
	}

	fresh, dup := 0, 0
	for _, p := range part.Prefixes {
		if s.merged[hsf.PrefixKey(p)] {
			dup++
		} else {
			fresh++
		}
	}
	switch {
	case len(part.Prefixes) == 0:
		// A full lease spent with zero progress: strike, so a worker that
		// keeps returning empty partials cannot stall the run forever.
		if context.Cause(s.runCtx) != nil {
			return
		}
		s.strikeLocked(w, l, fmt.Sprintf("lease %d on %s returned an empty partial", l.id, w.addr))
	case dup == 0:
		msp := s.trc.Start(l.sc, "merge")
		msp.SetInt("prefixes", int64(fresh))
		mergeErr := s.ck.Merge(part)
		msp.End()
		if mergeErr != nil {
			s.failLocked(fmt.Errorf("dist: lease %d: %w", l.id, mergeErr))
			return
		}
		for _, p := range part.Prefixes {
			s.merged[hsf.PrefixKey(p)] = true
		}
		s.unmerged -= fresh
		w.strikes = 0
		w.prefixesDone += int64(fresh)
		w.hist.Observe(dur)
		cfg.Stats.PrefixesMerged.Add(int64(fresh))
		cfg.Stats.PathsSimulated.Add(part.PathsSimulated)
		s.progress.Add(part.PathsSimulated)
		if s.onCkpt != nil {
			s.onCkpt(s.ck)
		}
		// The reply need not cover the lease: a truncated (draining) worker
		// returns a prefix of its lease, and a duplicated delivery can carry a
		// different lease's prefixes entirely. Judge coverage by the lease's
		// own keys — anything of ours still un-merged goes back to the pool.
		covered := true
		for _, k := range l.keys {
			if !s.merged[k] {
				covered = false
				break
			}
		}
		if !covered {
			s.partials.Add(1)
			cfg.Stats.PartialReturns.Add(1)
			s.requeueLocked(l)
		}
		if s.unmerged == 0 && s.firstErr == nil && !s.done {
			s.done = true
			s.cancel(errAllDone)
		}
	case fresh == 0:
		// Entirely merged already: the late loser of a stolen lease or a
		// duplicated delivery. Dropped whole — this is the no-double-merge
		// guarantee.
		w.strikes = 0
		cfg.Stats.PartialsDuplicate.Add(1)
		cfg.Logger.Printf("dist: dropping duplicate partial for lease %d (%s)", l.id, w.addr)
		s.requeueLocked(l)
	default:
		// Mixed: some prefixes merged elsewhere while this lease ran. The
		// accumulator is a sum over all of them, so nothing is salvageable.
		w.strikes = 0
		cfg.Stats.PartialsMixed.Add(1)
		cfg.Stats.PartialsDuplicate.Add(1)
		cfg.Logger.Printf("dist: dropping mixed partial for lease %d (%s): %d fresh, %d already merged",
			l.id, w.addr, fresh, dup)
		s.requeueLocked(l)
	}
}

// strikeLocked charges the worker one strike, requeues the lease's orphaned
// prefixes, and retires the worker when it strikes out.
func (s *session) strikeLocked(w *sessWorker, l *lease, msg string) {
	cfg := &s.co.cfg
	w.strikes++
	s.reassigned.Add(1)
	cfg.Stats.LeasesReassigned.Add(1)
	cfg.Logger.Printf("dist: %s (strike %d/%d)", msg, w.strikes, cfg.MaxStrikes)
	s.requeueLocked(l)
	if w.strikes >= cfg.MaxStrikes {
		w.retired = true
		cfg.Stats.WorkersRetired.Add(1)
		cfg.Logger.Printf("dist: retiring worker %s after %d consecutive failures", w.addr, w.strikes)
	}
}
