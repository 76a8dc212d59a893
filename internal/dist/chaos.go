// Fault injection for the distributed runtime. Chaos wraps any Transport
// and perturbs it with a seeded RNG so failures are reproducible: replies
// dropped after the work was done (the worker computed, the coordinator
// never hears), delayed deliveries, stale duplicate deliveries, and workers
// that die after a number of leases. Registry partitions are injected on the
// coordinator side (Coordinator.PartitionRegistry); together they cover the
// failure modes the chaos suite exercises.
package dist

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"hsfsim/internal/hsf"
)

// ChaosConfig sets the fault mix. Zero values inject nothing.
type ChaosConfig struct {
	// Seed makes every probabilistic decision reproducible.
	Seed int64
	// DropReply is the probability a successful reply is discarded after
	// execution: the lease's work is done but the coordinator sees a
	// transient failure — the classic lost-ack, exercising duplicate
	// suppression when the lease is re-run.
	DropReply float64
	// DuplicateReply is the probability a successful reply is replaced by a
	// replay of an earlier (stale) reply, as a duplicated in-flight delivery
	// would surface. The fresh work is lost; the coordinator must reject the
	// stale partial and requeue.
	DuplicateReply float64
	// MaxDelay delays each lease by a uniform random amount up to this.
	MaxDelay time.Duration
	// KillAfterLeases kills a worker after it has been granted that many
	// leases: every later lease fails like a dead TCP peer, for the rest of the run.
	KillAfterLeases map[string]int
}

// Chaos is a fault-injecting Transport wrapper.
type Chaos struct {
	inner Transport
	cfg   ChaosConfig

	mu      sync.Mutex
	rng     *rand.Rand
	killed  map[string]bool
	granted map[string]int
	// cache holds clones of past successful replies for duplicate injection.
	cache []*hsf.Checkpoint

	// Injection counters, for tests to assert the chaos actually happened.
	Dropped    int
	Duplicated int
	Kills      int
}

// NewChaos wraps inner with the given fault mix.
func NewChaos(inner Transport, cfg ChaosConfig) *Chaos {
	return &Chaos{
		inner:   inner,
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		killed:  make(map[string]bool),
		granted: make(map[string]int),
	}
}

// Kill makes every subsequent lease to name fail with a transient error.
func (c *Chaos) Kill(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.killed[name] {
		c.killed[name] = true
		c.Kills++
	}
}

// Run implements Transport.
func (c *Chaos) Run(ctx context.Context, addr string, req *RunRequest) (*hsf.Checkpoint, error) {
	c.mu.Lock()
	if limit, ok := c.cfg.KillAfterLeases[addr]; ok && !c.killed[addr] && c.granted[addr] >= limit {
		c.killed[addr] = true
		c.Kills++
	}
	if c.killed[addr] {
		c.mu.Unlock()
		return nil, fmt.Errorf("dist: chaos: worker %s: connection refused", addr)
	}
	c.granted[addr]++
	var delay time.Duration
	if c.cfg.MaxDelay > 0 {
		delay = time.Duration(c.rng.Int63n(int64(c.cfg.MaxDelay) + 1))
	}
	drop := c.cfg.DropReply > 0 && c.rng.Float64() < c.cfg.DropReply
	var stale *hsf.Checkpoint
	if c.cfg.DuplicateReply > 0 && len(c.cache) > 0 && c.rng.Float64() < c.cfg.DuplicateReply {
		stale = c.cache[c.rng.Intn(len(c.cache))].Clone()
	}
	c.mu.Unlock()

	if delay > 0 {
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return nil, fmt.Errorf("dist: chaos: worker %s: %w", addr, context.Cause(ctx))
		}
	}
	ck, err := c.inner.Run(ctx, addr, req)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.cache = append(c.cache, ck.Clone())
	if len(c.cache) > 32 {
		c.cache = c.cache[len(c.cache)-32:]
	}
	if drop {
		c.Dropped++
		c.mu.Unlock()
		return nil, fmt.Errorf("dist: chaos: dropped reply from %s", addr)
	}
	if stale != nil && stale.PlanHash == ck.PlanHash && stale.SplitLevels == ck.SplitLevels && stale.M == ck.M {
		c.Duplicated++
		c.mu.Unlock()
		return stale, nil
	}
	c.mu.Unlock()
	return ck, nil
}
