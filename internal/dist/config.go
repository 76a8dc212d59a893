// Coordinator configuration and validation. The zero Config (plus a
// Transport) is usable; every knob has a production default. Validation
// failures are typed (*ConfigError) so daemons can reject bad flag
// combinations at startup with a precise message instead of misbehaving
// mid-run.
package dist

import (
	"fmt"
	"log"
	"time"

	"hsfsim/internal/telemetry"
)

// tasksPerWorker sizes a fresh run's split: the prefix space is expanded
// until it has at least tasksPerWorker×workers tasks.
const tasksPerWorker = 16

// Config tunes a Coordinator; the zero value (plus a Transport) is usable.
type Config struct {
	// Transport executes leases (required).
	Transport Transport
	// LeaseTimeout bounds one lease: it is the worker-side execution deadline
	// sent with every lease, and the coordinator waits a small grace period
	// beyond it for the reply (so a worker that partials exactly at the
	// deadline still gets its work merged). 0: 2 minutes.
	LeaseTimeout time.Duration
	// MaxStrikes is the number of consecutive failed leases after which a
	// worker is retired from the run. 0: 3.
	MaxStrikes int
	// BatchSize fixes the lease size in prefixes. 0: adaptive — leases start
	// at about pending/(4×workers) prefixes and are then resized per worker
	// from its lease-duration histogram so each lease lands near
	// LeaseTimeout/4 (slow workers get smaller leases, fast ones larger).
	BatchSize int
	// WorkerTTL is the dynamic-registration heartbeat TTL. 0: 1 minute.
	WorkerTTL time.Duration
	// HeartbeatInterval is the re-registration cadence advertised to workers.
	// It must be shorter than WorkerTTL or live workers would flap out of the
	// registry between beats. 0: WorkerTTL/3.
	HeartbeatInterval time.Duration
	// MembershipInterval is how often a running session re-reads the registry
	// to admit joiners and mark leavers. 0: 250ms.
	MembershipInterval time.Duration
	// StealDelay is how long an in-flight lease must age before an idle
	// worker may steal (re-split) part of it. Leases held by leaving or
	// retired workers are stealable immediately. 0: max(LeaseTimeout/8, 2s).
	StealDelay time.Duration
	// Logger receives lease-level events (nil: log.Default()).
	Logger *log.Logger
	// Stats, when non-nil, receives counter updates. Every coordinator
	// should get its own Stats instance (a daemon scopes one per service and
	// aggregates for export); New allocates a private one when nil, so
	// coordinators never share counters by accident.
	Stats *Stats
	// OnLease, when non-nil, receives one event per completed (or failed)
	// lease: worker, batch, duration, merged path count. It is called from
	// worker lease loops, so it must be safe for concurrent use.
	OnLease func(telemetry.LeaseEvent)

	// onLease, when non-nil, runs just before each lease is dispatched
	// (worker address, lease id). Tests use it to kill workers mid-run.
	onLease func(worker string, batch int)
}

// ConfigError reports a rejected Config field.
type ConfigError struct {
	Field  string
	Reason string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("dist: invalid config: %s: %s", e.Field, e.Reason)
}

// Validate checks the configuration as New would see it (defaults applied to
// unset fields first) and returns a *ConfigError describing the first
// problem, or nil.
func (cfg Config) Validate() error {
	for _, f := range []struct {
		name string
		d    time.Duration
	}{
		{"LeaseTimeout", cfg.LeaseTimeout},
		{"WorkerTTL", cfg.WorkerTTL},
		{"HeartbeatInterval", cfg.HeartbeatInterval},
		{"MembershipInterval", cfg.MembershipInterval},
		{"StealDelay", cfg.StealDelay},
	} {
		if f.d < 0 {
			return &ConfigError{Field: f.name, Reason: "must not be negative"}
		}
	}
	if cfg.MaxStrikes < 0 {
		return &ConfigError{Field: "MaxStrikes", Reason: "must not be negative"}
	}
	if cfg.BatchSize < 0 {
		return &ConfigError{Field: "BatchSize", Reason: "must not be negative"}
	}
	n := cfg.withDefaults()
	if n.WorkerTTL <= n.HeartbeatInterval {
		return &ConfigError{
			Field: "WorkerTTL",
			Reason: fmt.Sprintf("TTL %v must exceed the heartbeat interval %v or live workers expire between beats",
				n.WorkerTTL, n.HeartbeatInterval),
		}
	}
	return nil
}

// withDefaults returns a copy with every unset knob replaced by its default.
func (cfg Config) withDefaults() Config {
	if cfg.LeaseTimeout <= 0 {
		cfg.LeaseTimeout = 2 * time.Minute
	}
	if cfg.MaxStrikes <= 0 {
		cfg.MaxStrikes = 3
	}
	if cfg.WorkerTTL <= 0 {
		cfg.WorkerTTL = time.Minute
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = cfg.WorkerTTL / 3
	}
	if cfg.MembershipInterval <= 0 {
		cfg.MembershipInterval = 250 * time.Millisecond
	}
	if cfg.StealDelay <= 0 {
		cfg.StealDelay = cfg.LeaseTimeout / 8
		if cfg.StealDelay < 2*time.Second {
			cfg.StealDelay = 2 * time.Second
		}
	}
	if cfg.Logger == nil {
		cfg.Logger = log.Default()
	}
	if cfg.Stats == nil {
		cfg.Stats = &Stats{}
	}
	return cfg
}

// leaseGrace is how long past the worker-side deadline the coordinator keeps
// the lease's reply channel open, so partials produced exactly at the
// deadline still arrive.
func leaseGrace(leaseTimeout time.Duration) time.Duration {
	g := leaseTimeout / 4
	if g < 100*time.Millisecond {
		g = 100 * time.Millisecond
	}
	if g > 5*time.Second {
		g = 5 * time.Second
	}
	return g
}
