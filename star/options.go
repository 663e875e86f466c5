package star

import (
	"fmt"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/rounds"
)

// Option configures a cluster. Options are applied in order by New; later
// options override earlier ones. Transports (Simulated, Live) are options
// too, so a full cluster reads as one call:
//
//	c, err := star.New(star.N(5), star.Resilience(2),
//	        star.Algorithm(star.Fig3),
//	        star.Scenario(star.Combined(star.Center(4))),
//	        star.Seed(7))
type Option interface {
	apply(*config) error
}

type optionFunc func(*config) error

func (f optionFunc) apply(c *config) error { return f(c) }

// Defaults applied by New when the corresponding option is absent.
const (
	// DefaultRetention is how many rounds a SUSPICION may lag its
	// receiver's receiving round and still be counted: per-round
	// bookkeeping below the receiving round less DefaultRetention less the
	// window test's reach is pruned (see core.Config.Retention). The
	// deepest lag measured is 14 rounds on the benchmark's sim-paper-n5
	// configurations without restarts (seeds 1-5) and 13 at n=251 over 300
	// rounds; DefaultRetention is the smallest power of two at least 4×
	// that, and on those runs bounded retention is observation-equivalent
	// to UnboundedRetention (NodeMetrics.BelowHorizon counts every
	// departure, and reads 0 there). It is not equivalent under unbounded
	// delays: on the C1 coverage grid (n=5, seed 42, 120s), spike drift and
	// growing outages stretch the lag past any fixed horizon, BelowHorizon
	// is positive in 31 of its 40 core-algorithm cells (up to 49 813) and
	// movingsource/timefree no longer stabilizes, so the experiments run
	// UnboundedRetention. Over live and TCP transports the lag is set by
	// real scheduling, so no constant guarantees it; in-process loopback
	// clusters of five measured a lag of at most 12 rounds. Restarts are
	// outside the equivalence: a restarted member lags by its downtime,
	// which no finite retention covers (ROADMAP.md, "Ω across restarts").
	// Memory stays bounded only while the receiving round advances and
	// the window test's reach stays bounded (see core.Config.Retention).
	// Use UnboundedRetention for paper-faithful unbounded history.
	DefaultRetention = 64

	DefaultAlivePeriod = core.DefaultAlivePeriod
	DefaultTimeoutUnit = core.DefaultTimeoutUnit
	DefaultSampleEvery = 20 * time.Millisecond
	DefaultMaxEvents   = 200_000_000

	// DefaultStartSpread is the window simulated processes boot in: each
	// starts at a seeded uniform offset in [0, DefaultStartSpread].
	DefaultStartSpread = 5 * time.Millisecond

	// DefaultSnapshotEvery is the recovery-journal cadence when
	// WithRecovery is set without SnapshotEvery.
	DefaultSnapshotEvery = 100 * time.Millisecond

	// DefaultChaosBound is the chaos monitor's re-election deadline: after
	// the last disruption in a WithChaos timeline, a connected majority
	// must agree on a live leader within this long (see ChaosBound).
	DefaultChaosBound = 2 * time.Second
)

// config is the merged option set.
type config struct {
	n, t  int
	tSet  bool
	alpha int
	seed  uint64
	algo  Algo
	spec  ScenarioSpec

	transport Transport

	alivePeriod  time.Duration
	timeoutUnit  time.Duration
	sampleEvery  time.Duration
	maxEvents    uint64
	maxEventsSet bool

	retention        int64 // 0 = default; <0 = unbounded
	checkSpread      bool
	recovery         journal.Store
	snapshotEvery    time.Duration
	snapshotSet      bool
	churn            *churnWindows
	observer         func(Event)
	observeMask      EventKind
	consensusEnabled bool
	onDecide         func(p int, instance, value int64)
	abcastEnabled    bool
	onDeliver        func(p int, d Delivery)

	chaos      *chaos.Schedule
	chaosBound time.Duration
}

func defaultConfig() config {
	return config{
		algo:        Fig3,
		alivePeriod: DefaultAlivePeriod,
		timeoutUnit: DefaultTimeoutUnit,
		sampleEvery: DefaultSampleEvery,
		maxEvents:   DefaultMaxEvents,
	}
}

// finish fills derived defaults and validates cross-field invariants.
func (c *config) finish() error {
	if c.n < 2 {
		return fmt.Errorf("%w: N must be >= 2, got %d (did you pass star.N?)", ErrInvalidParams, c.n)
	}
	if c.n > rounds.MaxN {
		return fmt.Errorf("%w: N must be <= %d, got %d", ErrInvalidParams, rounds.MaxN, c.n)
	}
	if !c.tSet {
		c.t = (c.n - 1) / 2
	}
	if c.t < 0 || c.t >= c.n {
		return fmt.Errorf("%w: resilience T must be in [0,%d), got %d", ErrInvalidParams, c.n, c.t)
	}
	if c.alpha == 0 {
		c.alpha = c.n - c.t
	}
	if c.alpha < 1 || c.alpha > c.n {
		return fmt.Errorf("%w: alpha must be in [1,%d], got %d", ErrInvalidParams, c.n, c.alpha)
	}
	if _, err := ParseAlgorithm(string(c.algo)); err != nil {
		return err
	}
	if c.retention == 0 {
		c.retention = DefaultRetention
	} else if c.retention < 0 {
		c.retention = 0 // unbounded, the protocol layers' encoding
	}
	if c.snapshotSet && c.recovery == nil {
		return fmt.Errorf("%w: SnapshotEvery needs WithRecovery", ErrInvalidParams)
	}
	if c.recovery != nil && c.snapshotEvery == 0 {
		c.snapshotEvery = DefaultSnapshotEvery
	}
	if c.transport == nil {
		c.transport = Simulated()
	}
	if c.chaos != nil {
		if err := c.chaos.Validate(c.n); err != nil {
			return fmt.Errorf("%w: %v", ErrInvalidParams, err)
		}
		if c.chaos.HasJournalFaults() && c.recovery == nil {
			return fmt.Errorf("%w: chaos journal-fault steps need WithRecovery", ErrInvalidParams)
		}
		if c.chaosBound == 0 {
			c.chaosBound = DefaultChaosBound
		}
		if c.chaosBound < 0 {
			return fmt.Errorf("%w: chaos re-election bound must be positive, got %v", ErrInvalidParams, c.chaosBound)
		}
	}
	return nil
}

// N sets the number of processes (required).
func N(n int) Option {
	return optionFunc(func(c *config) error { c.n = n; return nil })
}

// Resilience sets T, the maximum number of crashes tolerated.
// Default: (N-1)/2.
func Resilience(t int) Option {
	return optionFunc(func(c *config) error { c.t = t; c.tSet = true; return nil })
}

// Alpha overrides the reception/suspicion threshold ("n-t" in the paper);
// any lower bound on the number of correct processes is sound (footnote 5).
// Default: N-T.
func Alpha(a int) Option {
	return optionFunc(func(c *config) error { c.alpha = a; return nil })
}

// Algorithm selects the Ω implementation. Default: Fig3.
func Algorithm(a Algo) Option {
	return optionFunc(func(c *config) error { c.algo = a; return nil })
}

// Scenario installs the assumption scenario. Default: Combined().
func Scenario(spec ScenarioSpec) Option {
	return optionFunc(func(c *config) error { c.spec = spec; return nil })
}

// Seed fixes the randomness seed. On the simulated transport the entire run
// is a deterministic function of (options, seed); on the live transport the
// seed feeds link delays but goroutine scheduling stays nondeterministic.
func Seed(s uint64) Option {
	return optionFunc(func(c *config) error { c.seed = s; return nil })
}

// UnboundedRetention keeps every round's bookkeeping forever — the paper's
// pseudocode, faithfully. Memory grows with the round count.
func UnboundedRetention() Option {
	return optionFunc(func(c *config) error { c.retention = -1; return nil })
}

// AlivePeriod sets β, the ALIVE/beacon broadcast period.
// Default: DefaultAlivePeriod.
func AlivePeriod(d time.Duration) Option {
	return optionFunc(func(c *config) error {
		if d <= 0 {
			return fmt.Errorf("%w: AlivePeriod must be positive, got %v", ErrInvalidParams, d)
		}
		c.alivePeriod = d
		return nil
	})
}

// TimeoutUnit converts suspicion levels to round-timeout time.
// Default: DefaultTimeoutUnit.
func TimeoutUnit(d time.Duration) Option {
	return optionFunc(func(c *config) error {
		if d <= 0 {
			return fmt.Errorf("%w: TimeoutUnit must be positive, got %v", ErrInvalidParams, d)
		}
		c.timeoutUnit = d
		return nil
	})
}

// SampleEvery sets the observation period: leader estimates (and the event
// stream) are sampled this often. Default: DefaultSampleEvery.
func SampleEvery(d time.Duration) Option {
	return optionFunc(func(c *config) error {
		if d <= 0 {
			return fmt.Errorf("%w: SampleEvery must be positive, got %v", ErrInvalidParams, d)
		}
		c.sampleEvery = d
		return nil
	})
}

// MaxEvents bounds the number of simulated events a cluster may execute
// across all Run calls (a runaway-simulation guard; Run returns
// ErrEventBudget past it). Requires CapEventBudget — execution metered in
// simulator events — which only the simulated transport declares.
// Default: DefaultMaxEvents.
func MaxEvents(n uint64) Option {
	return optionFunc(func(c *config) error { c.maxEvents = n; c.maxEventsSet = true; return nil })
}

// CheckSpread verifies the Lemma 8 spread invariant after every delivery
// (core algorithms); violations are counted in Report. Requires
// CapSpreadCheck, which both transports declare: the simulator checks on
// its event loop, the live transport in a per-delivery hook under the
// receiving process's callback lock. Expensive; used by verification runs.
func CheckSpread() Option {
	return optionFunc(func(c *config) error { c.checkSpread = true; return nil })
}

// Churn schedules rotating churn over the non-center processes: starting at
// start, every period the next victim crashes for downtime and returns as a
// fresh incarnation; the rotation stops before until. Requires CapChurn,
// which both transports declare — virtual-time schedules on the simulator,
// wall-clock timers live. The schedule is built after every scenario
// option (so it spares the scenario's final Center) and is equivalent to a
// matching sequence of CrashAt/RestartAt pairs appended to the scenario.
func Churn(start, period, downtime, until time.Duration) Option {
	return optionFunc(func(c *config) error {
		c.churn = &churnWindows{start: start, period: period, downtime: downtime, until: until}
		return nil
	})
}

// Observe installs the event observer for the event kinds in mask.
// The callback runs synchronously where the event happens. On the simulated
// transport that is always inside Run, in virtual time (deterministic). On
// Live and Network, the sampled kinds run on the sampler goroutine, crash
// and restart events on whichever goroutine crashed or restarted the
// member — and EventDecide inside the deciding process's own callback: on
// that member's goroutine, under its callback lock, concurrently with other
// members and with the sampler. The callback may use the read-only state
// accessors (Leader, Leaders, SuspLevel, Rounds, Decided, ...), except that
// an EventDecide callback must not call one for ev.Proc (or Leaders or
// Agreement, which visit it): the accessor takes the lock the callback
// already holds and deadlocks. It must never call Run, Crash, Close, Report
// or Metrics.
func Observe(mask EventKind, fn func(Event)) Option {
	return optionFunc(func(c *config) error {
		if fn == nil {
			return fmt.Errorf("%w: Observe needs a callback", ErrInvalidParams)
		}
		c.observer = fn
		c.observeMask = mask
		return nil
	})
}

// WithConsensus co-hosts a leader-driven indulgent consensus lane with Ω in
// every process (Theorem 5: it terminates given t < n/2 and the eventual
// leader). onDecide, which may be nil, observes every local decision. It
// runs inside process p's callback: on Live and Network, on p's goroutine
// under its callback lock and concurrently with other processes, so it must
// not call the cluster's accessors for p (they take that lock and
// deadlock). Enables Propose/Decided/Ballots on the cluster.
func WithConsensus(onDecide func(p int, instance, value int64)) Option {
	return optionFunc(func(c *config) error {
		c.consensusEnabled = true
		c.onDecide = onDecide
		return nil
	})
}

// RecoveryStore is an opaque handle to a recovery journal, produced by
// MemJournal or FileJournal and consumed by WithRecovery. The cluster does
// not close it — a store outlives the clusters it serves (that is the whole
// point of the durable ones), so Close it yourself when done.
type RecoveryStore struct {
	s journal.Store
}

// Close releases the underlying journal (flushing file-backed ones).
func (r RecoveryStore) Close() error {
	if r.s == nil {
		return nil
	}
	return r.s.Close()
}

// MemJournal returns an in-memory recovery journal: snapshots survive
// process restarts within (or across, if you reuse the store) cluster
// lifetimes, but not the hosting process.
func MemJournal() RecoveryStore { return RecoveryStore{s: journal.NewMem()} }

// FileJournal opens (creating if absent) a durable recovery journal at
// path: length-prefixed, CRC-protected records, append-only. A corrupt
// journal does not fail the open — the valid prefix is loaded, the damaged
// suffix discarded, and affected restarts surface ErrCorruptJournal through
// EventRecovery while falling back gracefully.
func FileJournal(path string) (RecoveryStore, error) {
	fs, err := journal.OpenFile(path)
	if err != nil {
		return RecoveryStore{}, fmt.Errorf("%w: %v", ErrInvalidParams, err)
	}
	return RecoveryStore{s: fs}, nil
}

// WithRecovery replaces the amnesia churn model with durable crash
// recovery: every process's recovery-relevant state (susp_level vector and
// round counters) is snapshotted into the journal on
// the SnapshotEvery cadence, and a restarted incarnation restores its last
// snapshot instead of starting empty and taking the round-frontier jump. A
// corrupt or missing journal degrades to exactly that jump path, with
// ErrCorruptJournal surfaced via Observe(EventRecovery). Requires
// CapRecovery, which both transports declare.
func WithRecovery(rs RecoveryStore) Option {
	return optionFunc(func(c *config) error {
		if rs.s == nil {
			return fmt.Errorf("%w: WithRecovery needs a journal (use MemJournal or FileJournal)", ErrInvalidParams)
		}
		c.recovery = rs.s
		return nil
	})
}

// SnapshotEvery sets the recovery-journal cadence (how often each live
// process's state is written to the WithRecovery store).
// Default: DefaultSnapshotEvery.
func SnapshotEvery(d time.Duration) Option {
	return optionFunc(func(c *config) error {
		if d <= 0 {
			return fmt.Errorf("%w: SnapshotEvery must be positive, got %v", ErrInvalidParams, d)
		}
		c.snapshotEvery = d
		c.snapshotSet = true
		return nil
	})
}

// WithAtomicBroadcast stacks total-order broadcast on repeated consensus
// (implies WithConsensus): Ω → consensus → atomic broadcast, the paper's
// motivating application stack. onDeliver, which may be nil, observes every
// ordered delivery. Like WithConsensus's onDecide it runs inside process p's
// callback — on Live and Network under p's callback lock, concurrently with
// other processes — and must not call the cluster's accessors for p.
// Enables Broadcast/Deliveries on the cluster.
func WithAtomicBroadcast(onDeliver func(p int, d Delivery)) Option {
	return optionFunc(func(c *config) error {
		c.consensusEnabled = true
		c.abcastEnabled = true
		c.onDeliver = onDeliver
		return nil
	})
}
