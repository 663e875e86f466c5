package star

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/fedlane"
	"repro/internal/hier"
	"repro/internal/par"
)

// DefaultFedEpoch is the federation's bridge cadence: how often the epoch
// loop interleaves shard execution, handoff processing and tier execution.
const DefaultFedEpoch = 20 * time.Millisecond

// DefaultFedPressure is the tier-suspicion rise (in suspicion levels above
// the post-handoff baseline) at which tier-2 suspicion of a delegate maps
// back to shard-local re-election pressure.
const DefaultFedPressure = 4

// Federation composes star.Cluster instances into a two-tier topology: S
// shards of M processes each run the paper's Ω internally, and each shard's
// current leader participates by proxy — a delegate — in a parent cluster
// of S members whose own Ω elects the global leader-of-leaders.
//
// The bridge between tiers rides the existing machinery, not new protocol
// code: shard leader changes surface on each shard's Observe leader-change
// stream; a settled change hands the shard's delegate slot off — the
// incarnation advances and the stamped handoff record is broadcast on the
// tier's atomic-broadcast lane (WithAtomicBroadcast), so every delegate
// learns the mapping in the same total order. Records stamped with a
// superseded incarnation are rejected
// on delivery (a deposed delegate can never speak for its shard), and
// tier-2 suspicion of a delegate rising past DefaultFedPressure maps back to
// shard-local re-election pressure: the suspected shard's leader is deposed
// so the shard elects afresh and hands off again.
//
// A federation whose shards and tier all run on the simulated transport is
// seed-deterministic: same options, same seed, byte-identical
// Report().Federation. Shards may instead run on the live or network
// transports (FedShardOptions); the epoch loop then drives them
// concurrently and the federation asserts behavioral invariants rather than
// replay identity.
//
// Build one with NewFederation, advance it with Run, inspect it with
// GlobalLeader/ShardLeader/Report, release it with Close. Methods must not
// be called concurrently with Run (mirroring Cluster's contract); the
// read accessors are safe from observer callbacks.
type Federation struct {
	cfg    fedConfig
	shards []*Cluster
	tier   *Cluster

	tab *hier.Table
	trk *hier.Tracker
	mon *chaos.FedMonitor

	// seq is true when every component cluster declares CapDeterminism:
	// the epoch loop then forks the shards and joins them at a barrier in
	// index order (the determinism argument); otherwise components run
	// concurrently on the wall clock.
	seq bool

	// dirty[s] is set by shard s's observer on any leader-estimate change
	// — the Observe stream is the bridge's trigger; the epoch loop clears
	// it and re-evaluates the shard's agreement.
	dirty []atomic.Bool

	// delMu guards the tier-delivery inbox (filled by the abcast
	// OnDeliver callback, which on the live transports runs under a tier
	// process's callback lock — it must never take mu, see poll).
	delMu sync.Mutex
	inbox []Delivery

	// Global application lanes (FedAppLanes). router is the fedlane state
	// machine (guarded by mu); laneMu guards the per-shard lane inboxes,
	// filled by each shard's abcast OnDeliver callback under that shard's
	// process callback locks — like onTierDeliver, those callbacks must
	// never take mu.
	router *fedlane.Router
	laneMu sync.Mutex
	laneIn [][]laneDelivery

	// Fork/join epoch loop (all-sim federations). During a fork window shard
	// observer events are buffered per shard — only shard s's worker
	// goroutine writes evBuf[s] — and flushed in shard-index order at the
	// barrier, so the observer stream is byte-identical to sequential
	// execution. buffered is written only on the epoch-loop goroutine,
	// before the workers start and after they join.
	buffered bool
	evBuf    [][]Event

	// mu guards the bridge state below (epoch loop writes; accessors and
	// Report read).
	mu           sync.Mutex
	seen         map[int64]bool // handoff payloads already consumed
	shardLeaders []int          // last observed agreed leader per shard (local ids)
	pressBase    []int64        // per-shard tier-suspicion baseline since last handoff
	pressure     uint64         // pressure deposals applied
	epochs       uint64         // polls completed (drives the retransmit tick)
	migrations   uint64         // committed migrations executed
	now          time.Duration
	closed       bool

	// Delegate-churn schedule state (FedDelegateChurn).
	churnNext   time.Duration
	churnVictim int
	restartDue  []time.Duration // per-shard pending delegate restart time (0 = none)
}

// fedConfig is the merged FedOption set.
type fedConfig struct {
	shards    int
	shardSize int
	seed      uint64
	epoch     time.Duration

	shardOpts func(shard int) []Option
	tierOpts  []Option

	observer    func(Event)
	observeMask EventKind

	chaos *ChaosSchedule

	churnStart, churnPeriod, churnDowntime, churnUntil time.Duration
	churnSet                                           bool

	lanes bool
}

// laneDelivery is one shard-lane delivery queued for the bridge.
type laneDelivery struct {
	member  int
	payload int64
}

// Retransmit cadence and burst bound of the global lanes: the bridge runs
// a fedlane Tick every laneTickEvery epochs, re-broadcasting at most
// laneDecideBatch decide records per shard per tick.
const (
	laneTickEvery   = 4
	laneDecideBatch = 64
)

// FedOption configures a federation (NewFederation).
type FedOption interface {
	applyFed(*fedConfig) error
}

type fedOptionFunc func(*fedConfig) error

func (f fedOptionFunc) applyFed(c *fedConfig) error { return f(c) }

// FedShape sets the topology: shards clusters of shardSize processes each
// (required). The flat system size is shards*shardSize.
func FedShape(shards, shardSize int) FedOption {
	return fedOptionFunc(func(c *fedConfig) error {
		c.shards, c.shardSize = shards, shardSize
		return nil
	})
}

// FedSeed fixes the federation's randomness seed; every shard and the tier
// derive their own independent seed from it. With all components on the
// simulated transport the whole federation run is a pure function of
// (options, seed).
func FedSeed(s uint64) FedOption {
	return fedOptionFunc(func(c *fedConfig) error { c.seed = s; return nil })
}

// FedEpoch sets the bridge cadence (how often shard leader changes are
// turned into handoffs and the global leader is sampled).
// Default: DefaultFedEpoch.
func FedEpoch(d time.Duration) FedOption {
	return fedOptionFunc(func(c *fedConfig) error {
		if d <= 0 {
			return fmt.Errorf("%w: FedEpoch must be positive, got %v", ErrInvalidParams, d)
		}
		c.epoch = d
		return nil
	})
}

// FedShardOptions supplies extra options for each shard cluster (transport,
// recovery journals, churn, algorithm, timing knobs). The federation's own
// options — N, Seed and its bridge observer — are applied after and win.
func FedShardOptions(fn func(shard int) []Option) FedOption {
	return fedOptionFunc(func(c *fedConfig) error { c.shardOpts = fn; return nil })
}

// FedTierOptions supplies extra options for the tier cluster. The
// federation's N, Seed, atomic-broadcast lane and chaos wiring are applied
// after and win.
func FedTierOptions(opts ...Option) FedOption {
	return fedOptionFunc(func(c *fedConfig) error {
		c.tierOpts = append(c.tierOpts, opts...)
		return nil
	})
}

// FedObserve installs the federation's event observer. Shard events in mask
// are forwarded with Proc and Leader translated to flat process ids
// (shard*shardSize + local); EventGlobalLeader fires when the
// leader-of-leaders changes, with Leader the new global flat id (None on
// loss) and Proc its shard (None on loss).
func FedObserve(mask EventKind, fn func(Event)) FedOption {
	return fedOptionFunc(func(c *fedConfig) error {
		if fn == nil {
			return fmt.Errorf("%w: FedObserve needs a callback", ErrInvalidParams)
		}
		c.observer = fn
		c.observeMask = mask
		return nil
	})
}

// FedChaos installs a fault timeline at shard granularity: step process ids
// and partition groups name shards (tier members), so a Partition step
// separates whole shards from each other at the tier, Kill/Restart steps
// kill and revive delegates, and the tier's invariant monitor checks that a
// majority-of-shards component re-elects a global leader within
// DefaultChaosBound. Link-level steps never touch intra-shard traffic — that is
// exactly the point of shard granularity.
func FedChaos(s *ChaosSchedule) FedOption {
	return fedOptionFunc(func(c *fedConfig) error {
		if s == nil {
			return fmt.Errorf("%w: FedChaos(nil)", ErrInvalidParams)
		}
		c.chaos = s
		return nil
	})
}

// FedDelegateChurn schedules tier-2 churn — delegate kills: starting at
// start, every period the next delegate (rotating over shards) is killed
// for downtime and then revived; the rotation stops at until. This is the
// federation-level counterpart of shard-local churn (pass star.Churn to
// shards via FedShardOptions for that).
func FedDelegateChurn(start, period, downtime, until time.Duration) FedOption {
	return fedOptionFunc(func(c *fedConfig) error {
		if start < 0 || period <= 0 || downtime <= 0 || until <= start {
			return fmt.Errorf("%w: FedDelegateChurn needs start >= 0, period > 0, downtime > 0, until > start", ErrInvalidParams)
		}
		c.churnStart, c.churnPeriod, c.churnDowntime, c.churnUntil = start, period, downtime, until
		c.churnSet = true
		return nil
	})
}

// FedAppLanes enables the global application lanes: every shard gains an
// atomic-broadcast lane the bridge routes through the hierarchy, and the
// Federation grows Propose/Broadcast/Migrate plus the GlobalLog family of
// accessors. Submissions funnel shard-locally to the delegate, ride the
// tier's total-order lane stamped with the delegate's incarnation (a
// deposed delegate can never inject — the same rule that rejects its
// handoffs), and the tier-ordered decisions diffuse back down every
// shard's lane, so every live member of every shard delivers the same
// global sequence. Off by default: the lanes add per-shard consensus
// machinery, so federations that only need the election do not pay for
// them (and existing seeds replay unchanged).
func FedAppLanes() FedOption {
	return fedOptionFunc(func(c *fedConfig) error { c.lanes = true; return nil })
}

// mix64 is SplitMix64's output mix: shard and tier seeds are derived from
// the federation seed through it so sibling clusters never share delay
// streams even for adjacent seeds.
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// NewFederation builds a two-tier federation from functional options.
// FedShape is required; everything else defaults: shards and tier on the
// simulated transport, Fig3 everywhere, DefaultFedEpoch bridge cadence.
func NewFederation(opts ...FedOption) (*Federation, error) {
	cfg := fedConfig{epoch: DefaultFedEpoch}
	for _, o := range opts {
		if o == nil {
			continue
		}
		if err := o.applyFed(&cfg); err != nil {
			return nil, err
		}
	}
	if cfg.shards < 2 || cfg.shards > hier.MaxShards {
		return nil, fmt.Errorf("%w: FedShape needs 2..%d shards, got %d", ErrInvalidParams, hier.MaxShards, cfg.shards)
	}
	if cfg.shardSize < 2 || cfg.shardSize > hier.MaxShardSize {
		return nil, fmt.Errorf("%w: FedShape needs shard size 2..%d, got %d", ErrInvalidParams, hier.MaxShardSize, cfg.shardSize)
	}

	f := &Federation{
		cfg:          cfg,
		shards:       make([]*Cluster, cfg.shards),
		tab:          hier.NewTable(cfg.shards),
		trk:          hier.NewTracker(),
		mon:          chaos.NewFedMonitor(cfg.shards, DefaultChaosBound),
		dirty:        make([]atomic.Bool, cfg.shards),
		seen:         make(map[int64]bool),
		shardLeaders: make([]int, cfg.shards),
		pressBase:    make([]int64, cfg.shards),
		restartDue:   make([]time.Duration, cfg.shards),
		churnNext:    cfg.churnStart,
	}
	for s := range f.shardLeaders {
		f.shardLeaders[s] = None
		f.dirty[s].Store(true) // evaluate every shard on the first epoch
	}
	if cfg.lanes {
		f.router = fedlane.NewRouter(cfg.shards, cfg.shardSize)
		f.laneIn = make([][]laneDelivery, cfg.shards)
	}
	f.evBuf = make([][]Event, cfg.shards)

	fail := func(err error) (*Federation, error) {
		f.Close()
		return nil, err
	}

	for s := 0; s < cfg.shards; s++ {
		s := s
		var shardOpts []Option
		if cfg.shardOpts != nil {
			shardOpts = append(shardOpts, cfg.shardOpts(s)...)
		}
		shardOpts = append(shardOpts,
			N(cfg.shardSize),
			Seed(mix64(cfg.seed+uint64(s)+1)),
			// The bridge trigger: any leader-estimate change marks the
			// shard dirty; observed kinds are forwarded flat-id-translated.
			Observe(EventLeaderChange|(cfg.observeMask&^(EventGlobalLeader|EventGlobalDecide|EventMigrate)), func(ev Event) {
				if ev.Kind == EventLeaderChange {
					f.dirty[s].Store(true)
				}
				f.forwardShardEvent(s, ev)
			}),
		)
		if cfg.lanes {
			// The shard's global-lane endpoint: deliveries queue for the
			// bridge under laneMu (the callback runs under the shard's
			// process callback locks and must never take f.mu).
			shardOpts = append(shardOpts, WithAtomicBroadcast(func(p int, d Delivery) {
				f.laneMu.Lock()
				f.laneIn[s] = append(f.laneIn[s], laneDelivery{member: p, payload: d.Payload})
				f.laneMu.Unlock()
			}))
		}
		c, err := New(shardOpts...)
		if err != nil {
			return fail(fmt.Errorf("federation shard %d: %w", s, err))
		}
		f.shards[s] = c
	}

	tierOpts := append([]Option(nil), cfg.tierOpts...)
	tierOpts = append(tierOpts,
		N(cfg.shards),
		Seed(mix64(cfg.seed^0xFEDFED)),
		WithAtomicBroadcast(f.onTierDeliver),
	)
	if cfg.chaos != nil {
		tierOpts = append(tierOpts, WithChaos(cfg.chaos))
	}
	tier, err := New(tierOpts...)
	if err != nil {
		return fail(fmt.Errorf("federation tier: %w", err))
	}
	f.tier = tier

	f.seq = tier.Capabilities().Has(CapDeterminism)
	for _, sh := range f.shards {
		if !sh.Capabilities().Has(CapDeterminism) {
			f.seq = false
		}
	}
	return f, nil
}

// forwardShardEvent relays one shard event to the federation observer with
// Proc and Leader translated to flat ids. It runs on the shard's execution
// context (deterministic on sim) and must not take f.mu — on the live
// transports the caller holds the shard's collector lock. During a
// fork/join window the translated event is buffered instead (only shard
// s's worker goroutine writes evBuf[s]) and flushed in shard-index order at
// the barrier.
func (f *Federation) forwardShardEvent(s int, ev Event) {
	if f.cfg.observer == nil || f.cfg.observeMask&ev.Kind == 0 {
		return
	}
	if ev.Proc != None {
		ev.Proc = s*f.cfg.shardSize + ev.Proc
	}
	if ev.Kind == EventLeaderChange && ev.Leader != None {
		ev.Leader = s*f.cfg.shardSize + ev.Leader
	}
	if f.buffered {
		f.evBuf[s] = append(f.evBuf[s], ev)
		return
	}
	f.cfg.observer(ev)
}

// emit delivers one federation-level event.
func (f *Federation) emit(ev Event) {
	if f.cfg.observer != nil && f.cfg.observeMask&ev.Kind != 0 {
		f.cfg.observer(ev)
	}
}

// onTierDeliver is the tier's atomic-broadcast delivery callback. It runs
// once per live tier member per slot, on the tier's execution context —
// under a tier process's callback lock on the live transports — so it only
// appends to the inbox under delMu and never touches f.mu (poll, which
// holds f.mu, broadcasts into the tier and would deadlock otherwise).
func (f *Federation) onTierDeliver(p int, d Delivery) {
	f.delMu.Lock()
	f.inbox = append(f.inbox, d)
	f.delMu.Unlock()
}

// Shards and ShardSize return the topology; N the flat system size.
func (f *Federation) Shards() int    { return f.cfg.shards }
func (f *Federation) ShardSize() int { return f.cfg.shardSize }
func (f *Federation) N() int         { return f.cfg.shards * f.cfg.shardSize }

// Shard returns shard s's cluster (drive churn, read state); Tier the
// parent cluster whose members are the delegates.
func (f *Federation) Shard(s int) *Cluster { return f.shards[s] }
func (f *Federation) Tier() *Cluster       { return f.tier }

// Capabilities returns the intersection of every component cluster's
// capability set — CapDeterminism survives only when shards and tier all
// run on the simulated transport.
func (f *Federation) Capabilities() Capability {
	caps := f.tier.Capabilities()
	for _, sh := range f.shards {
		caps &= sh.Capabilities()
	}
	return caps
}

// Now returns elapsed federation time (the epoch loop's clock).
func (f *Federation) Now() time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

// GlobalLeader returns the current leader-of-leaders as a flat process id
// (shard*shardSize + local), or None while the federation has none.
func (f *Federation) GlobalLeader() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.trk.Current()
}

// ShardLeader returns shard s's last observed agreed leader (local id), or
// None while the shard's own election is unsettled.
func (f *Federation) ShardLeader(s int) int {
	if s < 0 || s >= f.cfg.shards {
		return None
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.shardLeaders[s]
}

// Run advances the federation by d in bridge epochs: each epoch runs every
// shard, then the tier, then the bridge (handoffs, pressure, delegate
// churn, global-leader sampling). On an all-simulated federation the shards
// fork onto a worker pool and join at a barrier that merges their effects
// in shard order — the determinism argument — and d is virtual time; with
// live or network shards the components run concurrently and d is wall
// time.
func (f *Federation) Run(d time.Duration) error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return ErrClosed
	}
	end := f.now + d
	f.mu.Unlock()

	for {
		f.mu.Lock()
		if f.now >= end {
			f.mu.Unlock()
			return nil
		}
		step := f.cfg.epoch
		if f.now+step > end {
			step = end - f.now
		}
		f.mu.Unlock()

		if err := f.runEpoch(step); err != nil {
			return err
		}

		f.mu.Lock()
		f.now += step
		f.poll()
		f.mu.Unlock()
	}
}

// runEpoch advances every component by step: fork/join on an
// all-deterministic federation, concurrently otherwise (live shards execute
// in background goroutines regardless; concurrent Run keeps the wall-clock
// cost of an epoch one step, not shards+1 steps).
func (f *Federation) runEpoch(step time.Duration) error {
	if f.seq {
		return f.runEpochParallel(step)
	}
	errs := make([]error, len(f.shards)+1)
	var wg sync.WaitGroup
	for i, sh := range f.shards {
		wg.Add(1)
		go func(i int, sh *Cluster) {
			defer wg.Done()
			errs[i] = sh.Run(step)
		}(i, sh)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		errs[len(errs)-1] = f.tier.Run(step)
	}()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runEpochParallel is the all-sim epoch slice: shard simulations are
// independent between epoch barriers, so they fork onto an internal/par
// worker pool (one worker per GOMAXPROCS; with one, an inline loop in shard
// order) and join before the tier runs. Everything order-sensitive is
// merged in shard-index order at the barrier — observer events buffer per
// shard (forwardShardEvent) and flush sequentially here, the lane inboxes
// are per-shard by construction, and the tier always runs after the join —
// so a parallel replay is byte-identical to a sequential one.
func (f *Federation) runEpochParallel(step time.Duration) error {
	errs := make([]error, len(f.shards))
	f.buffered = true
	par.ForEach(len(f.shards), 0, func(s int) {
		errs[s] = f.shards[s].Run(step)
	})
	f.buffered = false
	for s := range f.evBuf {
		for _, ev := range f.evBuf[s] {
			f.cfg.observer(ev)
		}
		f.evBuf[s] = f.evBuf[s][:0]
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return f.tier.Run(step)
}

// poll is the bridge: it consumes tier deliveries, turns settled shard
// leader changes into handoffs, applies delegate churn and tier-suspicion
// pressure, and samples the global leader. Called with f.mu held, after
// every epoch, in deterministic order.
func (f *Federation) poll() {
	f.epochs++

	// 0. Drain the shard lanes (FedAppLanes): offers surfacing on a
	// shard's lane forward onto the tier's total-order lane stamped with
	// the shard's current delegate incarnation; decide records advance the
	// delivering member's global cursor. Shard-index order keeps replays
	// byte-identical.
	if f.router != nil {
		f.laneMu.Lock()
		lanes := f.laneIn
		f.laneIn = make([][]laneDelivery, f.cfg.shards)
		f.laneMu.Unlock()
		for s, q := range lanes {
			for _, ld := range q {
				if submit, fwd := f.router.ShardDelivered(s, ld.member, ld.payload, f.tab.Incarnation(s)); fwd {
					f.tier.Broadcast(s, submit)
				}
			}
		}
	}

	// 1. Consume the tier's total-order deliveries. Each frame is counted
	// once — keyed by payload, not slot: every handoff encodes a fresh
	// incarnation so payloads are unique per frame, while slot numbers can
	// recur (heavy delegate churn can wipe every tier member's sequencer
	// state, and the surviving incarnations re-decide the slot space from
	// zero). Handoff records from superseded incarnations are rejected
	// inside the table; submit records from superseded incarnations are
	// rejected inside the router (and revived by the retransmit tick under
	// the current incarnation). Payload-keyed dedup is sound for submits
	// too: a re-forward under the same incarnation is bit-identical — a
	// true duplicate — while a re-stamp is a fresh payload.
	f.delMu.Lock()
	inbox := f.inbox
	f.inbox = nil
	f.delMu.Unlock()
	for _, d := range inbox {
		if f.seen[d.Payload] {
			continue
		}
		f.seen[d.Payload] = true
		switch hier.Magic(d.Payload) {
		case hier.MagicHandoff:
			if shard, leader, inc, ok := hier.DecodeHandoff(d.Payload); ok {
				f.tab.Deliver(shard, leader, inc)
			}
		case hier.MagicSubmit:
			if f.router == nil {
				continue
			}
			if e, decide, admit := f.router.TierDelivered(d.Payload, f.tab.Incarnation); admit {
				f.commitGlobal(e, decide)
			}
		}
	}

	// 1b. Retransmit tick: every laneTickEvery epochs the router computes
	// what is overdue — lost offers, submits orphaned by delegate churn
	// (re-stamped with the current incarnation), decides missing from a
	// shard's lane — and the bridge re-sends each through a live member.
	// Overdue submits relay through ANY live tier seat: the record itself
	// carries its shard and incarnation stamp, so a shard whose own seat
	// is down does not lose its voice (the first forward still goes
	// through the shard's seat — that is the delegate speaking — and only
	// the recovery path falls back to a relay).
	if f.router != nil && f.epochs%laneTickEvery == 0 {
		rt := f.router.Tick(f.tab.Incarnation, laneDecideBatch)
		for s := 0; s < f.cfg.shards; s++ {
			if m := f.liveMember(s); m != None {
				for _, v := range rt.Offers[s] {
					f.shards[s].Broadcast(m, v)
				}
				for _, v := range rt.Decides[s] {
					f.shards[s].Broadcast(m, v)
				}
			}
			if len(rt.Submits[s]) > 0 {
				if seat := f.liveTierSeat(s); seat != None {
					for _, v := range rt.Submits[s] {
						f.tier.Broadcast(seat, v)
					}
				}
			}
		}
	}

	// 2. Delegate churn: kills fire on the rotation schedule, revivals
	// when their downtime elapses.
	if f.cfg.churnSet {
		for s, due := range f.restartDue {
			if due > 0 && f.now >= due {
				f.restartDue[s] = 0
				f.tier.restart(s)
			}
		}
		for f.churnNext < f.cfg.churnUntil && f.now >= f.churnNext {
			victim := f.churnVictim % f.cfg.shards
			f.churnVictim++
			f.churnNext += f.cfg.churnPeriod
			if !f.tier.down(victim) {
				f.tier.crash(victim)
				f.restartDue[victim] = f.now + f.cfg.churnDowntime
			}
		}
	}

	// 3. Shard elections → handoffs. A shard is re-evaluated when its
	// Observe stream flagged a leader-estimate change, or when its last
	// known leader has since crashed (a crashed member emits no event of
	// its own; the survivors' re-election will, but the stale entry must
	// not linger in the meantime).
	for s, sh := range f.shards {
		stale := f.shardLeaders[s] != None && sh.Crashed(f.shardLeaders[s])
		if !f.dirty[s].Swap(false) && !stale {
			continue
		}
		l, ok := sh.Agreement()
		if !ok {
			f.shardLeaders[s] = None
			continue
		}
		f.shardLeaders[s] = l
		if l != f.tab.Leader(s) {
			f.handoff(s, l)
		}
	}

	// 4. Pressure: tier-2 suspicion of a delegate rising past the
	// threshold (above its post-handoff baseline) deposes the shard's
	// current leader, forcing shard-local re-election and a fresh handoff.
	for s := range f.shards {
		m := f.tierSuspMax(s)
		if m-f.pressBase[s] < DefaultFedPressure {
			continue
		}
		f.pressBase[s] = m
		if l := f.shardLeaders[s]; l != None && !f.shards[s].Crashed(l) {
			f.shards[s].crash(l)
			f.shards[s].restart(l)
			f.pressure++
		}
	}

	// 5. Sample the global leader: the tier's agreed member names the
	// leading shard; that shard's committed delegate (the incarnation-
	// checked, total-order-delivered view) names the process.
	global := None
	if g, ok := f.tier.Agreement(); ok {
		if cl, _ := f.tab.Committed(g); cl != None {
			global = g*f.cfg.shardSize + cl
		}
	}
	if f.trk.Sample(f.now, global) {
		shard := None
		if global != None {
			shard = global / f.cfg.shardSize
		}
		f.emit(Event{At: f.now, Kind: EventGlobalLeader, Proc: shard, Leader: global})
	}
	f.mon.OnSample(f.now, f.shardLeaders, global, f.cfg.shardSize)
}

// handoff hands shard s's delegate slot to leader: the incarnation
// advances and the stamped record is broadcast on the tier's total-order
// lane. Incarnation tagging alone carries the deposed-delegate guarantee —
// any record a prior term stamped is rejected on delivery (hier.Table) —
// so the tier member itself is left untouched; restarting it would only
// discard its broadcast lane's sequencing state.
func (f *Federation) handoff(s, leader int) {
	inc := f.tab.Handoff(s, leader)
	payload, err := hier.EncodeHandoff(s, leader, inc)
	if err != nil {
		return // unreachable: FedShape bounds shard and leader ids
	}
	f.tier.Broadcast(s, payload)
	f.pressBase[s] = f.tierSuspMax(s)
}

// commitGlobal finalizes one admitted global-lane entry: the decide record
// diffuses down every shard's lane (through a live member; shards with no
// live member are covered by the retransmit tick), the observer hears
// EventGlobalDecide, and a committed migration executes. Called with f.mu
// held.
func (f *Federation) commitGlobal(e fedlane.Entry, decide int64) {
	for s := 0; s < f.cfg.shards; s++ {
		if m := f.liveMember(s); m != None {
			f.shards[s].Broadcast(m, decide)
		}
	}
	f.emit(Event{At: f.now, Kind: EventGlobalDecide, Proc: e.Shard*f.cfg.shardSize + e.Origin, Leader: None, Round: int64(e.GSeq)})
	if e.Kind == fedlane.Migrate {
		f.execMigrate(e)
	}
}

// execMigrate applies a committed cross-shard migration: the process
// leaves the source shard's window (churn crash) and rejoins the
// destination in its lowest vacant slot via the fresh-start +
// JoinCurrentRound ladder. With no vacancy in the destination the delta is
// a no-op beyond its global-order announcement — membership windows are
// fixed-size, so an arrival needs a departure's slot.
func (f *Federation) execMigrate(e fedlane.Entry) {
	from, p, to := e.Shard, e.Origin, e.To
	slot := None
	for m := 0; m < f.cfg.shardSize; m++ {
		if f.shards[to].Crashed(m) {
			slot = m
			break
		}
	}
	f.shards[from].crash(p)
	if slot == None {
		return
	}
	f.shards[to].restart(slot)
	f.migrations++
	f.emit(Event{At: f.now, Kind: EventMigrate, Proc: from*f.cfg.shardSize + p, Leader: to*f.cfg.shardSize + slot})
}

// liveMember picks shard s's downward-diffusion endpoint: its agreed
// leader when live, else the lowest live member, else None.
func (f *Federation) liveMember(s int) int {
	if l := f.shardLeaders[s]; l != None && !f.shards[s].Crashed(l) {
		return l
	}
	for m := 0; m < f.cfg.shardSize; m++ {
		if !f.shards[s].Crashed(m) {
			return m
		}
	}
	return None
}

// liveTierSeat picks the tier member to relay shard s's overdue submits:
// the shard's own seat when live, else the lowest live seat, else None.
func (f *Federation) liveTierSeat(s int) int {
	if !f.tier.down(s) {
		return s
	}
	for m := 0; m < f.cfg.shards; m++ {
		if !f.tier.down(m) {
			return m
		}
	}
	return None
}

// tierSuspMax returns the largest suspicion level any live delegate holds
// against shard s's delegate — the tier's collective doubt about the shard.
func (f *Federation) tierSuspMax(s int) int64 {
	var max int64
	for i := 0; i < f.cfg.shards; i++ {
		lv := f.tier.SuspLevel(i)
		if lv == nil {
			continue
		}
		if lv[s] > max {
			max = lv[s]
		}
	}
	return max
}

// Report computes the federation verdict: the tier cluster's full Report
// (stabilization of the delegate election, chaos verdict, net counters)
// with Report.Federation carrying the two-tier summary. On an
// all-simulated federation the result is a pure function of (options,
// seed).
func (f *Federation) Report() *Report {
	rep := f.tier.Report()
	f.mu.Lock()
	defer f.mu.Unlock()

	fr := &FederationReport{
		Shards:          f.cfg.shards,
		ShardSize:       f.cfg.shardSize,
		GlobalLeader:    f.trk.Current(),
		ShardLeaders:    append([]int(nil), f.shardLeaders...),
		Handoffs:        f.tab.Handoffs(),
		RejectedFrames:  f.tab.Rejected(),
		Pressure:        f.pressure,
		GlobalChanges:   f.trk.Changes(),
		Samples:         f.trk.Samples(),
		Violations:      violations(f.mon.Violations()),
		TotalViolations: f.mon.Total(),
	}
	if f.router != nil {
		c := f.router.Counters()
		fr.GlobalDecisions = c.Decisions
		fr.Redeliveries = c.Redeliveries
		fr.StaleSubmits = c.Stale
		fr.DupLaneFrames = c.Dup
		fr.Migrations = f.migrations
	}
	at, ok := f.trk.Stabilization()
	fr.TierStabilized = ok
	if ok {
		fr.TierStabilization = at
	} else {
		fr.TierStabilization = -1
	}
	for _, sh := range f.shards {
		sr := sh.Report()
		fr.ShardRecovery.Snapshots += sr.Recovery.Snapshots
		fr.ShardRecovery.SaveErrors += sr.Recovery.SaveErrors
		fr.ShardRecovery.Restores += sr.Recovery.Restores
		fr.ShardRecovery.Fallbacks += sr.Recovery.Fallbacks
	}
	rep.Federation = fr
	return rep
}

// Close releases every component cluster. Idempotent; Run after Close
// returns ErrClosed.
func (f *Federation) Close() error {
	f.mu.Lock()
	f.closed = true
	f.mu.Unlock()
	var first error
	for _, sh := range f.shards {
		if sh == nil {
			continue
		}
		if err := sh.Close(); err != nil && first == nil {
			first = err
		}
	}
	if f.tier != nil {
		if err := f.tier.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// FederationReport is the two-tier summary in Report().Federation.
type FederationReport struct {
	// Shards and ShardSize echo the topology.
	Shards, ShardSize int

	// GlobalLeader is the leader-of-leaders at the end of the run, as a
	// flat process id (shard*ShardSize + local), or None.
	GlobalLeader int

	// ShardLeaders is each shard's own agreed leader (local id) at the
	// end of the run, None where unsettled.
	ShardLeaders []int

	// Handoffs counts delegate handoffs issued; RejectedFrames counts
	// handoff records refused on delivery for carrying a superseded
	// incarnation (the deposed-delegate guarantee at work).
	Handoffs       uint64
	RejectedFrames uint64

	// Pressure counts shard leaders deposed because tier-2 suspicion of
	// their delegate crossed the DefaultFedPressure threshold.
	Pressure uint64

	// Global-lane counters (FedAppLanes; all zero otherwise).
	// GlobalDecisions counts entries committed to the global total order;
	// Redeliveries counts records the retransmit tick re-sent after
	// churn, partitions or lost frames; Migrations counts executed
	// cross-shard migrations; StaleSubmits counts submit records rejected
	// for a superseded delegate incarnation (then revived re-stamped);
	// DupLaneFrames counts duplicate offers/submits/decides absorbed by
	// the router's positional dedup.
	GlobalDecisions uint64
	Redeliveries    uint64
	Migrations      uint64
	StaleSubmits    uint64
	DupLaneFrames   uint64

	// TierStabilization is when the final global leader took hold on the
	// federation clock (-1 when the run ended with no global leader);
	// TierStabilized the corresponding verdict. GlobalChanges and Samples
	// describe the global-leader timeline.
	TierStabilization time.Duration
	TierStabilized    bool
	GlobalChanges     int
	Samples           int

	// ShardRecovery aggregates every shard's WithRecovery journal
	// activity (the tier's own is in Report.Recovery).
	ShardRecovery RecoveryStats

	// Violations lists federation invariant breaches (majority-of-shards
	// liveness, stale-global consistency); TotalViolations counts them.
	// The tier's link-level chaos verdict is in Report.Chaos.
	Violations      []Violation
	TotalViolations uint64
}
