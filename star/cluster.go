package star

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/abcast"
	"repro/internal/baseline"
	"repro/internal/chaos"
	"repro/internal/check"
	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/journal"
	"repro/internal/proc"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// recOutcome records how one restart's recovery resolved, for restart to
// emit as EventRecovery after the restart completes (emitting from inside
// buildProcess would run under the process's callback lock on the live
// transport and invert the collector's mu -> callback-lock order).
type recOutcome struct {
	restored bool
	round    int64
	err      error
}

// Cluster is a running (or runnable) system of N processes executing one of
// the paper's eventual-leader algorithms under an assumption scenario, on
// any transport. Build one with New, advance it with Run, inspect it
// with the accessors, and release it with Close.
//
// Concurrency: on the simulated transport all activity happens inside Run
// on the calling goroutine, so the only rule is not to call Cluster methods
// concurrently with Run. On the live transport the cluster is internally
// synchronized; accessors may be called from any goroutine.
type Cluster struct {
	cfg config
	sc  *scenario.Scenario
	n   int

	eng engine

	// hosted[id] reports whether member id runs in this cluster value; nil
	// means all of them do (every transport but a partial-topology Network).
	// Fixed at New, so hosts may be called without the process locks —
	// unlike the per-process tables below, which a restart rewrites under
	// them.
	hosted []bool

	// procs[id] is hosted member id's process (nil for a remote member):
	// the one place it is crashed, restarted and locked, on every
	// transport. The engine fills it before any process starts (adopt).
	procs []*host.Process

	// Per-process protocol handles. The transport endpoint (entry in
	// endpoints) is the registered node — a mux when application lanes
	// are enabled. cores[id] is nil only under Stable; it serves the
	// susp_level, round, timeout and snapshot reads. timers also covers
	// Stable's adaptive timeout. With churn, restarted incarnations
	// replace their entries via the restart factory.
	endpoints []proc.Node
	oracles   []proc.LeaderOracle
	cores     []*core.Node
	conss     []*consensus.Node
	abs       []*abcast.Node
	timers    []interface{ CurrentTimeout() time.Duration }

	// Recovery state (WithRecovery): the incarnation counters stamped into
	// saved snapshots, the per-process outcome of the last restart's
	// recovery (read by restart for EventRecovery), and a scratch snapshot
	// reused by the sweep. All of it is written under the owning process's
	// engine lock (buildProcess runs inside the restart path, which holds
	// it) or by the single snapshotting context.
	incarnations []uint64
	recOutcomes  []recOutcome
	scratchSnap  journal.Snapshot
	recStats     struct {
		snapshots  atomic.Uint64
		saveErrors atomic.Uint64
		restores   atomic.Uint64
		fallbacks  atomic.Uint64
	}

	// Chaos state (WithChaos): the shared link-fault state the transport's
	// send path consults, the orchestrator that fires the schedule (the
	// link-fault state's only writer), the invariant monitor, the
	// FaultStore wrapped around the recovery store (chaos journal faults
	// inject here), and a scratch down-mask for the monitor's sample feed
	// (owned by collect, which the engine serializes).
	chaosFaults  *chaos.Faults
	chaosOrch    *chaos.Orchestrator
	chaosMon     *chaos.Monitor
	chaosJournal *journal.FaultStore
	chaosDown    []bool
	// chaosFloor[id] holds the suspicion levels a restoring incarnation
	// must come back with (RestoreSnapshot stages; Start applies): the
	// guard checks and clears it right after the node starts. Written and
	// read under the process's callback serialization.
	chaosFloor [][]int64

	// mu guards the collector state and lifecycle flags (live transport:
	// the sampler goroutine writes, Report reads). The read-only state
	// accessors do not take it, so observers may call them freely.
	mu            sync.Mutex
	samples       []check.LeaderSample
	bounds        *check.BoundTracker
	timeoutSeries [][]time.Duration
	levelBuf      []int64
	lastLeaders   []int
	lastRounds    []int64
	elapsed       time.Duration
	closed        bool

	// spreadViolations is atomic (not under mu) because the live
	// transport's per-delivery spread hook runs on process goroutines
	// that already hold a callback lock; taking mu there would invert
	// the collector's mu -> callback-lock order.
	spreadViolations atomic.Uint64

	// everCrashed[id] records that member id has crashed at least once:
	// in the crash-stop model a restarted process is still faulty, so the
	// verdicts are owed to the never-crashed set. Written only by crash.
	everCrashed []atomic.Bool
	// downCount is how many members are down now (the order gate's lose
	// budget reads it). Written only by crash and restart.
	downCount atomic.Int64
}

// New builds a cluster from functional options. At minimum pass N; every
// other aspect — resilience, algorithm, assumption scenario, transport,
// seed, retention, churn, observers, application lanes — has a sensible
// default. All validation happens here: errors wrap ErrInvalidParams,
// ErrUnknownAlgorithm, ErrUnknownFamily or ErrUnsupported.
func New(opts ...Option) (*Cluster, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		if o == nil {
			continue
		}
		if err := o.apply(&cfg); err != nil {
			return nil, err
		}
	}
	if err := cfg.finish(); err != nil {
		return nil, err
	}

	sc, err := cfg.spec.build(cfg.n, cfg.t, cfg.alpha, cfg.seed, cfg.churn)
	if err != nil {
		return nil, err
	}

	// Validate the requested features against the transport's DECLARED
	// capability set — the engine seam's contract. New transports extend
	// the system by declaring more (or fewer) capabilities, never by
	// growing per-transport special cases here.
	if err := checkCapabilities(&cfg, sc); err != nil {
		return nil, err
	}

	// With chaos, the recovery store is wrapped in a journal.FaultStore
	// before any process touches it, so schedule journal-fault steps can
	// inject errors into exactly the store the cluster saves and loads
	// through.
	var chaosJournal *journal.FaultStore
	if cfg.chaos != nil && cfg.recovery != nil {
		chaosJournal = journal.NewFaultStore(cfg.recovery)
		cfg.recovery = chaosJournal
	}

	c := &Cluster{
		cfg: cfg,
		sc:  sc,
		n:   cfg.n,

		procs:     make([]*host.Process, cfg.n),
		endpoints: make([]proc.Node, cfg.n),
		oracles:   make([]proc.LeaderOracle, cfg.n),
		cores:     make([]*core.Node, cfg.n),
		conss:     make([]*consensus.Node, cfg.n),
		abs:       make([]*abcast.Node, cfg.n),
		timers:    make([]interface{ CurrentTimeout() time.Duration }, cfg.n),

		incarnations: make([]uint64, cfg.n),
		recOutcomes:  make([]recOutcome, cfg.n),

		bounds:        check.NewBoundTracker(cfg.n),
		timeoutSeries: make([][]time.Duration, cfg.n),
		lastLeaders:   make([]int, cfg.n),
		lastRounds:    make([]int64, cfg.n),
		everCrashed:   make([]atomic.Bool, cfg.n),
	}
	for i := range c.lastLeaders {
		c.lastLeaders[i] = None
	}

	if hoster, ok := cfg.transport.(memberHoster); ok {
		c.hosted = make([]bool, cfg.n)
		for id := range c.hosted {
			c.hosted[id] = hoster.hostsMember(id)
		}
	}
	if cfg.chaos != nil {
		c.chaosJournal = chaosJournal
		c.chaosFaults = chaos.NewFaults(cfg.n, cfg.seed^0x63686173) // "chas"
		c.chaosDown = make([]bool, cfg.n)
		c.chaosFloor = make([][]int64, cfg.n)
		c.chaosMon = chaos.NewMonitor(chaos.MonitorConfig{
			N: cfg.n, Bound: cfg.chaosBound, Hosted: c.hosted,
		})
		c.chaosOrch = chaos.NewOrchestrator(*cfg.chaos, c.chaosFaults, chaosInjector{c}, c.chaosMon)
	}

	for id := 0; id < cfg.n; id++ {
		if !c.hosts(id) {
			continue // a remote member; its own process builds it
		}
		if err := c.buildProcess(id, false); err != nil {
			return nil, err
		}
	}

	eng, err := cfg.transport.newEngine(c)
	if err != nil {
		return nil, err
	}
	// A wall-clock engine installs itself before starting its processes;
	// don't overwrite the pointer their goroutines already read.
	if c.eng == nil {
		c.eng = eng
	}
	c.schedule()
	return c, nil
}

// schedule hands the engine every timed action of the run, in this order:
// the scenario's crashes and restarts, the chaos timeline, the sampling tick
// and (with WithRecovery) the journal cadence. The order is part of a
// simulated run's determinism: equal-time events fire in scheduling order.
func (c *Cluster) schedule() {
	for _, cr := range c.sc.Crashes {
		id := cr.ID
		c.eng.at(time.Duration(cr.At), func() { c.crash(id) })
	}
	for _, r := range c.sc.Restarts {
		id := r.ID
		c.eng.at(time.Duration(r.At), func() { c.restart(id) })
	}
	if c.chaosOrch != nil {
		for _, a := range c.chaosOrch.Actions() {
			c.eng.at(a.At, func() { a.Fire(c.eng.now()) })
		}
	}
	c.eng.every(c.cfg.sampleEvery, func() { c.collect(c.eng.now()) })
	if c.cfg.recovery != nil {
		c.eng.every(c.cfg.snapshotEvery, c.snapshotAll)
	}
}

// adopt makes p hosted member id's process: it runs id's endpoint, and the
// cluster crashes, restarts and locks the member through it. Engines call it
// for every hosted member before any of them starts.
func (c *Cluster) adopt(id int, p *host.Process) {
	p.Register(c.endpoints[id])
	c.procs[id] = p
}

// lock and unlock serialize the caller against hosted member id's callbacks
// (its process's callback lock), so protocol state may be read between
// them; for a remote member they do nothing. Allocation-free: the sampling
// tick takes them once per process.
func (c *Cluster) lock(id int) {
	if p := c.procs[id]; p != nil {
		p.Lock()
	}
}

func (c *Cluster) unlock(id int) {
	if p := c.procs[id]; p != nil {
		p.Unlock()
	}
}

// down reports whether hosted member id is down now; a remote member reads
// as up.
func (c *Cluster) down(id int) bool {
	p := c.procs[id]
	return p != nil && p.Crashed()
}

// crash takes hosted member id down now. It is the one crash path — Crash,
// scenario schedules, chaos kills and federation churn all come here — so a
// crash is recorded in EverCrashed, noted by the chaos monitor and announced
// as EventCrash exactly once. Crashing a down or remote member does nothing.
func (c *Cluster) crash(id int) {
	if !c.hosts(id) {
		return
	}
	// Set before the host crash, so whoever sees the member down also sees
	// it faulty.
	c.everCrashed[id].Store(true)
	if !c.procs[id].Crash() {
		return
	}
	c.downCount.Add(1)
	at := c.eng.now()
	if c.chaosMon != nil {
		c.chaosMon.NoteCrash(at, id)
	}
	c.mu.Lock()
	c.emit(Event{At: at, Kind: EventCrash, Proc: id})
	c.mu.Unlock()
}

// restart brings down hosted member id back as a fresh incarnation built
// like the original process (fresh state plus the round-frontier jump, or a
// journal restore), then announces EventRecovery (with WithRecovery) and
// EventRestart. The config was validated when the initial processes were
// built, so the rebuild cannot fail. Restarting an up or remote member does
// nothing.
func (c *Cluster) restart(id int) {
	if !c.hosts(id) {
		return
	}
	// build runs inside the process's Restart, i.e. while its callback lock
	// is held, which makes the cluster-table swap atomic with respect to
	// samplers, accessors and the spread hook.
	ok := c.procs[id].Restart(func() proc.Node {
		if err := c.buildProcess(id, true); err != nil {
			panic(fmt.Sprintf("star: rebuilding process %d: %v", id, err))
		}
		return c.endpoints[id]
	})
	if !ok {
		return
	}
	c.downCount.Add(-1)
	// The recovery outcome was recorded by buildProcess inside the restart.
	// Events are emitted under the collector mutex, which serializes them
	// with the sampler's on wall clocks.
	at := c.eng.now()
	c.mu.Lock()
	if c.cfg.recovery != nil {
		out := c.recOutcomes[id]
		c.emit(Event{At: at, Kind: EventRecovery, Proc: id, Round: out.round, Err: out.err})
	}
	c.emit(Event{At: at, Kind: EventRestart, Proc: id})
	c.mu.Unlock()
}

// spreadHook returns the CheckSpread per-delivery Lemma 8 check (nil
// without CheckSpread): the pseudocode's statement blocks are atomic, so
// deliveries are the state boundaries. The hook runs with the receiving
// process's callback lock held, so reading that node's susp_level is
// already serialized; spreadMu only guards the shared scratch buffer, which
// keeps the check allocation-free per delivery.
func (c *Cluster) spreadHook() func(to proc.ID) {
	if !c.cfg.checkSpread {
		return nil
	}
	var spreadMu sync.Mutex
	var spreadBuf []int64
	return func(to proc.ID) {
		cn := c.cores[to]
		if cn == nil {
			return
		}
		spreadMu.Lock()
		spreadBuf = cn.SuspLevelInto(spreadBuf)
		ok := check.SpreadOK(spreadBuf)
		spreadMu.Unlock()
		if !ok {
			c.spreadViolations.Add(1)
		}
	}
}

// hosts reports whether member id runs in this cluster value.
func (c *Cluster) hosts(id int) bool { return c.hosted == nil || c.hosted[id] }

// checkCapabilities rejects option/transport mismatches: every feature a
// config requests maps to one Capability, and the selected transport must
// declare it. Errors wrap ErrUnsupported and name the missing capability.
func checkCapabilities(cfg *config, sc *scenario.Scenario) error {
	have := cfg.transport.Capabilities()
	need := func(cap Capability, feature string) error {
		if have.Has(cap) {
			return nil
		}
		return fmt.Errorf("%w: %s needs the %v capability (transport %q declares %v)",
			ErrUnsupported, feature, cap, cfg.transport, have)
	}
	if len(sc.Restarts) > 0 || cfg.churn != nil {
		if err := need(CapChurn, "churn/restart schedules"); err != nil {
			return err
		}
	}
	if cfg.checkSpread {
		if err := need(CapSpreadCheck, "CheckSpread"); err != nil {
			return err
		}
	}
	if cfg.maxEventsSet {
		if err := need(CapEventBudget, "MaxEvents"); err != nil {
			return err
		}
	}
	if cfg.recovery != nil {
		if err := need(CapRecovery, "WithRecovery"); err != nil {
			return err
		}
	}
	if cfg.chaos != nil {
		if err := need(CapChaos, "WithChaos"); err != nil {
			return err
		}
	}
	return nil
}

// buildProcess constructs (or, under churn, reconstructs) process id's
// protocol stack and installs it in the cluster tables. rejoin marks a
// churned incarnation, which — without recovery — adopts its peers' round
// frontier instead of counting from 1. With WithRecovery, the incarnation
// restores its journaled snapshot instead; a missing or corrupt journal
// degrades to exactly that frontier jump (the graceful-degradation ladder's
// last rung), with the typed error recorded for restart's EventRecovery.
func (c *Cluster) buildProcess(id int, rejoin bool) error {
	p := c.sc.Params

	// Resolve recovery first: the restore decision replaces the jump. The
	// shape checks mirror RestoreSnapshot's — a CRC-valid record from a
	// journal of a different cluster is the one corruption a checksum
	// cannot catch.
	var restore *journal.Snapshot
	var recErr error
	if c.cfg.recovery != nil {
		snap, err := c.cfg.recovery.Load(id)
		if err != nil {
			recErr = fmt.Errorf("%w: process %d: %v", ErrCorruptJournal, id, err)
		}
		if snap != nil && (len(snap.Levels) != p.N || snap.RRN < 1 || snap.SRN < 0) {
			recErr = fmt.Errorf("%w: process %d: snapshot shape does not fit this cluster", ErrCorruptJournal, id)
			snap = nil
		}
		restore = snap
	}
	useJump := rejoin && restore == nil

	var omega proc.Node
	switch c.cfg.algo {
	case Fig1, Fig2, Fig3, FG, TimeFree:
		variant, err := core.ParseVariant(string(c.cfg.algo))
		if err != nil {
			return fmt.Errorf("%w: %v", ErrUnknownAlgorithm, err)
		}
		ccfg := core.Config{
			N: p.N, T: p.T, Alpha: p.Alpha,
			Variant:          variant,
			AlivePeriod:      c.cfg.alivePeriod,
			TimeoutUnit:      c.cfg.timeoutUnit,
			Retention:        c.cfg.retention,
			JoinCurrentRound: useJump,
		}
		if variant == core.VariantFG {
			// §7: the algorithm knows f and g (the scenario's).
			ccfg.F = p.F
			ccfg.G = p.G
		}
		node, err := core.NewNode(id, ccfg)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrInvalidParams, err)
		}
		omega = node
		c.cores[id] = node
	case Stable:
		node, err := baseline.NewStable(baseline.StableConfig{
			N:      p.N,
			Period: c.cfg.alivePeriod,
		})
		if err != nil {
			return fmt.Errorf("%w: %v", ErrInvalidParams, err)
		}
		omega = node
		c.cores[id] = nil
	default:
		return fmt.Errorf("%w: %q", ErrUnknownAlgorithm, c.cfg.algo)
	}

	oracle, ok := omega.(proc.LeaderOracle)
	if !ok {
		return fmt.Errorf("%w: algorithm %q exposes no leader oracle", ErrInvalidParams, c.cfg.algo)
	}
	c.oracles[id] = oracle

	// Apply the resolved restore. Stable has no snapshot support: its
	// restarts always take the fresh path.
	cn := c.cores[id]
	if cn == nil {
		restore = nil
	}
	if restore != nil {
		if err := cn.RestoreSnapshot(restore); err != nil {
			// Unreachable while the shape pre-checks above mirror
			// RestoreSnapshot's validation; fail loudly if they drift.
			return fmt.Errorf("%w: %v", ErrInvalidParams, err)
		}
	}
	if rejoin {
		c.incarnations[id]++
	}
	if c.cfg.recovery != nil {
		switch {
		case rejoin && restore != nil:
			c.recStats.restores.Add(1)
			c.recOutcomes[id] = recOutcome{restored: true, round: restore.RRN, err: recErr}
		case rejoin:
			c.recStats.fallbacks.Add(1)
			c.recOutcomes[id] = recOutcome{err: recErr}
		case restore != nil:
			// Initial build restored from a pre-existing journal (a
			// cluster-lifetime restart over a FileJournal).
			c.recStats.restores.Add(1)
		}
	}
	if c.chaosMon != nil {
		if rejoin {
			at := c.engNow()
			c.chaosMon.NoteRestart(at, id)
			if c.cfg.recovery != nil {
				c.chaosMon.NoteRecovery(at, id, recErr)
			}
		}
		if restore != nil {
			// Restore-regression invariant: suspicion state is monotone, so
			// the incarnation must come up with at least the levels its
			// snapshot recorded. RestoreSnapshot only stages the state (the
			// node applies it in Start), so the floor is recorded here and
			// the chaosGuard verifies it right after Start runs.
			c.chaosFloor[id] = append([]int64(nil), restore.Levels...)
		}
	}
	c.timers[id], _ = omega.(interface{ CurrentTimeout() time.Duration })

	endpoint := omega
	if c.cfg.consensusEnabled {
		id := id
		var cons *consensus.Node
		var ab *abcast.Node
		var err error
		onDecide := func(inst, v int64) {
			if c.cfg.onDecide != nil {
				c.cfg.onDecide(id, inst, v)
			}
			c.emit(Event{At: c.engNow(), Kind: EventDecide, Proc: id, Round: inst})
		}
		if c.cfg.abcastEnabled {
			ab, cons, err = abcast.NewPair(abcast.Config{
				N: p.N, T: p.T,
				Oracle:   oracle.Leader,
				OnDecide: onDecide,
				OnDeliver: func(d abcast.Delivery) {
					if c.cfg.onDeliver != nil {
						c.cfg.onDeliver(id, Delivery{Slot: d.Slot, Sender: d.Sender, Payload: d.Payload})
					}
				},
			})
		} else {
			cons, err = consensus.New(consensus.Config{
				N: p.N, T: p.T,
				Oracle:   oracle.Leader,
				OnDecide: onDecide,
			})
		}
		if err != nil {
			return fmt.Errorf("%w: %v", ErrInvalidParams, err)
		}
		c.conss[id] = cons
		c.abs[id] = ab
		mux := proc.NewMux()
		mux.AddLane(omega)
		mux.AddLane(cons)
		if ab != nil {
			mux.AddLane(ab)
		}
		endpoint = mux
	}
	if c.chaosMon != nil {
		// The delivery-invariant shim, stamped with this incarnation; the
		// transports register it in place of the bare node.
		endpoint = &chaosGuard{c: c, id: id, inc: c.incarnations[id], inner: endpoint}
	}
	c.endpoints[id] = endpoint
	return nil
}

// engNow returns cluster time, tolerating calls before the engine exists
// (process construction happens first).
func (c *Cluster) engNow() time.Duration {
	if c.eng == nil {
		return 0
	}
	return c.eng.now()
}

// emit delivers one event to the observer, if its class is observed.
func (c *Cluster) emit(ev Event) {
	if c.cfg.observer != nil && c.cfg.observeMask&ev.Kind != 0 {
		c.cfg.observer(ev)
	}
}

// collect is the sampling tick every engine runs: it records one
// leader sample, feeds the bound tracker and timeout series, and emits the
// sampled event classes. The engine serializes each per-process read.
func (c *Cluster) collect(at time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ls := check.LeaderSample{At: sim.Time(at), Leaders: make([]proc.ID, c.n)}
	for id := 0; id < c.n; id++ {
		p := c.procs[id]
		if p == nil || p.Crashed() {
			ls.Leaders[id] = proc.None
			c.lastLeaders[id] = None
			continue
		}
		p.Lock()
		ls.Leaders[id] = c.oracles[id].Leader()
		var roundAdv int64
		if cn := c.cores[id]; cn != nil {
			c.levelBuf = cn.SuspLevelInto(c.levelBuf)
			c.bounds.Observe(c.levelBuf)
			if c.cfg.algo != TimeFree { // no timer: the series would be all 0
				c.timeoutSeries[id] = append(c.timeoutSeries[id], cn.CurrentTimeout())
			}
			if _, r := cn.Rounds(); r > c.lastRounds[id] {
				c.lastRounds[id] = r
				roundAdv = r
			}
		}
		p.Unlock()
		if roundAdv > 0 {
			c.emit(Event{At: at, Kind: EventRoundAdvance, Proc: id, Round: roundAdv})
		}
		if l := ls.Leaders[id]; l != c.lastLeaders[id] {
			c.lastLeaders[id] = l
			c.emit(Event{At: at, Kind: EventLeaderChange, Proc: id, Leader: l})
		}
	}
	if c.chaosMon != nil {
		// Feed the invariant monitor the same sample: remote members read
		// as up with an unknown leader (the hosted mask keeps them out of
		// the agreement check; their own process monitors them).
		for id := 0; id < c.n; id++ {
			c.chaosDown[id] = c.down(id)
		}
		c.chaosMon.OnSample(at, ls.Leaders, c.chaosDown)
	}
	c.samples = append(c.samples, ls)
	c.emit(Event{At: at, Kind: EventSample, Proc: None})
}

// snapshotAll is the recovery-journal sweep (the SnapshotEvery cadence):
// every live process's core node (all algorithms but Stable) exports its
// state under its engine lock and the state is saved. The save itself runs outside the lock — file I/O must not
// stall protocol callbacks. One scratch snapshot is reused across processes
// and ticks (each engine runs an every action from exactly one context: the
// simulator's event loop, or one wall-clock ticker goroutine).
func (c *Cluster) snapshotAll() {
	if c.cfg.recovery == nil {
		return
	}
	for id := 0; id < c.n; id++ {
		p := c.procs[id]
		if p == nil || p.Crashed() {
			continue
		}
		p.Lock()
		cn := c.cores[id]
		if cn == nil || p.Crashed() {
			p.Unlock()
			continue
		}
		c.scratchSnap.Proc = id
		c.scratchSnap.Incarnation = c.incarnations[id]
		cn.ExportSnapshot(&c.scratchSnap)
		p.Unlock()
		if err := c.cfg.recovery.Save(&c.scratchSnap); err != nil {
			c.recStats.saveErrors.Add(1)
		} else {
			c.recStats.snapshots.Add(1)
		}
	}
}

// N returns the number of processes.
func (c *Cluster) N() int { return c.n }

// Transport names the transport in use ("sim", "live" or "net").
func (c *Cluster) Transport() string { return c.cfg.transport.String() }

// Capabilities returns the transport's declared capability set.
func (c *Cluster) Capabilities() Capability { return c.cfg.transport.Capabilities() }

// ScenarioName returns the assumption family's name; ScenarioDescription a
// one-line human-readable summary.
func (c *Cluster) ScenarioName() string        { return c.sc.Name }
func (c *Cluster) ScenarioDescription() string { return c.sc.Description }

// Now returns elapsed cluster time: virtual on the simulated transport,
// wall on the live one.
func (c *Cluster) Now() time.Duration { return c.eng.now() }

// Run advances the cluster by d — virtual time on the simulated transport
// (returning when the horizon is reached), wall time on the live one
// (sleeping). Call it repeatedly to interleave inspection and control with
// execution.
func (c *Cluster) Run(d time.Duration) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	c.mu.Unlock()
	start := time.Now()
	err := c.eng.run(d)
	c.mu.Lock()
	c.elapsed += time.Since(start)
	c.mu.Unlock()
	return err
}

// Leader returns process id's current leader estimate, or None when the
// process is crashed, hosted by another process (network transport), or id
// is out of range.
func (c *Cluster) Leader(id int) int {
	if id < 0 || id >= c.n || !c.hosts(id) || c.down(id) {
		return None
	}
	c.lock(id)
	defer c.unlock(id)
	return c.oracles[id].Leader()
}

// Leaders returns every process's current leader estimate (None for
// crashed processes).
func (c *Cluster) Leaders() []int {
	out := make([]int, c.n)
	for id := range out {
		out[id] = c.Leader(id)
	}
	return out
}

// Agreement reports whether all live processes currently name the same
// live leader, and that leader. On a partial-topology network cluster only
// the hosted members vote — each process can check agreement over its own
// share; cluster-wide agreement is the launcher's to aggregate.
func (c *Cluster) Agreement() (int, bool) {
	leader := None
	for id := 0; id < c.n; id++ {
		if !c.hosts(id) || c.down(id) {
			continue
		}
		l := c.Leader(id)
		if leader == None {
			leader = l
		} else if l != leader {
			return None, false
		}
	}
	if leader == None || c.down(leader) {
		return None, false
	}
	return leader, true
}

// Crash crashes process id now (crash-stop: it stops sending, receiving
// and firing timers). On a partial-topology network cluster only hosted
// members can be crashed from here; crash a remote member from its own
// process.
func (c *Cluster) Crash(id int) error {
	if id < 0 || id >= c.n || !c.hosts(id) {
		return fmt.Errorf("%w: %d", ErrBadProcess, id)
	}
	c.crash(id)
	return nil
}

// Crashed reports whether process id is currently down; EverCrashed whether
// it ever crashed (a churned process is faulty in the crash-stop model even
// after it returns).
func (c *Cluster) Crashed(id int) bool {
	return id >= 0 && id < c.n && c.down(id)
}

// EverCrashed reports whether process id ever crashed.
func (c *Cluster) EverCrashed(id int) bool {
	return id >= 0 && id < c.n && c.everCrashed[id].Load()
}

// SuspLevel returns a copy of process id's susp_level array (core
// algorithms; nil otherwise). The protocol-table slot is read under the
// process lock: live churn rebuilds the tables from a restart timer
// goroutine, serialized by exactly that lock.
func (c *Cluster) SuspLevel(id int) []int64 {
	if id < 0 || id >= c.n || c.down(id) {
		return nil
	}
	c.lock(id)
	defer c.unlock(id)
	cn := c.cores[id]
	if cn == nil {
		return nil
	}
	return cn.SuspLevel()
}

// CurrentTimeout returns process id's current receiving-round timeout
// (0 for algorithms without timers).
func (c *Cluster) CurrentTimeout(id int) time.Duration {
	if id < 0 || id >= c.n || c.down(id) {
		return 0
	}
	c.lock(id)
	defer c.unlock(id)
	tm := c.timers[id]
	if tm == nil {
		return 0
	}
	return tm.CurrentTimeout()
}

// Rounds returns process id's sending and receiving round numbers (0, 0
// for algorithms without rounds).
func (c *Cluster) Rounds(id int) (sending, receiving int64) {
	if id < 0 || id >= c.n || c.down(id) {
		return 0, 0
	}
	c.lock(id)
	defer c.unlock(id)
	cn := c.cores[id]
	if cn == nil {
		return 0, 0
	}
	return cn.Rounds()
}

// Report computes the domain verdict from everything sampled so far: the
// stabilization analysis over the leader timeline, the Theorem 4 bound
// tracking, timeout stability, and the final per-process state.
func (c *Cluster) Report() *Report {
	c.mu.Lock()
	defer c.mu.Unlock()
	rep := &Report{BoundOK: true, TimeoutsStable: true}
	st := check.AnalyzeLeaders(c.samples, func(id proc.ID) bool { return !c.everCrashed[id].Load() })
	rep.Stabilization = stabilizationFrom(st)
	rep.BoundB = c.bounds.B()
	rep.MaxSuspLevel = c.bounds.MaxEver()
	rep.BoundOK = c.bounds.BoundOK()
	rep.SpreadViolations = c.spreadViolations.Load()
	rep.Net = c.eng.netStats()
	rep.Recovery = RecoveryStats{
		Snapshots:  c.recStats.snapshots.Load(),
		SaveErrors: c.recStats.saveErrors.Load(),
		Restores:   c.recStats.restores.Load(),
		Fallbacks:  c.recStats.fallbacks.Load(),
	}
	rep.FinalTimeouts = make([]time.Duration, c.n)
	rep.LeaderAtEnd = make([]int, c.n)
	rep.FinalLevels = make([][]int64, c.n)
	for id := 0; id < c.n; id++ {
		rep.LeaderAtEnd[id] = None
		p := c.procs[id]
		if p == nil {
			continue
		}
		p.Lock()
		isCore := false
		if !p.Crashed() {
			rep.LeaderAtEnd[id] = c.oracles[id].Leader()
		}
		if cn := c.cores[id]; cn != nil {
			isCore = true
			rep.FinalLevels[id] = cn.SuspLevel()
			rep.FinalTimeouts[id] = cn.CurrentTimeout()
			if _, r := cn.Rounds(); r-1 > rep.RoundsDone {
				rep.RoundsDone = r - 1
			}
		}
		p.Unlock()
		if isCore && !c.everCrashed[id].Load() && !check.TimeoutStable(c.timeoutSeries[id], 0.25) {
			rep.TimeoutsStable = false
		}
	}
	rep.Timeline = make([]LeaderSample, len(c.samples))
	for i, s := range c.samples {
		rep.Timeline[i] = LeaderSample{At: time.Duration(s.At), Leaders: s.Leaders}
	}
	if c.chaosOrch != nil {
		cr := &ChaosReport{
			Violations:      violations(c.chaosMon.Violations()),
			TotalViolations: c.chaosMon.Total(),
		}
		for _, a := range c.chaosOrch.Timeline() {
			cr.Timeline = append(cr.Timeline, ChaosApplied{At: a.At, Desc: a.Desc})
		}
		cr.StepsApplied = len(cr.Timeline)
		rep.Chaos = cr
	}
	return rep
}

// Metrics snapshots the cluster's mechanical counters.
func (c *Cluster) Metrics() Metrics {
	c.mu.Lock()
	elapsed := c.elapsed
	c.mu.Unlock()
	m := Metrics{
		Events:  c.eng.events(),
		Net:     c.eng.netStats(),
		Elapsed: elapsed,
	}
	m.GateHeldWinning, m.GateHeldLose = c.sc.GateStats()
	for id := 0; id < c.n; id++ {
		c.lock(id)
		if cn := c.cores[id]; cn != nil {
			if m.Nodes == nil {
				m.Nodes = make([]NodeMetrics, c.n)
			}
			m.Nodes[id] = nodeMetricsFrom(cn.Metrics())
		}
		c.unlock(id)
	}
	return m
}

// Close releases the cluster: the live transport's goroutines and timers
// are stopped; the simulated transport simply stops accepting Run. Close
// is idempotent; Run after Close returns ErrClosed. State accessors and
// Report keep working on the final state.
func (c *Cluster) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	return c.eng.close()
}
