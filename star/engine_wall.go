package star

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/check"
	"repro/internal/host"
	"repro/internal/proc"
	"repro/internal/runtime"
	"repro/internal/sim"
	"repro/internal/tcpnet"
)

// wallHost is what the wall-clock engine drives: a transport cluster whose
// members are host.Process values. internal/runtime and internal/tcpnet both
// are; how they start and stop differs and is passed to newWallEngine.
type wallHost interface {
	Register(id proc.ID, node proc.Node)
	Crash(id proc.ID)
	Crashed(id proc.ID) bool
	Restart(id proc.ID, build func() proc.Node) bool
	LockProcess(id proc.ID)
	UnlockProcess(id proc.ID)
	Stats() host.Stats
}

// wallEngine drives a cluster on real time — the Live transport's goroutine
// runtime or the Network transport's TCP sockets: wall-clock timers inside
// the host, the scenario's crash/restart schedule and the chaos timeline on
// time.AfterFunc, a sampling goroutine and (with WithRecovery) a snapshot
// ticker. It starts the processes at New time (wall clocks do not wait) and
// samples until Close.
//
// The engine acts on hosted members only (Cluster.hosts). Live hosts all of
// them; a Network cluster may host a subset (the rest run in other processes
// on the shared topology, each executing its own share of a cluster-wide
// schedule), and for a remote member lock/unlock, crash and restart are
// no-ops and crashed reads false.
type wallEngine struct {
	c    *Cluster
	host wallHost
	stop func() // tears the host down, after everything that uses it

	start  time.Time
	timers []*time.Timer // schedule and chaos timers

	quit    chan struct{}
	tickers sync.WaitGroup // the sampler and, with WithRecovery, the snapshot goroutine

	mu             sync.Mutex
	everCrashedSet []bool
	closed         bool

	// pending tracks timer callbacks (crashes, restarts, chaos actions) that
	// passed the closed check and are executing; close waits for them before
	// stopping the host (time.Timer.Stop does not).
	pending sync.WaitGroup
}

// newLiveEngine hosts every member on the goroutine runtime, with seeded
// link delays from the scenario's asynchronous base range (spikes included).
// The assumption machinery — stars, order gates, adversaries — is
// simulator-only; a live network is plainly asynchronous.
func newLiveEngine(c *Cluster) (engine, error) {
	p := c.sc.Params
	rng := sim.NewRand(p.Seed ^ 0x6c697665)
	var rngMu sync.Mutex
	cfg := runtime.Config{N: p.N, Delay: func(from, to int, msg any) time.Duration {
		rngMu.Lock()
		defer rngMu.Unlock()
		if rng.Bool(p.SpikeProb) {
			return rng.Duration(p.SpikeLo, p.SpikeHi)
		}
		return rng.Duration(p.BaseLo, p.BaseHi)
	}}
	if c.chaosFaults != nil {
		cfg.Fault = c.chaosFaults
	}
	if c.cfg.checkSpread {
		// Lemma 8 spread checking per delivery. The hook runs with the
		// receiving process's callback lock held, so reading that node's
		// susp_level is already serialized; spreadMu only guards the shared
		// scratch buffer across receivers.
		var spreadMu sync.Mutex
		var spreadBuf []int64
		cfg.OnDeliver = func(to proc.ID) {
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
	rt, err := runtime.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidParams, err)
	}
	return newWallEngine(c, rt, func() error { rt.Start(); return nil }, rt.Stop)
}

// newNetEngine hosts the transport's HostMembers over TCP. Delays and loss
// come from the real network plus the installed LinkPolicy; chaos link
// faults compose with it (both must admit, delays add), each process of a
// multi-process cluster running its own copy of the schedule over its
// outbound links.
func newNetEngine(c *Cluster, t *netTransport) (engine, error) {
	p := c.sc.Params
	if len(t.addrs) != p.N {
		return nil, fmt.Errorf("%w: Network got %d addresses for N=%d", ErrInvalidParams, len(t.addrs), p.N)
	}
	cfg := tcpnet.Config{N: p.N, Addrs: t.addrs, Local: t.local}
	if t.policy != nil {
		cfg.Policy = t.policy.faults
	}
	if c.chaosFaults != nil {
		cfg.Policy = tcpnet.ChainPolicies(cfg.Policy, c.chaosFaults)
	}
	tc, err := tcpnet.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidParams, err)
	}
	return newWallEngine(c, tc, tc.Start, func() {
		// Drain in-flight link writers with a bounded grace before teardown:
		// frames already popped from a queue get their write out instead of
		// racing Stop's connection close (best effort — a dead peer's open
		// breaker drains immediately).
		tc.Drain(250 * time.Millisecond)
		tc.Stop()
	})
}

func newWallEngine(c *Cluster, h wallHost, start func() error, stop func()) (engine, error) {
	n := c.sc.Params.N
	e := &wallEngine{
		c:              c,
		host:           h,
		stop:           stop,
		start:          time.Now(),
		quit:           make(chan struct{}),
		everCrashedSet: make([]bool, n),
	}
	for id := 0; id < n; id++ {
		if c.hosts(id) {
			h.Register(id, c.endpoints[id])
		}
	}
	// Install the engine before anything concurrent (sampler, schedule
	// timers) can observe the cluster: both reach c.eng through collect and
	// emit. New keeps this assignment (it re-checks for nil only).
	c.eng = e
	if err := start(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidParams, err)
	}

	// The scenario's crash and churn schedules and the chaos timeline. A
	// restart rebuilds the process exactly like the simulated transport —
	// fresh state plus the round-frontier jump. Steps aimed at remote
	// members no-op inside crash/restart.
	for _, cr := range c.sc.Crashes {
		id := cr.ID
		e.schedule(time.Duration(cr.At), func() { e.crash(id) })
	}
	for _, r := range c.sc.Restarts {
		id := r.ID
		e.schedule(time.Duration(r.At), func() { e.restart(id) })
	}
	if c.chaosOrch != nil {
		for _, a := range c.chaosOrch.Actions() {
			e.schedule(a.At, func() { a.Fire(e.now()) })
		}
	}

	// The sampling goroutine: collect drives the same analysis pipeline as
	// the simulated transport, at wall-clock granularity, over the hosted
	// members.
	e.every(c.cfg.sampleEvery, func() { c.collect(e.now()) })

	// The recovery-journal cadence, on its own goroutine: the sweep exports
	// under the per-process callback locks and saves outside them, so
	// journal I/O never stalls protocol callbacks.
	if c.cfg.recovery != nil {
		e.every(c.cfg.snapshotEvery, c.snapshotAll)
	}
	return e, nil
}

// schedule runs f at engine time at unless the engine has closed by then; a
// callback that got past the closed check holds off close until it returns,
// so close never tears the host down under a firing action.
func (e *wallEngine) schedule(at time.Duration, f func()) {
	e.timers = append(e.timers, time.AfterFunc(at, func() {
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			return
		}
		e.pending.Add(1)
		e.mu.Unlock()
		defer e.pending.Done()
		f()
	}))
}

// every starts a goroutine that calls f each period until close, which
// waits for it.
func (e *wallEngine) every(period time.Duration, f func()) {
	e.tickers.Add(1)
	go func() {
		defer e.tickers.Done()
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-e.quit:
				return
			case <-t.C:
				f()
			}
		}
	}()
}

func (e *wallEngine) capabilities() Capability { return e.c.cfg.transport.Capabilities() }

func (e *wallEngine) run(d time.Duration) error {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-e.quit:
		return ErrClosed
	}
}

func (e *wallEngine) now() time.Duration { return time.Since(e.start) }

// lock/unlock serialize the caller against a hosted member's callbacks via
// its host.Process lock, so protocol state reads are race-free.
func (e *wallEngine) lock(id int) {
	if e.c.hosts(id) {
		e.host.LockProcess(id)
	}
}

func (e *wallEngine) unlock(id int) {
	if e.c.hosts(id) {
		e.host.UnlockProcess(id)
	}
}

func (e *wallEngine) crash(id int) {
	if !e.c.hosts(id) {
		return
	}
	e.mu.Lock()
	e.everCrashedSet[id] = true
	e.mu.Unlock()
	e.host.Crash(id)
	if e.c.chaosMon != nil {
		e.c.chaosMon.NoteCrash(e.now(), id)
	}
	// Serialize the emission with the sampler's (the collector mutex is the
	// wall-clock observer serialization point).
	e.c.mu.Lock()
	e.c.emit(Event{At: e.now(), Kind: EventCrash, Proc: id})
	e.c.mu.Unlock()
}

// restart brings a churned member back as a fresh incarnation. The rebuild
// runs inside the host's Restart, i.e. while the process's callback lock is
// held, which makes the cluster-table swap atomic with respect to samplers,
// accessors and the spread hook.
func (e *wallEngine) restart(id int) {
	if !e.c.hosts(id) {
		return
	}
	ok := e.host.Restart(id, func() proc.Node {
		if err := e.c.buildProcess(id, true); err != nil {
			panic(fmt.Sprintf("star: rebuilding process %d: %v", id, err))
		}
		return e.c.endpoints[id]
	})
	if !ok {
		return
	}
	// The recovery outcome was recorded by buildProcess inside Restart
	// (same goroutine); emit it before the restart event, serialized with
	// the sampler's emissions by the collector mutex.
	e.c.mu.Lock()
	if e.c.cfg.recovery != nil {
		out := e.c.recOutcomes[id]
		e.c.emit(Event{At: e.now(), Kind: EventRecovery, Proc: id, Round: out.round, Err: out.err})
	}
	e.c.emit(Event{At: e.now(), Kind: EventRestart, Proc: id})
	e.c.mu.Unlock()
}

func (e *wallEngine) crashed(id int) bool { return e.c.hosts(id) && e.host.Crashed(id) }

func (e *wallEngine) everCrashed(id int) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.everCrashedSet[id]
}

func (e *wallEngine) events() uint64 { return 0 }

func (e *wallEngine) netStats() NetStats { return netStatsFrom(e.host.Stats()) }

func (e *wallEngine) close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	e.mu.Unlock()
	for _, t := range e.timers {
		t.Stop()
	}
	e.pending.Wait()
	close(e.quit)
	e.tickers.Wait()
	e.stop()
	return nil
}

var _ engine = (*wallEngine)(nil)
