package star

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/host"
	"repro/internal/proc"
	"repro/internal/runtime"
	"repro/internal/sim"
	"repro/internal/tcpnet"
)

// wallEngine drives a cluster on real time — the Live transport's goroutine
// runtime or the Network transport's TCP sockets. Its clock runs the
// cluster's timed actions on time.AfterFunc and its periodic ones on ticker
// goroutines; its transport starts the processes at New time (wall clocks do
// not wait) and stops them at Close, after every timer and ticker.
//
// The engine hands the cluster hosted members only (Cluster.hosts). Live
// hosts all of them; a Network cluster may host a subset (the rest run in
// other processes on the shared topology, each executing its own share of a
// cluster-wide schedule).
type wallEngine struct {
	c     *Cluster
	stats func() host.Stats
	stop  func() // tears the transport down, after everything that uses it

	start  time.Time
	timers []*time.Timer // one per at call

	quit    chan struct{}
	tickers sync.WaitGroup // the sampler and, with WithRecovery, the snapshot goroutine

	mu     sync.Mutex
	closed bool

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
	cfg.OnDeliver = c.spreadHook()
	rt, err := runtime.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidParams, err)
	}
	return newWallEngine(c, rt.Process, rt.Stats, func() error { rt.Start(); return nil }, rt.Stop)
}

// newNetEngine hosts the transport's HostMembers over TCP. Delays and loss
// come from the real network plus, with WithChaos, the cluster's chaos
// faults, each process of a multi-process cluster running its own copy of
// the schedule over its outbound links. Without chaos Policy stays a nil
// interface, so no frame pays for an Admit/Delay call.
func newNetEngine(c *Cluster, t *netTransport) (engine, error) {
	p := c.sc.Params
	if len(t.addrs) != p.N {
		return nil, fmt.Errorf("%w: Network got %d addresses for N=%d", ErrInvalidParams, len(t.addrs), p.N)
	}
	cfg := tcpnet.Config{N: p.N, Addrs: t.addrs, Local: t.local}
	if c.chaosFaults != nil {
		cfg.Policy = c.chaosFaults
	}
	tc, err := tcpnet.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidParams, err)
	}
	return newWallEngine(c, tc.Process, tc.Stats, tc.Start, func() {
		// Drain in-flight link writers with a bounded grace before teardown:
		// frames already popped from a queue get their write out instead of
		// racing Stop's connection close (best effort — a dead peer's open
		// breaker drains immediately).
		tc.Drain(250 * time.Millisecond)
		tc.Stop()
	})
}

func newWallEngine(c *Cluster, process func(proc.ID) *host.Process, stats func() host.Stats, start func() error, stop func()) (engine, error) {
	e := &wallEngine{
		c:     c,
		stats: stats,
		stop:  stop,
		start: time.Now(),
		quit:  make(chan struct{}),
	}
	for id := 0; id < c.n; id++ {
		if c.hosts(id) {
			c.adopt(id, process(id))
		}
	}
	// Install the engine before the processes start: their callbacks reach
	// c.eng through emit and the chaos guard. New keeps this assignment (it
	// re-checks for nil only).
	c.eng = e
	if err := start(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidParams, err)
	}
	return e, nil
}

// at runs f at engine time t unless the engine has closed by then; a
// callback that got past the closed check holds off close until it returns,
// so close never tears the host down under a firing action. Only New calls
// at (through Cluster.schedule), so timers needs no lock.
func (e *wallEngine) at(t time.Duration, f func()) {
	e.timers = append(e.timers, time.AfterFunc(t-e.now(), func() {
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

func (e *wallEngine) events() uint64 { return 0 }

func (e *wallEngine) netStats() NetStats { return netStatsFrom(e.stats()) }

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
