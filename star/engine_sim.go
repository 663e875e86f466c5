package star

import (
	"fmt"
	"time"

	"repro/internal/netsim"
	"repro/internal/proc"
	"repro/internal/sim"
)

// simEngine drives a cluster on the deterministic discrete-event simulator:
// its clock is the scheduler and its links the simulated network, whose
// members are host.Process values on the scheduler's clock. Everything —
// message delays, order gates, the cluster's schedules and sampling tick —
// happens in virtual time inside Run, on the caller's goroutine.
type simEngine struct {
	c     *Cluster
	sched *sim.Scheduler
	net   *netsim.Network
}

func newSimEngine(c *Cluster) (*simEngine, error) {
	p := c.sc.Params
	sched := sim.NewScheduler()
	net, err := netsim.New(sched, netsim.Config{
		N:      p.N,
		Seed:   p.Seed,
		Policy: c.sc.Policy,
		Gate:   c.sc.Gate,
	})
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidParams, err)
	}
	e := &simEngine{c: c, sched: sched, net: net}

	for id := 0; id < p.N; id++ {
		c.adopt(id, net.Process(id))
	}

	// Wire the adversary's introspection probes. The scenario's order and
	// lose adversaries observe the system through these; consumers of the
	// public API never see them.
	c.sc.SetCrashedProbe(net.Crashed)
	c.sc.SetChurnEpochProbe(c.churnEpoch.Load)
	c.sc.SetRoundProbe(func(q proc.ID) int64 {
		if rd := c.rounders[q]; rd != nil {
			_, r := rd.Rounds()
			return r
		}
		return -1
	})
	c.sc.SetLeaderProbe(func() proc.ID {
		// The adversary observes the leader estimate of the lowest-id
		// correct process and chases it.
		for id := 0; id < p.N; id++ {
			if !net.Crashed(id) {
				return c.oracles[id].Leader()
			}
		}
		return proc.None
	})
	c.sc.SetTimeoutProbe(func() time.Duration {
		var max time.Duration
		for id := 0; id < p.N; id++ {
			if net.Crashed(id) {
				continue
			}
			if tp := c.timers[id]; tp != nil {
				if to := tp.CurrentTimeout(); to > max {
					max = to
				}
			}
		}
		return max
	})

	// Staggered starts: processes boot within [0, DefaultStartSpread].
	jitter := sim.NewRand(p.Seed ^ 0x737461727453)
	for id := 0; id < p.N; id++ {
		net.StartAt(id, sim.Time(jitter.Duration(0, DefaultStartSpread)))
	}

	// The chaos link-fault state plugs into the network's send path; the
	// cluster schedules the timeline's actions on this engine's clock.
	if c.chaosFaults != nil {
		net.SetLinkFault(c.chaosFaults)
	}
	if hook := c.spreadHook(); hook != nil {
		net.OnDeliver = func(ev *netsim.Envelope) { hook(ev.To) }
	}
	return e, nil
}

func (e *simEngine) run(d time.Duration) error {
	horizon := e.sched.Now().Add(d)
	for e.sched.Now() < horizon {
		e.sched.Run(horizon)
		if e.sched.Processed > e.c.cfg.maxEvents {
			return fmt.Errorf("%w: %d events executed at %v",
				ErrEventBudget, e.sched.Processed, time.Duration(e.sched.Now()))
		}
		if e.sched.Pending() == 0 {
			break
		}
	}
	return nil
}

func (e *simEngine) now() time.Duration { return time.Duration(e.sched.Now()) }

// at and every fire inside the event loop, at exact virtual times, so a
// run — chaos timeline included — stays a pure function of (options, seed).
func (e *simEngine) at(t time.Duration, f func()) { e.sched.At(sim.Time(t), f) }

func (e *simEngine) every(period time.Duration, f func()) {
	var tick func()
	tick = func() {
		f()
		e.sched.After(period, tick)
	}
	e.sched.After(period, tick)
}

func (e *simEngine) events() uint64     { return e.sched.Processed }
func (e *simEngine) netStats() NetStats { return netStatsFrom(e.net.Stats()) }
func (e *simEngine) close() error       { return nil }

var _ engine = (*simEngine)(nil)
