// Package baseline implements the heartbeat/timeout Ω construction the
// paper positions itself against, used as a comparison point in the
// coverage experiments (EXPERIMENTS.md, experiment C1-COVERAGE):
//
//   - StableNode ("stable"): a heartbeat/timeout leader elector in the style
//     of Larrea, Fernández & Arévalo [14]: each process trusts the senders
//     whose heartbeats arrive within an adaptive per-sender timeout and
//     elects the smallest trusted id. Correct when the eventual leader's
//     output links to all correct processes are eventually timely; it fails
//     under the eventual t-source model (where only t links are timely) and
//     under the time-free message-pattern model (no timing at all).
//
// The other classical construction, the time-free message pattern of
// Mostéfaoui, Mourgaya & Raynal [16,18], is Figure 1 without its round
// timer and runs as core.VariantTimeFree.
package baseline

import (
	"fmt"
	"time"

	"repro/internal/proc"
	"repro/internal/wire"
)

// Timer keys.
const (
	timerBeacon proc.TimerKey = 0 // periodic heartbeat broadcast
	timerSweep  proc.TimerKey = 1 // periodic timeout sweep
)

// StableConfig parameterizes StableNode.
type StableConfig struct {
	N int
	// Period is the heartbeat period; 0 means 10ms. Each per-sender
	// freshness timeout starts at 2*Period and grows by Period/2 on every
	// false suspicion.
	Period time.Duration
}

func (c StableConfig) withDefaults() StableConfig {
	if c.Period == 0 {
		c.Period = 10 * time.Millisecond
	}
	return c
}

// StableNode is the heartbeat/timeout baseline. It needs no gossip: each
// process's trusted set converges on its own when all links from the
// eventual leader are eventually timely.
type StableNode struct {
	cfg StableConfig
	env proc.Env

	seq      int64
	lastSeen []time.Duration // local receipt time of freshest heartbeat
	timeout  []time.Duration // adaptive per-sender timeouts
	trusted  []bool
	hbPool   wire.HeartbeatPool // recycled beacon payloads
	crashed  bool
}

// NewStable builds the stable baseline for one process.
func NewStable(cfg StableConfig) (*StableNode, error) {
	cfg = cfg.withDefaults()
	if cfg.N < 2 {
		return nil, fmt.Errorf("baseline: N must be >= 2, got %d", cfg.N)
	}
	return &StableNode{cfg: cfg}, nil
}

// Start implements proc.Node.
func (s *StableNode) Start(env proc.Env) {
	s.env = env
	n := env.N()
	s.lastSeen = make([]time.Duration, n)
	s.timeout = make([]time.Duration, n)
	s.trusted = make([]bool, n)
	now := env.Now()
	for i := 0; i < n; i++ {
		s.lastSeen[i] = now
		s.timeout[i] = 2 * s.cfg.Period
		s.trusted[i] = true
	}
	s.beacon()
	s.env.SetTimer(timerSweep, s.cfg.Period)
}

func (s *StableNode) beacon() {
	s.seq++
	hb := s.hbPool.Get()
	hb.Seq = s.seq
	proc.Broadcast(s.env, hb)
	s.env.SetTimer(timerBeacon, s.cfg.Period)
}

// OnMessage implements proc.Node.
func (s *StableNode) OnMessage(from proc.ID, msg any) {
	if s.crashed {
		return
	}
	if _, ok := msg.(*wire.Heartbeat); !ok {
		panic(fmt.Sprintf("baseline: stable received %T", msg))
	}
	s.lastSeen[from] = s.env.Now()
	if !s.trusted[from] {
		// False suspicion detected: trust again with a longer leash.
		s.trusted[from] = true
		s.timeout[from] += s.cfg.Period / 2
	}
}

// OnTimer implements proc.Node.
func (s *StableNode) OnTimer(key proc.TimerKey) {
	if s.crashed {
		return
	}
	switch key {
	case timerBeacon:
		s.beacon()
	case timerSweep:
		now := s.env.Now()
		for i := range s.trusted {
			if i == s.env.ID() {
				continue
			}
			if s.trusted[i] && now-s.lastSeen[i] > s.timeout[i] {
				s.trusted[i] = false
			}
		}
		s.env.SetTimer(timerSweep, s.cfg.Period)
	default:
		panic(fmt.Sprintf("baseline: unknown timer %d", key))
	}
}

// OnCrash implements proc.Crashable.
func (s *StableNode) OnCrash() { s.crashed = true }

// CurrentTimeout returns the largest per-sender timeout currently in use;
// the scenario adversary's timeout probe reads it to stay ahead of the
// algorithm's calibration.
func (s *StableNode) CurrentTimeout() time.Duration {
	var max time.Duration
	for _, to := range s.timeout {
		if to > max {
			max = to
		}
	}
	return max
}

// Leader implements proc.LeaderOracle: the smallest trusted id (self is
// always trusted). Before Start it returns process 0 (everyone initially
// trusted), so probes may call it at any time.
func (s *StableNode) Leader() proc.ID {
	if s.env == nil {
		return 0
	}
	for i := 0; i < s.env.N(); i++ {
		if i == s.env.ID() || s.trusted[i] {
			return i
		}
	}
	return s.env.ID()
}

var (
	_ proc.Node         = (*StableNode)(nil)
	_ proc.Crashable    = (*StableNode)(nil)
	_ proc.LeaderOracle = (*StableNode)(nil)
)
