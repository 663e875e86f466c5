package baseline

import (
	"fmt"
	"time"

	"repro/internal/journal"
	"repro/internal/proc"
	"repro/internal/rounds"
	"repro/internal/wire"
)

// TimeFreeConfig parameterizes TimeFreeNode.
type TimeFreeConfig struct {
	N, T int
	// Alpha is the reception/suspicion threshold; 0 means N-T.
	Alpha int
	// Period is the beacon period; 0 means 10ms.
	Period time.Duration
	// Retention prunes per-round bookkeeping (0 keeps everything).
	Retention int64
	// WindowSlots sizes the round-window ring (see core.Config); 0 means
	// rounds.DefaultSlots.
	WindowSlots int
	// JoinCurrentRound makes the node adopt the round frontier from the
	// first message it receives, mirroring core.Config.JoinCurrentRound:
	// a churned incarnation would otherwise rejoin thousands of beacon
	// rounds behind and starve every survivor's alpha quorum forever —
	// the baseline diverged under churn by construction. Set on restarted
	// incarnations only.
	JoinCurrentRound bool
}

func (c TimeFreeConfig) withDefaults() TimeFreeConfig {
	if c.Alpha == 0 {
		c.Alpha = c.N - c.T
	}
	if c.Period == 0 {
		c.Period = 10 * time.Millisecond
	}
	return c
}

// TimeFreeNode is the query/response-style time-free baseline [16,18]. It
// reuses the ALIVE/SUSPICION wire format of the core algorithm (a beacon
// playing the role of the query's response set) but has NO timers in its
// suspicion path: a receiving round closes as soon as alpha beacons for it
// have been received, and the processes not heard from by then are the
// round's losers. Counters rise when alpha processes suspect the same
// process in the same round, and are gossiped on beacons (pointwise max).
//
// The structural difference from core.Node (Figure 1) is the absence of the
// timer conjunct in the round guard, which is precisely what makes the
// construction time-free — and what makes it unable to exploit δ-timely
// links that do not win reception races.
//
// Round bookkeeping lives in the same ring-window store as the core
// algorithm (internal/rounds) and outgoing beacons/suspicions ride pooled
// payloads, so the hot path allocates nothing in steady state.
type TimeFreeNode struct {
	cfg TimeFreeConfig
	env proc.Env

	sRN, rRN     int64
	counter      []int64
	win          *rounds.Window
	alivePool    wire.AlivePool
	suspPool     wire.SuspicionPool
	maxRoundSeen int64
	prunedBelow  int64
	joined       bool
	crashed      bool

	// restoreSnap, when non-nil, is applied by Start in place of the
	// fresh init (see RestoreSnapshot; mirrors core.Node).
	restoreSnap *journal.Snapshot
}

// NewTimeFree builds the time-free baseline for one process.
func NewTimeFree(cfg TimeFreeConfig) (*TimeFreeNode, error) {
	cfg = cfg.withDefaults()
	if cfg.N < 2 || cfg.N > rounds.MaxN {
		return nil, fmt.Errorf("baseline: N must be in [2,%d], got %d", rounds.MaxN, cfg.N)
	}
	if cfg.Alpha < 2 || cfg.Alpha > cfg.N {
		// Alpha 1 would close rounds instantly with only the local
		// process, livelocking the guard (see core's Zeno note).
		return nil, fmt.Errorf("baseline: Alpha must be in [2,%d], got %d", cfg.N, cfg.Alpha)
	}
	return &TimeFreeNode{
		cfg:         cfg,
		counter:     make([]int64, cfg.N),
		win:         rounds.New(cfg.N, cfg.WindowSlots),
		prunedBelow: 1,
	}, nil
}

// Start implements proc.Node.
func (n *TimeFreeNode) Start(env proc.Env) {
	n.env = env
	n.rRN = 1
	if s := n.restoreSnap; s != nil {
		n.restoreSnap = nil
		n.sRN = s.SRN
		if s.RRN > 1 {
			n.rRN = s.RRN
		}
		copy(n.counter, s.Levels)
		if s.MaxRoundSeen > n.maxRoundSeen {
			n.maxRoundSeen = s.MaxRoundSeen
		}
		// Restored state replaces the frontier jump (see core.Node).
		n.joined = true
		if n.cfg.Retention != 0 {
			if h := n.maxRoundSeen - n.cfg.Retention; h > n.prunedBelow {
				n.prunedBelow = h
			}
		}
	}
	n.beacon()
}

// ExportSnapshot fills s with the baseline's recovery-relevant state: the
// counter vector rides Snapshot.Levels. Proc and Incarnation are the
// caller's to set; Levels reuses s's capacity.
func (n *TimeFreeNode) ExportSnapshot(s *journal.Snapshot) {
	s.SRN = n.sRN
	s.RRN = n.rRN
	s.MaxRoundSeen = n.maxRoundSeen
	if cap(s.Levels) < len(n.counter) {
		s.Levels = make([]int64, len(n.counter))
	}
	s.Levels = s.Levels[:len(n.counter)]
	copy(s.Levels, n.counter)
}

// RestoreSnapshot stages s to be applied at Start (mirrors core.Node).
func (n *TimeFreeNode) RestoreSnapshot(s *journal.Snapshot) error {
	if len(s.Levels) != n.cfg.N {
		return fmt.Errorf("baseline: snapshot has %d levels, config says %d", len(s.Levels), n.cfg.N)
	}
	if s.RRN < 1 || s.SRN < 0 {
		return fmt.Errorf("baseline: snapshot rounds out of range (sRN=%d, rRN=%d)", s.SRN, s.RRN)
	}
	cp := &journal.Snapshot{}
	s.CopyInto(cp)
	n.restoreSnap = cp
	return nil
}

func (n *TimeFreeNode) beacon() {
	n.sRN++
	m := n.alivePool.Get(n.cfg.N)
	m.RN = n.sRN
	copy(m.SuspLevel, n.counter)
	proc.Broadcast(n.env, m)
	n.env.SetTimer(timerBeacon, n.cfg.Period)
}

// OnTimer implements proc.Node.
func (n *TimeFreeNode) OnTimer(key proc.TimerKey) {
	if n.crashed {
		return
	}
	if key != timerBeacon {
		panic(fmt.Sprintf("baseline: unknown timer %d", key))
	}
	n.beacon()
}

// OnMessage implements proc.Node.
func (n *TimeFreeNode) OnMessage(from proc.ID, msg any) {
	if n.crashed {
		return
	}
	switch m := msg.(type) {
	case *wire.Alive:
		n.maybeJoin(m.RN)
		n.onBeacon(from, m)
	case *wire.Suspicion:
		n.maybeJoin(m.RN)
		n.onSuspicion(from, m)
	default:
		panic(fmt.Sprintf("baseline: timefree received %T", msg))
	}
}

// maybeJoin performs the one-shot round synchronization of
// Config.JoinCurrentRound (the core algorithm's rejoin rule, ported): on the
// first message, jump both round counters to the peer's frontier so this
// incarnation's beacons count toward its peers' current rounds again.
func (n *TimeFreeNode) maybeJoin(rn int64) {
	if n.joined || !n.cfg.JoinCurrentRound {
		return
	}
	n.joined = true
	if rn > n.rRN {
		n.rRN = rn
	}
	if rn > n.sRN {
		n.sRN = rn
	}
}

// recRow returns the row holding rec_from[rn], creating it (as {i}) on
// first use.
func (n *TimeFreeNode) recRow(rn int64) *rounds.Row {
	row := n.win.Claim(rn, n.rRN, n.prunedBelow)
	if !row.RecLive {
		row.BeginRec(n.env.ID())
	}
	return row
}

func (n *TimeFreeNode) onBeacon(from proc.ID, m *wire.Alive) {
	n.noteRound(m.RN)
	for k, v := range m.SuspLevel {
		if k < len(n.counter) && v > n.counter[k] {
			n.counter[k] = v
		}
	}
	if m.RN < n.rRN {
		return
	}
	n.recRow(m.RN).Rec.Add(from)
	// Time-free guard: the round closes on alpha receptions alone.
	for {
		cur := n.recRow(n.rRN)
		if cur.Rec.Count() < n.cfg.Alpha {
			return
		}
		sus := n.suspPool.Get(n.cfg.N)
		sus.RN = n.rRN
		sus.Suspects.ComplementFrom(&cur.Rec)
		proc.BroadcastAll(n.env, sus)
		n.win.CompleteRec(n.rRN)
		n.rRN++
	}
}

func (n *TimeFreeNode) onSuspicion(from proc.ID, m *wire.Suspicion) {
	n.noteRound(m.RN)
	row := n.win.Claim(m.RN, n.rRN, n.prunedBelow)
	if !row.SuspLive {
		row.BeginSusp()
	}
	if row.Reported.Contains(from) {
		return
	}
	row.Reported.Add(from)
	counts := row.Counts
	m.Suspects.ForEach(func(k int) {
		counts[k]++
		if int(counts[k]) >= n.cfg.Alpha {
			n.counter[k]++
		}
	})
	n.prune()
	if n.cfg.Retention != 0 && m.RN < n.prunedBelow {
		n.win.DropSusp(m.RN) // match the map implementation's sweep
	}
}

// OnCrash implements proc.Crashable.
func (n *TimeFreeNode) OnCrash() { n.crashed = true }

// Leader implements proc.LeaderOracle: min (counter, id).
func (n *TimeFreeNode) Leader() proc.ID {
	best := 0
	for j := 1; j < n.cfg.N; j++ {
		if n.counter[j] < n.counter[best] {
			best = j
		}
	}
	return best
}

// Rounds returns the current sending and receiving round numbers (used by
// the harness's round probe, mirroring core.Node).
func (n *TimeFreeNode) Rounds() (sRN, rRN int64) { return n.sRN, n.rRN }

// Counters returns a copy of the counter array (for tests and checkers).
func (n *TimeFreeNode) Counters() []int64 {
	out := make([]int64, len(n.counter))
	copy(out, n.counter)
	return out
}

func (n *TimeFreeNode) noteRound(rn int64) {
	if rn > n.maxRoundSeen {
		n.maxRoundSeen = rn
	}
}

func (n *TimeFreeNode) prune() {
	if n.cfg.Retention == 0 {
		return
	}
	horizon := n.maxRoundSeen - n.cfg.Retention
	if horizon <= n.prunedBelow {
		return
	}
	n.prunedBelow = horizon
	n.win.Prune(n.rRN, horizon)
}

var (
	_ proc.Node         = (*TimeFreeNode)(nil)
	_ proc.Crashable    = (*TimeFreeNode)(nil)
	_ proc.LeaderOracle = (*TimeFreeNode)(nil)
)
