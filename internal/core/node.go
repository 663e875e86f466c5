package core

import (
	"fmt"
	"time"

	// Imported for its inline bodies: the hot paths call *bitset.Set methods
	// through rounds.Row and the wire payloads, and the compiler inlines
	// only methods of packages this package imports.
	_ "repro/internal/bitset"
	"repro/internal/journal"
	"repro/internal/proc"
	"repro/internal/rounds"
	"repro/internal/wire"
)

// Timer keys used by the node.
const (
	// TimerAlive drives task T1 (the periodic ALIVE broadcast).
	TimerAlive proc.TimerKey = 0
	// TimerRound is the receiving-round timer of task T2 (line 8/11).
	TimerRound proc.TimerKey = 1
)

// guardLoopBudget bounds the synchronous receiving-round catch-up loop; it
// is never reached in a sane configuration and exists to turn a Zeno
// configuration bug into a loud failure instead of a hang.
const guardLoopBudget = 1 << 20

// Metrics counts node-local events of interest to the experiments.
type Metrics struct {
	AliveSent      uint64 // ALIVE broadcasts performed (task T1 ticks)
	SuspicionsSent uint64 // SUSPICION broadcasts performed (guard firings)
	RoundsDone     int64  // receiving rounds completed
	Increments     uint64 // susp_level increments (line 17)
	MaxSuspLevel   int64  // largest susp_level entry ever held
	MaxTimeout     time.Duration
	LateAlive      uint64 // ALIVE messages discarded because rn < r_rn
	DupSuspicion   uint64 // duplicated SUSPICION messages ignored

	// Ring-window health: rounds whose data was evicted to the overflow
	// map, and lookups served by it. Both ~0 in non-adversarial runs;
	// growth means the round skew exceeded Config.WindowSlots and the
	// store degraded (correctly) to map behaviour.
	WindowEvictions uint64
	WindowOverflow  uint64
}

// Node is one process of the paper's algorithm. Create with NewNode, then
// register it with a transport; the transport drives it via the proc.Node
// interface. All methods are invoked serially by the transport.
type Node struct {
	cfg Config
	env proc.Env

	sRN int64 // s_rn_i: last sending round used by task T1
	rRN int64 // r_rn_i: current receiving round of task T2

	suspLevel []int64 // susp_level_i[0..n)

	// win holds all round-indexed bookkeeping — rec_from_i[rn] (senders
	// heard in time, always including the node itself), suspicions_i[rn]
	// (distinct-reporter counts per target) and the SUSPICION dedup set —
	// in a ring of rows recycled as rounds advance, with an exact
	// overflow map for out-of-window rounds. See internal/rounds.
	win *rounds.Window

	// alivePool and suspPool recycle outgoing payloads (and their
	// susp_level snapshots / suspect bitsets); the transport returns a
	// payload when its last delivery completes.
	alivePool wire.AlivePool
	suspPool  wire.SuspicionPool

	// timerExpired mirrors "timer_i has expired" for the current round.
	timerExpired bool

	// joined records that the one-shot JoinCurrentRound synchronization
	// already ran (see Config.JoinCurrentRound).
	joined bool

	// Running extrema of suspLevel, maintained incrementally so the hot
	// paths never rescan the array: levels never decrease within an
	// incarnation, so maxLevel is exact forever, and minLevel/minCount
	// (the current minimum and how many entries hold it) only need an
	// O(n) rescan when the global minimum itself increases — which
	// happens at most B+1 times per run (Theorem 4), so the amortized
	// per-event cost is O(1). minTestOK (line "**", per suspect per
	// SUSPICION) and roundTimeout (line 11, per completed round) were
	// ~15-30% of large-n CPU as full scans.
	minLevel int64
	minCount int
	maxLevel int64

	// maxRoundSeen is the newest round appearing in any received
	// message; drives Retention pruning.
	maxRoundSeen int64

	// prunedBelow is the horizon actually applied by the last prune:
	// rounds below it hold no suspicion data. Evictions use it (not the
	// live horizon) so that ring behaviour matches the map
	// implementation's prune timing exactly.
	prunedBelow int64

	// lastTimeout is the value the round timer was last armed with,
	// kept for observability (Theorem 4: timeouts stabilize).
	lastTimeout time.Duration

	// restoreSnap, when non-nil, is applied by Start in place of the
	// paper's init block (see RestoreSnapshot).
	restoreSnap *journal.Snapshot

	crashed bool
	metrics Metrics
}

// NewNode builds a node for process id with the given configuration.
func NewNode(id proc.ID, cfg Config) (*Node, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if id < 0 || id >= cfg.N {
		return nil, fmt.Errorf("core: id %d out of range [0,%d)", id, cfg.N)
	}
	// The node's identity comes from its Env at Start; the id parameter
	// exists so misconfiguration fails at construction time.
	n := &Node{
		cfg:         cfg,
		suspLevel:   make([]int64, cfg.N),
		minCount:    cfg.N,
		win:         rounds.New(cfg.N, cfg.WindowSlots),
		prunedBelow: 1,
	}
	return n, nil
}

// Config returns the node's defaulted configuration.
func (n *Node) Config() Config { return n.cfg }

// Metrics returns a snapshot of the node-local counters.
func (n *Node) Metrics() Metrics {
	m := n.metrics
	st := n.win.Stats()
	m.WindowEvictions = st.Evictions
	m.WindowOverflow = st.OverflowHits
	return m
}

// Start implements proc.Node. It performs the paper's "init" block: round
// counters at their initial values, susp_level all zero, the round timer
// armed, and the first ALIVE broadcast scheduled immediately. When a
// snapshot was staged by RestoreSnapshot, Start applies it instead: round
// counters and levels resume where the previous incarnation's journal left
// them, and no frontier jump is needed.
func (n *Node) Start(env proc.Env) {
	if env.N() != n.cfg.N {
		panic(fmt.Sprintf("core: env has %d processes, config says %d", env.N(), n.cfg.N))
	}
	n.env = env
	if s := n.restoreSnap; s != nil {
		n.restoreSnap = nil
		n.applySnapshot(s)
		n.armRoundTimer(n.roundTimeout())
		n.aliveTick()
		return
	}
	n.sRN = 0
	n.rRN = 1
	// "set timer_i to 0": the initial round timeout is the floor.
	n.armRoundTimer(n.cfg.MinTimeout)
	// Task T1 starts immediately.
	n.aliveTick()
}

// applySnapshot installs a journal snapshot as the node's initial state.
func (n *Node) applySnapshot(s *journal.Snapshot) {
	n.sRN = s.SRN
	n.rRN = s.RRN
	if n.rRN < 1 {
		n.rRN = 1
	}
	copy(n.suspLevel, s.Levels)
	for _, v := range n.suspLevel {
		if v > n.metrics.MaxSuspLevel {
			n.metrics.MaxSuspLevel = v
		}
	}
	n.rescanExtrema()
	if s.MaxRoundSeen > n.maxRoundSeen {
		n.maxRoundSeen = s.MaxRoundSeen
	}
	// Restored state IS the frontier context a jump would approximate;
	// suppress the one-shot JoinCurrentRound synchronization.
	n.joined = true
	// Re-derive the pruning horizon under the restored frontier so the
	// window does not carry a stale (too-low) horizon into old rounds.
	if n.cfg.Retention != 0 {
		if h := n.maxRoundSeen - n.cfg.Retention; h > n.prunedBelow {
			n.prunedBelow = h
		}
	}
}

// ExportSnapshot fills s with the node's recovery-relevant state. Proc and
// Incarnation are the caller's to set; Levels reuses s's capacity (callers
// keep one scratch snapshot across processes and ticks).
func (n *Node) ExportSnapshot(s *journal.Snapshot) {
	s.SRN = n.sRN
	s.RRN = n.rRN
	s.MaxRoundSeen = n.maxRoundSeen
	if cap(s.Levels) < len(n.suspLevel) {
		s.Levels = make([]int64, len(n.suspLevel))
	}
	s.Levels = s.Levels[:len(n.suspLevel)]
	copy(s.Levels, n.suspLevel)
}

// RestoreSnapshot stages s to be applied when the transport starts the node
// (Start owns the init sequence, so restoring cannot race or precede the
// env). It validates shape only — a CRC-valid snapshot from a journal of a
// different cluster is the one corruption CRCs cannot catch.
func (n *Node) RestoreSnapshot(s *journal.Snapshot) error {
	if len(s.Levels) != n.cfg.N {
		return fmt.Errorf("core: snapshot has %d levels, config says %d", len(s.Levels), n.cfg.N)
	}
	if s.RRN < 1 || s.SRN < 0 {
		return fmt.Errorf("core: snapshot rounds out of range (sRN=%d, rRN=%d)", s.SRN, s.RRN)
	}
	cp := &journal.Snapshot{}
	s.CopyInto(cp)
	n.restoreSnap = cp
	return nil
}

// OnCrash implements proc.Crashable.
func (n *Node) OnCrash() { n.crashed = true }

// Leader implements the paper's leader() primitive (lines 19-21): the
// process with the lexicographically smallest (susp_level, id) pair —
// i.e. the lowest id currently holding the minimum level.
func (n *Node) Leader() proc.ID {
	for j := 0; j < n.cfg.N; j++ {
		if n.suspLevel[j] == n.minLevel {
			return proc.ID(j)
		}
	}
	return 0 // unreachable: minLevel is always held by someone
}

// SuspLevel returns a copy of the susp_level array (for checkers).
func (n *Node) SuspLevel() []int64 {
	out := make([]int64, len(n.suspLevel))
	copy(out, n.suspLevel)
	return out
}

// SuspLevelInto copies the susp_level array into dst (grown if needed) and
// returns it. Checker hot paths use it to observe every delivery without
// allocating a fresh snapshot per event.
func (n *Node) SuspLevelInto(dst []int64) []int64 {
	if cap(dst) < len(n.suspLevel) {
		dst = make([]int64, len(n.suspLevel))
	}
	dst = dst[:len(n.suspLevel)]
	copy(dst, n.suspLevel)
	return dst
}

// Rounds returns the current sending and receiving round numbers.
func (n *Node) Rounds() (sRN, rRN int64) { return n.sRN, n.rRN }

// CurrentTimeout returns the value the round timer was last armed with.
func (n *Node) CurrentTimeout() time.Duration { return n.lastTimeout }

// OnTimer implements proc.Node.
func (n *Node) OnTimer(key proc.TimerKey) {
	if n.crashed {
		return
	}
	switch key {
	case TimerAlive:
		n.aliveTick()
	case TimerRound:
		n.timerExpired = true
		n.checkGuard()
	default:
		panic(fmt.Sprintf("core: unknown timer key %d", key))
	}
}

// aliveTick is one iteration of task T1 (lines 1-3).
func (n *Node) aliveTick() {
	n.sRN++
	n.metrics.AliveSent++
	// Snapshot susp_level: the message must carry the values at send
	// time (the array keeps mutating afterwards). The snapshot rides a
	// pooled payload that returns here when its last delivery completes.
	m := n.alivePool.Get(n.cfg.N)
	m.RN = n.sRN
	copy(m.SuspLevel, n.suspLevel)
	proc.Broadcast(n.env, m)
	n.env.SetTimer(TimerAlive, n.cfg.AlivePeriod)
}

// OnMessage implements proc.Node.
func (n *Node) OnMessage(from proc.ID, msg any) {
	if n.crashed {
		return
	}
	switch m := msg.(type) {
	case *wire.Alive:
		n.maybeJoin(m.RN)
		n.onAlive(from, m)
	case *wire.Suspicion:
		n.maybeJoin(m.RN)
		n.onSuspicion(from, m)
	default:
		panic(fmt.Sprintf("core: unexpected message %T", msg))
	}
}

// maybeJoin performs the one-shot round synchronization of
// Config.JoinCurrentRound: on the first message, jump both round counters
// to the peer's frontier so the rejoined incarnation's ALIVEs count toward
// its peers' current rounds again.
func (n *Node) maybeJoin(rn int64) {
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

// onAlive handles lines 4-7.
func (n *Node) onAlive(from proc.ID, m *wire.Alive) {
	n.noteRound(m.RN)
	// Line 5: pointwise maximum merge of the gossiped susp_level.
	for k, v := range m.SuspLevel {
		if k < len(n.suspLevel) && v > n.suspLevel[k] {
			n.setSuspLevel(k, v)
		}
	}
	// Line 6: record reception unless the round is already over.
	if m.RN >= n.rRN {
		n.recFromRow(m.RN).Rec.Add(from)
		n.checkGuard()
	} else {
		n.metrics.LateAlive++
	}
}

// onSuspicion handles lines 13-18 including the variant-specific tests.
func (n *Node) onSuspicion(from proc.ID, m *wire.Suspicion) {
	n.noteRound(m.RN)
	row := n.win.Claim(m.RN, n.rRN, n.prunedBelow)
	if !row.SuspLive {
		row.BeginSusp()
	}
	if row.Reported.Contains(from) {
		n.metrics.DupSuspicion++
		return
	}
	row.Reported.Add(from)

	counts := row.Counts
	m.Suspects.ForEach(func(k int) {
		counts[k]++ // line 15
		if int(counts[k]) < n.cfg.Alpha {
			return // line 16 threshold not reached
		}
		if !n.windowTestOK(m.RN, k) {
			return // line "*" (Figures 2/3, §7)
		}
		if !n.minTestOK(k) {
			return // line "**" (Figure 3, §7)
		}
		n.setSuspLevel(k, n.suspLevel[k]+1) // line 17
		n.metrics.Increments++
	})
	n.prune()
	if n.cfg.Retention != 0 && m.RN < n.prunedBelow {
		// The row was (re)created behind an already-applied horizon by
		// this very message; the map implementation's per-message sweep
		// would delete it now, so the next report for this round starts
		// from scratch again.
		n.win.DropSusp(m.RN)
	}
}

// windowTestOK evaluates line "*": p_k must have been suspected by >= alpha
// processes in every round of the window [rn - susp_level[k] - F(rn), rn).
// VariantFig1 has no window test.
func (n *Node) windowTestOK(rn int64, k int) bool {
	if n.cfg.Variant == VariantFig1 {
		return true
	}
	low := rn - n.suspLevel[k]
	if n.cfg.Variant == VariantFG {
		low -= n.cfg.F(rn)
	}
	if low < 1 {
		low = 1 // rounds are numbered from 1 (see package docs)
	}
	for x := low; x < rn; x++ {
		row := n.win.Get(x)
		if row == nil || !row.SuspLive || int(row.Counts[k]) < n.cfg.Alpha {
			return false
		}
	}
	return true
}

// minTestOK evaluates line "**": susp_level[k] must currently be the array
// minimum. Only Figure 3 and the §7 variant apply it. O(1): the running
// minimum is maintained by setSuspLevel.
func (n *Node) minTestOK(k int) bool {
	if n.cfg.Variant != VariantFig3 && n.cfg.Variant != VariantFG {
		return true
	}
	return n.suspLevel[k] <= n.minLevel
}

// checkGuard evaluates the line-8 guard and completes as many receiving
// rounds as are enabled (lines 9-12). It is invoked after every event that
// can enable the guard: round-timer expiry and ALIVE reception.
func (n *Node) checkGuard() {
	for i := 0; ; i++ {
		if i == guardLoopBudget {
			panic("core: receiving-round guard livelock (Zeno configuration?)")
		}
		if !n.timerExpired {
			return
		}
		row := n.recFromRow(n.rRN)
		if row.Rec.Count() < n.cfg.Alpha {
			return
		}
		// Line 9: suspects are the processes not heard from. The set
		// rides a pooled payload (recycled by the transport after its
		// last delivery), computed in place — no per-round clone.
		sus := n.suspPool.Get(n.cfg.N)
		sus.RN = n.rRN
		sus.Suspects.ComplementFrom(&row.Rec)
		// Line 10: tell everybody, including ourselves.
		n.metrics.SuspicionsSent++
		proc.BroadcastAll(n.env, sus)
		// Line 11: re-arm the timer from the suspicion levels.
		n.armRoundTimer(n.roundTimeout())
		// Line 12: move to the next receiving round; the completed
		// round's reception row is dead (line 6 discards late ALIVEs).
		n.win.CompleteRec(n.rRN)
		n.rRN++
		n.metrics.RoundsDone++
	}
}

// roundTimeout computes the line-11 timer value: max susp_level, scaled,
// plus G(r_rn+1) for the §7 variant, floored by MinTimeout.
func (n *Node) roundTimeout() time.Duration {
	d := time.Duration(n.maxLevel) * n.cfg.TimeoutUnit
	if n.cfg.Variant == VariantFG {
		d += n.cfg.G(n.rRN + 1)
	}
	if d < n.cfg.MinTimeout {
		d = n.cfg.MinTimeout
	}
	return d
}

var _ proc.Node = (*Node)(nil)
var _ proc.Crashable = (*Node)(nil)
var _ proc.LeaderOracle = (*Node)(nil)

// armRoundTimer (re)arms the receiving-round timer with value d and resets
// the expiry flag (line 11 plus the init block's "set timer_i").
func (n *Node) armRoundTimer(d time.Duration) {
	n.lastTimeout = d
	if d > n.metrics.MaxTimeout {
		n.metrics.MaxTimeout = d
	}
	n.timerExpired = false
	n.env.SetTimer(TimerRound, d)
}

// recFromRow returns the row holding rec_from_i[rn], creating it (as {i})
// on first use.
func (n *Node) recFromRow(rn int64) *rounds.Row {
	row := n.win.Claim(rn, n.rRN, n.prunedBelow)
	if !row.RecLive {
		row.BeginRec(n.env.ID())
	}
	return row
}

// setSuspLevel raises susp_level[k] to v (values never decrease; line 5
// merges by max and line 17 increments), maintaining the running extrema.
func (n *Node) setSuspLevel(k int, v int64) {
	old := n.suspLevel[k]
	if v <= old {
		return
	}
	n.suspLevel[k] = v
	if v > n.maxLevel {
		n.maxLevel = v
	}
	if old == n.minLevel {
		if n.minCount--; n.minCount == 0 {
			n.rescanMin()
		}
	}
	if v > n.metrics.MaxSuspLevel {
		n.metrics.MaxSuspLevel = v
	}
	if n.cfg.OnIncrement != nil {
		n.cfg.OnIncrement(k, v)
	}
}

// rescanMin recomputes minLevel/minCount after the last minimum-holding
// entry was raised. Runs only when the global minimum increases — at most
// B+1 times per run — so the scan amortizes to O(1) per event.
func (n *Node) rescanMin() {
	min := n.suspLevel[0]
	for _, v := range n.suspLevel[1:] {
		if v < min {
			min = v
		}
	}
	count := 0
	for _, v := range n.suspLevel {
		if v == min {
			count++
		}
	}
	n.minLevel = min
	n.minCount = count
}

// rescanExtrema recomputes all running extrema from scratch (snapshot
// restore is the only path that writes suspLevel without setSuspLevel).
func (n *Node) rescanExtrema() {
	n.rescanMin()
	max := n.suspLevel[0]
	for _, v := range n.suspLevel[1:] {
		if v > max {
			max = v
		}
	}
	n.maxLevel = max
}

// noteRound tracks the newest round seen in any message, for pruning.
func (n *Node) noteRound(rn int64) {
	if rn > n.maxRoundSeen {
		n.maxRoundSeen = rn
	}
}

// prune drops bookkeeping rows older than the retention horizon.
func (n *Node) prune() {
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
