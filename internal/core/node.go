package core

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/bitset"
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

	// BelowHorizon counts where bounded retention may differ from the
	// paper's unbounded history: SUSPICIONs whose round is below the
	// applied horizon (their tally row was, or is now, pruned) and window
	// tests (line "*") that reach below it. Always 0 under Retention 0.
	BelowHorizon uint64

	// Ring-window health: rounds whose data was evicted to the overflow
	// map, and lookups and claims served by it. Both 0 while every live
	// round fits the ring; growth means the round skew exceeded
	// Config.WindowSlots and the store degraded (correctly) to map
	// behaviour. The window test of line "*" is one lookup per round it
	// reads, and under Figure 3 and §7 it runs only for targets that
	// passed line "**", so WindowOverflow depends on the variant.
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
	// heard in time, always including the node itself) and
	// suspicions_i[rn] (a tally of distinct reporters per target,
	// saturating at alpha, with the SUSPICION dedup set) — in a ring of
	// rows recycled as rounds advance, with an exact overflow map for
	// out-of-window rounds. See internal/rounds. It is held by value, so
	// the allocation a separate Window would take pays for the hits and
	// atMin sets instead.
	win rounds.Window

	// hits is scratch for one SUSPICION: its suspects whose count has
	// reached alpha (lines 15-16).
	hits bitset.Set

	// alivePool and suspPool recycle outgoing payloads (and their
	// susp_level snapshots / suspect bitsets); the transport returns a
	// payload when its last delivery completes.
	alivePool wire.AlivePool
	suspPool  wire.SuspicionPool

	// timerExpired mirrors "timer_i has expired" for the current round;
	// always true under VariantTimeFree, which has no timer.
	timerExpired bool

	// joined records that the one-shot JoinCurrentRound synchronization
	// already ran (see Config.JoinCurrentRound).
	joined bool

	// Running extrema of suspLevel, maintained incrementally so the hot
	// paths never rescan the array: levels never decrease within an
	// incarnation, so maxLevel is exact forever, and minLevel and atMin
	// (the current minimum and the set of entries holding it) only need
	// an O(n) rescan when the global minimum itself increases — which
	// happens at most B+1 times per run (Theorem 4), so the amortized
	// per-event cost is O(1). Line "**" (per SUSPICION) and roundTimeout
	// (line 11, per completed round) were ~15-30% of large-n CPU as full
	// scans. atMin is line "**" as a mask over a SUSPICION's hits, and its
	// lowest member is leader().
	minLevel int64
	maxLevel int64
	atMin    bitset.Set

	// prunedBelow is the horizon actually applied by the last prune:
	// rounds below it hold no suspicion data. Evictions use it (not the
	// live horizon), so a ring eviction never drops a row the last prune
	// kept and the node observes the same whatever WindowSlots is. Under
	// Retention 0 it stays 1: the paper's unbounded history, which
	// star's TestUnboundedRetentionMatchesDefault compares the default
	// retention against.
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
		prunedBelow: 1,
	}
	n.win.Init(cfg.N, cfg.WindowSlots)
	words := make([]uint64, 2*bitset.WordsFor(cfg.N))
	n.hits, words = bitset.Carve(cfg.N, words)
	n.atMin, _ = bitset.Carve(cfg.N, words)
	n.atMin.Fill()
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
	n.armRoundTimer(minTimeout)
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
	// Restored state IS the frontier context a jump would approximate;
	// suppress the one-shot JoinCurrentRound synchronization.
	n.joined = true
	// Re-derive the pruning horizon from the restored receiving round and
	// levels so the window does not carry a stale (too-low) horizon into
	// old rounds.
	n.prune()
}

// ExportSnapshot fills s with the node's recovery-relevant state. Proc and
// Incarnation are the caller's to set; Levels reuses s's capacity (callers
// keep one scratch snapshot across processes and ticks).
func (n *Node) ExportSnapshot(s *journal.Snapshot) {
	s.SRN = n.sRN
	s.RRN = n.rRN
	s.MaxRoundSeen = 0 // not part of core's state (see journal.Snapshot)
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
func (n *Node) Leader() proc.ID { return proc.ID(n.atMin.Min()) }

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

// CurrentTimeout returns the value the round timer was last armed with (0
// under VariantTimeFree).
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
	row := n.win.Claim(m.RN, n.rRN, n.prunedBelow)
	if !row.SuspLive {
		row.BeginSusp()
	}
	// Lines 15-16: count the suspects; hits are those now at alpha.
	if !row.Susp.Add(from, n.cfg.Alpha, m.Suspects, &n.hits) {
		n.metrics.DupSuspicion++
		return
	}
	// Lines "*" and "**" are pure, so "**" filters first, as a mask the
	// walk re-reads after every increment: a raise that lifts the
	// minimum changes the outcome for the later hits exactly as testing
	// each in turn would. Until alpha reporters agree, a SUSPICION has
	// no hit at all.
	if pass := n.minTestOK(); !n.hits.Empty() {
		for k := n.hits.NextAnd(pass, 0); k >= 0; k = n.hits.NextAnd(pass, k+1) {
			if n.windowTestOK(m.RN, k) { // line "*" (Figures 2/3, §7)
				n.setSuspLevel(k, n.suspLevel[k]+1) // line 17
				n.metrics.Increments++
			}
		}
	}
	n.prune()
	if n.cfg.Retention != 0 && m.RN < n.prunedBelow {
		// The row was (re)created behind the applied horizon by this very
		// message. Drop it again, so rows below the horizon stay pruned
		// and never pile up reports: the next one for this round starts
		// from scratch. Unbounded history (Retention 0) would count it,
		// hence BelowHorizon.
		n.metrics.BelowHorizon++
		n.win.DropSusp(m.RN)
	}
}

// windowTestOK evaluates line "*": p_k must have been suspected by >= alpha
// processes in every round of the window [rn - susp_level[k] - F(rn), rn).
// VariantFig1 and VariantTimeFree have no window test.
func (n *Node) windowTestOK(rn int64, k int) bool {
	if n.cfg.Variant == VariantFig1 || n.cfg.Variant == VariantTimeFree {
		return true
	}
	low := rn - n.suspLevel[k]
	if n.cfg.Variant == VariantFG {
		low -= n.cfg.F(rn)
	}
	if low < 1 {
		low = 1 // rounds are numbered from 1 (see package docs)
	}
	if low < n.prunedBelow {
		n.metrics.BelowHorizon++ // reads rows bounded retention dropped
	}
	for x := low; x < rn; x++ {
		row := n.win.Get(x)
		if row == nil || !row.SuspLive || !row.Susp.Reached(k) {
			return false
		}
	}
	return true
}

// minTestOK returns the targets that pass line "**": those whose
// susp_level is currently the array minimum. Only Figure 3 and the §7
// variant apply it; the others pass every hit. The set is maintained by
// setSuspLevel and rescanMin, so reading it costs nothing.
func (n *Node) minTestOK() *bitset.Set {
	if n.cfg.Variant != VariantFig3 && n.cfg.Variant != VariantFG {
		return &n.hits
	}
	return &n.atMin
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
// plus G(r_rn+1) for the §7 variant, floored by minTimeout.
func (n *Node) roundTimeout() time.Duration {
	d := time.Duration(n.maxLevel) * n.cfg.TimeoutUnit
	if n.cfg.Variant == VariantFG {
		d += n.cfg.G(n.rRN + 1)
	}
	if d < minTimeout {
		d = minTimeout
	}
	return d
}

var _ proc.Node = (*Node)(nil)
var _ proc.Crashable = (*Node)(nil)
var _ proc.LeaderOracle = (*Node)(nil)

// armRoundTimer (re)arms the receiving-round timer with value d and resets
// the expiry flag (line 11 plus the init block's "set timer_i"). The
// time-free variant has no timer: its line-8 guard is the reception count
// alone, so the flag stays set and the timeout stays 0.
func (n *Node) armRoundTimer(d time.Duration) {
	if n.cfg.Variant == VariantTimeFree {
		n.timerExpired = true
		return
	}
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
		n.atMin.Remove(k)
		if n.atMin.Empty() {
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

// rescanMin recomputes minLevel and atMin after the last
// minimum-holding entry was raised. Runs only when the global minimum
// increases — at most B+1 times per run — so the scan amortizes to O(1) per
// event.
func (n *Node) rescanMin() {
	n.minLevel = slices.Min(n.suspLevel)
	n.atMin.Clear()
	for k, v := range n.suspLevel {
		if v == n.minLevel {
			n.atMin.Add(k)
		}
	}
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

// horizon is the lowest round a later message can still read: a SUSPICION
// lagging the receiving round by up to Retention rounds, plus the reach of
// its window test (line "*"), which reads susp_level[k] + F(rn) rounds back
// under Figures 2 and 3 and §7 and nothing under Figure 1 and the time-free
// variant. maxLevel bounds every level, and §7's F is non-decreasing, so
// F(r_rn) bounds F at any round that lags r_rn.
func (n *Node) horizon() int64 {
	h := n.rRN - n.cfg.Retention
	switch n.cfg.Variant {
	case VariantFig2, VariantFig3:
		h -= n.maxLevel
	case VariantFG:
		h -= n.maxLevel + n.cfg.F(n.rRN)
	}
	return h
}

// prune drops bookkeeping rows below the retention horizon.
func (n *Node) prune() {
	if n.cfg.Retention == 0 {
		return
	}
	h := n.horizon()
	if h <= n.prunedBelow {
		return
	}
	n.prunedBelow = h
	n.win.Prune(n.rRN, h)
}
