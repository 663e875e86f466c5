package scenario

import (
	"container/heap"

	"repro/internal/netsim"
	"repro/internal/proc"
	"repro/internal/rounds"
	"repro/internal/sim"
)

// winningGate enforces the paper's order-level message properties exactly:
//
//   - The "winning message" property (Definition 2): for every (receiver q,
//     round rn) constrained as ModeWinning, the center's round-rn message is
//     delivered to q before the (alpha-1)-th other round-rn message, so the
//     receiving algorithm is guaranteed to count it inside its first alpha-1
//     receptions.
//
//   - The "losing message" adversary (ModeLose, and the rotating victim of
//     RotateLoseVictims): the attacked sender's round-rn message is held
//     until the receiver's receiving round has moved past rn, so the message
//     is neither timely nor winning — the minimal violation of A2 that pure
//     asynchrony permits. Delay-based attacks cannot achieve this: receiving
//     rounds lag ever further behind sending rounds (the dynamic proved in
//     the paper's Claim C1), so every bounded-ahead delay eventually lands
//     "in time" again. The receiver's current round is supplied by the round
//     probe (SetRoundProbe); without a probe the lose constraint falls back
//     to the delay policy's probe-scaled delays.
//
// The gate holds messages rather than tuning delays: both properties are
// purely about order, so this realizes them exactly even under unbounded
// delays (the time-free character of the message-pattern assumption [16]).
//
// Budget note: the algorithms complete a round after alpha receptions
// including the receiver itself, i.e. after alpha-1 messages. For the
// center's message to be counted it must arrive among the first alpha-1
// messages, so at most alpha-2 others may precede it.
//
// Storage: the per-(receiver, round) state lives in one rounds.Ring per
// receiver (rn mod gateRingSlots, entries recycled in place), not in a
// round-keyed map — at large n the gate's map churn was the last per-message
// allocation source on the hot path. Entries still carrying held messages
// when a newer round claims their slot are moved to an exact overflow map
// (rounds.Ring's keep callback), so holds are never lost; settled entries
// (center delivered, competitors counted) are recycled, and messages tagged
// with rounds more than the ring width behind the frontier pass the gate
// unconstrained — the receiving algorithms discard such stale rounds at
// arrival, so ordering them is moot.
type winningGate struct {
	params   Params
	schedule StarSchedule
	limit    int // max others delivered before the center's message

	// crashed, when set, reports whether a process crashed; a crashed
	// center releases its constraints (A2 case (1)) and messages to
	// crashed receivers are not held.
	crashed func(proc.ID) bool

	// roundProbe, when set, returns a process's current receiving round
	// (or a negative value when unknown); it powers the lose holds.
	roundProbe func(proc.ID) int64

	// leaderProbe, when set, returns the adversary's observation of the
	// current leader (the chase target); see SetLeaderProbe.
	leaderProbe func() proc.ID

	// epochProbe, when set, returns the cluster's churn epoch (bumped on
	// every crash/restart). The lose budget depends only on the crashed
	// set, so its value is cached per epoch instead of rescanning all n
	// processes on every arrival and delivery.
	epochProbe  func() uint64
	cachedEpoch uint64
	budgetValid bool
	budget      int

	state      []*rounds.Ring[gateEntry] // per receiver, indexed by rn
	loseHeld   []holdHeap                // per receiver
	lastBudget int
	maxRN      int64
	pruneLT    int64

	// Metrics (exposed via Scenario.GateStats).
	holdsWinning, holdsLose uint64
}

// loseHold is an envelope under a lose constraint, with its budget rank and
// round tag.
type loseHold struct {
	ev   *netsim.Envelope
	rank int
	rn   int64
}

// holdHeap orders held envelopes by round tag so that releases (round
// passed) pop from the top in O(log n).
type holdHeap []loseHold

func (h holdHeap) Len() int           { return len(h) }
func (h holdHeap) Less(i, j int) bool { return h[i].rn < h[j].rn }
func (h holdHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *holdHeap) Push(x any)        { *h = append(*h, x.(loseHold)) }
func (h *holdHeap) Pop() any          { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }

// gateEntry is the order bookkeeping for one (receiver, round) pair.
type gateEntry struct {
	centerDone bool
	others     int32
	loseHolds  int32 // distinct senders currently lose-held for this round
	held       []*netsim.Envelope
}

// live reports whether the entry still owns messages that must eventually be
// released; such entries survive slot eviction and overflow pruning.
func (e *gateEntry) live() bool { return len(e.held) > 0 || e.loseHolds > 0 }

// recycle prepares the entry for a new round, keeping the held slice's
// capacity.
func (e *gateEntry) recycle() {
	e.centerDone = false
	e.others = 0
	e.loseHolds = 0
	e.held = e.held[:0]
}

// gateRingSlots is the per-receiver ring width: it must exceed the round
// skew between in-flight message tags and the frontier in every execution
// that still consults the entries (receivers discard rounds behind their
// receiving round, so deeper history has no observable order).
const gateRingSlots = 256

// gateRetention bounds how many rounds of overflow state are kept behind the
// newest observed round. Held messages are never pruned: an entry with holds
// is released first (center crash, round passage or delivery), so pruning
// only removes settled entries far behind the frontier.
const gateRetention = 4096

func newWinningGate(p Params, schedule StarSchedule, alpha int) *winningGate {
	limit := alpha - 2
	if limit < 0 {
		limit = 0
	}
	state := make([]*rounds.Ring[gateEntry], p.N)
	for i := range state {
		state[i] = rounds.NewRing(gateRingSlots, (*gateEntry).recycle, (*gateEntry).live)
	}
	return &winningGate{
		params:     p,
		schedule:   schedule,
		limit:      limit,
		state:      state,
		loseHeld:   make([]holdHeap, p.N),
		lastBudget: p.N, // recomputed on first use
	}
}

// Reliability note: a held message is released when the receiver's round
// passes its tag (always finite — the hold budget keeps enough senders free
// for rounds to keep closing) or when the budget shrinks below the hold's
// rank (a crash happened after the hold was taken). No wall-clock backstop
// is needed, and none may be used: receiving rounds lag sending rounds
// without bound, so any fixed time-to-live would eventually release
// messages back INTO their round and quietly disarm the adversary.

// loseBudget returns how many senders the lose adversary may starve per
// receiver without deadlocking receiving rounds: a round needs alpha
// receptions (self plus alpha-1 others) out of n-1-crashed live senders, so
// at most n - alpha - crashed senders can be held back. The center's lose
// constraint has priority rank 1, the rotating victim rank 2.
func (g *winningGate) loseBudget() int {
	if g.epochProbe != nil {
		if ep := g.epochProbe(); g.budgetValid && ep == g.cachedEpoch {
			return g.budget
		} else {
			g.cachedEpoch = ep
		}
	}
	crashed := 0
	if g.crashed != nil {
		for id := 0; id < g.params.N; id++ {
			if g.crashed(id) {
				crashed++
			}
		}
	}
	b := g.params.N - g.params.Alpha - crashed
	g.budget = b
	g.budgetValid = true
	return b
}

// stale reports whether round rn is too far behind the frontier for its
// reception order to matter: the entry's slot has been recycled, and every
// receiving algorithm discards messages that many rounds behind.
func (g *winningGate) stale(rn int64) bool {
	return rn+gateRingSlots <= g.maxRN
}

// OnArrival implements netsim.Gate.
func (g *winningGate) OnArrival(ev *netsim.Envelope, now sim.Time) bool {
	if ev.Released {
		return true // never re-hold
	}
	rn, ok := RoundTag(ev.Payload)
	if !ok {
		return true
	}
	g.note(rn)
	center := g.schedule.Center()
	if ev.To == center || ev.From == ev.To {
		return true
	}
	if g.crashed != nil && (g.crashed(center) || g.crashed(ev.To)) {
		return true
	}
	if g.stale(rn) {
		return true
	}

	// Lose holds: the attacked sender's round-rn message must miss the
	// receiver's round-rn guard. Per (receiver, round), only as many
	// DISTINCT senders may be held as round progress allows (loseBudget)
	// — the chase target moves over time, so without this cap messages
	// from several successive targets could pile onto one round and
	// starve it, which would be message loss, not delay.
	if g.roundProbe != nil {
		budget := g.loseBudget()
		if rank := g.loseRank(ev, rn); rank > 0 && rank <= budget {
			e := g.state[ev.To].Claim(rn)
			if int(e.loseHolds) >= budget {
				return true // round's starvation budget exhausted
			}
			if r := g.roundProbe(ev.To); r >= 0 && rn >= r {
				g.holdsLose++
				e.loseHolds++
				heap.Push(&g.loseHeld[ev.To], loseHold{ev: ev, rank: rank, rn: rn})
				return false
			}
			return true
		}
	}

	// Winning holds: competitors wait for the center's message.
	if ev.From == center || g.schedule.Mode(rn, ev.To) != ModeWinning {
		return true
	}
	e := g.state[ev.To].Claim(rn)
	if e.centerDone || int(e.others) < g.limit {
		return true
	}
	g.holdsWinning++
	e.held = append(e.held, ev)
	return false
}

// loseRank returns 0 when ev is not under a lose constraint, 1 for the
// center's attackable messages (out-of-S rounds, or unconstrained receivers
// while the center is the chased leader), 2 for the chased leader's
// messages. The rank doubles as a priority against the hold budget.
func (g *winningGate) loseRank(ev *netsim.Envelope, rn int64) int {
	chased := proc.None
	if g.params.RotateLoseVictims && g.leaderProbe != nil {
		chased = g.leaderProbe()
	}
	if ev.From == g.schedule.Center() {
		switch g.schedule.Mode(rn, ev.To) {
		case ModeLose:
			return 1
		case ModeNone:
			if chased == ev.From {
				return 1
			}
		}
		return 0
	}
	if chased == ev.From {
		return 2
	}
	return 0
}

// decLose undoes one lose-hold count on (to, rn), dropping the entry when
// nothing else keeps it alive (so released overflow entries free their
// storage instead of waiting for the retention sweep).
func (g *winningGate) decLose(to proc.ID, rn int64) {
	e := g.state[to].Get(rn)
	if e == nil {
		return
	}
	if e.loseHolds--; e.loseHolds <= 0 {
		e.loseHolds = 0
		if !e.centerDone && e.others == 0 && len(e.held) == 0 {
			g.state[to].Drop(rn)
		}
	}
}

// OnDelivered implements netsim.Gate.
func (g *winningGate) OnDelivered(ev *netsim.Envelope, now sim.Time) []*netsim.Envelope {
	var out []*netsim.Envelope
	// Lose releases: anything whose round the receiver has moved past
	// (heap-ordered, so only the releasable prefix is touched), plus a
	// full sweep when the budget shrank (a crash happened).
	if g.roundProbe != nil {
		if hh := &g.loseHeld[ev.To]; hh.Len() > 0 {
			r := g.roundProbe(ev.To)
			for hh.Len() > 0 && (r < 0 || (*hh)[0].rn < r) {
				h := heap.Pop(hh).(loseHold)
				g.decLose(ev.To, h.rn)
				out = append(out, h.ev)
			}
		}
		if budget := g.loseBudget(); budget < g.lastBudget {
			g.lastBudget = budget
			// Sweep receivers in id order: releases append to out, so
			// iteration order here leaks into delivery order and must be
			// deterministic.
			for to := proc.ID(0); to < proc.ID(g.params.N); to++ {
				hh := &g.loseHeld[to]
				if hh.Len() == 0 {
					continue
				}
				keep := (*hh)[:0]
				for _, h := range *hh {
					if h.rank > budget {
						g.decLose(to, h.rn)
						out = append(out, h.ev)
					} else {
						keep = append(keep, h)
					}
				}
				*hh = keep
				heap.Init(hh)
			}
		} else if budget > g.lastBudget {
			g.lastBudget = budget
		}
	}

	rn, ok := RoundTag(ev.Payload)
	if !ok {
		return out
	}
	if g.schedule.Mode(rn, ev.To) == ModeWinning {
		if g.stale(rn) {
			// The round is long dead: no new bookkeeping. But a very
			// late center delivery must still free anything held before
			// the round went stale — held envelopes survive eviction
			// precisely so this release works (link reliability).
			if ev.From == g.schedule.Center() {
				if e := g.state[ev.To].Get(rn); e != nil && len(e.held) > 0 {
					e.centerDone = true
					out = append(out, e.held...)
					e.held = e.held[:0]
					if e.loseHolds == 0 {
						g.state[ev.To].Drop(rn)
					}
				}
			}
			return out
		}
		e := g.state[ev.To].Claim(rn)
		if ev.From == g.schedule.Center() {
			e.centerDone = true
			out = append(out, e.held...)
			e.held = e.held[:0]
		} else {
			e.others++
		}
	}
	return out
}

// note advances the frontier and, rarely, sweeps settled overflow entries
// behind the retention horizon (live entries are spared by the rings' keep
// callback).
func (g *winningGate) note(rn int64) {
	if rn <= g.maxRN {
		return
	}
	g.maxRN = rn
	horizon := g.maxRN - gateRetention
	if horizon <= g.pruneLT {
		return
	}
	for _, ring := range g.state {
		ring.PruneOverflow(horizon)
	}
	g.pruneLT = horizon
}

var _ netsim.Gate = (*winningGate)(nil)
