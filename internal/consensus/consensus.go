// Package consensus implements the Ω-based indulgent consensus of the
// paper's Theorem 5: "consensus can be solved in any message-passing
// asynchronous system with a majority of correct processes and an
// intermittent rotating t-star". The algorithm is the classic leader-driven
// ballot protocol (Paxos-style single-decree, in the family of the
// leader-based consensus algorithms the paper cites [8,12,17]), multi-
// instance so that a total-order broadcast can run on top (internal/abcast).
//
// Structure per instance:
//
//   - Proposers are driven by the Ω oracle: a process attempts a ballot only
//     while the oracle names it leader, and retries with a higher ballot on
//     a timer until a decision is learned. Several simultaneous "leaders"
//     are safe (ballots totally ordered); a single eventual leader makes the
//     protocol live — this is exactly the indulgence property of §1.1.
//   - Acceptors maintain (promised, accepted, value); quorums are majorities
//     (the Theorem 5 requirement t < n/2).
//   - Decisions are broadcast and are idempotent; processes answer ballot
//     messages for decided instances with the decision (catch-up).
//
// Safety (agreement, validity) holds regardless of the oracle's behaviour;
// only termination depends on Ω's eventual leadership — the defining
// property of an indulgent algorithm [7].
package consensus

import (
	"fmt"
	"time"

	"repro/internal/proc"
	"repro/internal/wire"
)

// timerRetry drives proposer retries.
const timerRetry proc.TimerKey = 0

// retryPeriod is how often an undecided proposer re-examines its duty (and
// escalates its ballot).
const retryPeriod = 100 * time.Millisecond

// Config parameterizes a consensus node.
type Config struct {
	N, T int

	// Oracle returns the current Ω leader hint; typically the Leader
	// method of a co-hosted core.Node. Required.
	Oracle func() proc.ID

	// OnDecide, when non-nil, is invoked exactly once per instance at
	// the moment this process learns the decision.
	OnDecide func(instance, value int64)
}

// Validate reports configuration errors (Theorem 5 needs t < n/2).
func (c Config) Validate() error {
	if c.N < 2 {
		return fmt.Errorf("consensus: N must be >= 2, got %d", c.N)
	}
	if c.T < 0 || 2*c.T >= c.N {
		return fmt.Errorf("consensus: need a majority of correct processes (t < n/2), got n=%d t=%d", c.N, c.T)
	}
	if c.Oracle == nil {
		return fmt.Errorf("consensus: Oracle is required")
	}
	return nil
}

// instance is the per-instance protocol state.
type instance struct {
	// Acceptor state.
	promised    wire.Ballot
	accepted    wire.Ballot
	acceptedVal int64
	hasAccepted bool

	// Proposer state.
	proposal    int64
	hasProposal bool
	ballot      wire.Ballot // current attempt (zero when idle)
	phase       int         // 0 idle, 1 collecting promises, 2 collecting accepts
	votes       []bool      // per-process vote flags for the current phase
	nvotes      int         // number of set flags (quorum check)
	chosenVal   int64       // value being pushed in phase 2
	pickBallot  wire.Ballot // highest accepted ballot seen among promises
	pickVal     int64
	pickHas     bool

	// Learner state.
	decided    bool
	decidedVal int64
}

// Node is a multi-instance consensus participant.
type Node struct {
	cfg Config
	env proc.Env

	instances map[int64]*instance
	// Outgoing payload pools; the transport recycles a payload when its
	// last delivery completes (see internal/wire's pooling contract).
	preparePool  wire.PreparePool
	promisePool  wire.PromisePool
	acceptPool   wire.AcceptPool
	acceptedPool wire.AcceptedPool
	decidePool   wire.DecidePool
	// order lists instance ids in creation order. The retry loop iterates
	// it instead of the map: map iteration order is randomized per run,
	// which would make ballot launch order — and hence the whole message
	// schedule — nondeterministic under identical seeds.
	order      []int64
	maxCounter int64 // highest ballot counter seen anywhere (for escalation)
	crashed    bool

	// Metrics.
	Ballots  uint64 // ballots started
	Nacks    uint64 // NACKs received
	Decide2B uint64 // decisions learned
}

// New builds a consensus node.
func New(cfg Config) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Node{cfg: cfg, instances: make(map[int64]*instance)}, nil
}

// quorum returns the majority size.
func (n *Node) quorum() int { return n.cfg.N/2 + 1 }

// Start implements proc.Node.
func (n *Node) Start(env proc.Env) {
	n.env = env
	env.SetTimer(timerRetry, retryPeriod)
}

// OnCrash implements proc.Crashable.
func (n *Node) OnCrash() { n.crashed = true }

// Propose submits a value for an instance. The first proposal wins locally;
// re-proposing a different value for the same instance is ignored (callers
// sequence their own values). Proposing for a decided instance is a no-op.
func (n *Node) Propose(inst, value int64) {
	if n.crashed {
		return
	}
	st := n.inst(inst)
	if st.hasProposal || st.decided {
		return
	}
	st.proposal = value
	st.hasProposal = true
	n.maybeLead(inst, st)
}

// Decided returns the decided value for an instance, if known.
func (n *Node) Decided(inst int64) (int64, bool) {
	st, ok := n.instances[inst]
	if !ok || !st.decided {
		return 0, false
	}
	return st.decidedVal, true
}

func (n *Node) inst(i int64) *instance {
	st := n.instances[i]
	if st == nil {
		st = &instance{}
		n.instances[i] = st
		n.order = append(n.order, i)
	}
	return st
}

// OnTimer implements proc.Node: the retry loop re-launches ballots for
// undecided instances while the oracle names this process leader.
func (n *Node) OnTimer(key proc.TimerKey) {
	if n.crashed {
		return
	}
	if key != timerRetry {
		panic(fmt.Sprintf("consensus: unknown timer %d", key))
	}
	for _, inst := range n.order {
		st := n.instances[inst]
		if st.hasProposal && !st.decided {
			// Restarting from scratch each period is safe (ballots
			// only grow) and guarantees progress once Ω stabilizes.
			st.phase = 0
			n.maybeLead(inst, st)
		}
	}
	n.env.SetTimer(timerRetry, retryPeriod)
}

// maybeLead starts a ballot when the oracle points at this process.
func (n *Node) maybeLead(inst int64, st *instance) {
	if st.decided || !st.hasProposal || st.phase != 0 {
		return
	}
	if n.cfg.Oracle() != n.env.ID() {
		return
	}
	n.maxCounter++
	st.ballot = wire.Ballot{Counter: n.maxCounter, Proposer: int32(n.env.ID())}
	st.phase = 1
	st.resetVotes(n.cfg.N)
	st.pickHas = false
	st.pickBallot = wire.Ballot{}
	n.Ballots++
	m := n.preparePool.Get()
	m.Instance, m.Ballot = inst, st.ballot
	proc.BroadcastAll(n.env, m)
}

// resetVotes clears the phase's vote flags, reusing the instance's array.
func (st *instance) resetVotes(n int) {
	if st.votes == nil {
		st.votes = make([]bool, n)
	} else {
		for i := range st.votes {
			st.votes[i] = false
		}
	}
	st.nvotes = 0
}

// vote records a vote from one process, idempotently.
func (st *instance) vote(from proc.ID) {
	if !st.votes[from] {
		st.votes[from] = true
		st.nvotes++
	}
}

// OnMessage implements proc.Node.
func (n *Node) OnMessage(from proc.ID, msg any) {
	if n.crashed {
		return
	}
	switch m := msg.(type) {
	case *wire.Prepare:
		n.onPrepare(from, m)
	case *wire.Promise:
		n.onPromise(from, m)
	case *wire.Accept:
		n.onAccept(from, m)
	case *wire.Accepted:
		n.onAccepted(from, m)
	case *wire.Decide:
		n.learn(m.Instance, m.Value)
	default:
		panic(fmt.Sprintf("consensus: unexpected message %T", msg))
	}
}

func (n *Node) noteCounter(b wire.Ballot) {
	if b.Counter > n.maxCounter {
		n.maxCounter = b.Counter
	}
}

func (n *Node) onPrepare(from proc.ID, m *wire.Prepare) {
	st := n.inst(m.Instance)
	n.noteCounter(m.Ballot)
	if st.decided {
		n.sendDecide(from, m.Instance, st.decidedVal)
		return
	}
	if st.promised.Less(m.Ballot) {
		st.promised = m.Ballot
		p := n.promisePool.Get()
		p.Instance = m.Instance
		p.Ballot = m.Ballot
		p.AcceptedAt = st.accepted
		p.Value = st.acceptedVal
		p.HasValue = st.hasAccepted
		p.NACK = false
		n.env.Send(from, p)
		return
	}
	p := n.promisePool.Get()
	p.Instance = m.Instance
	p.Ballot = st.promised
	p.AcceptedAt = wire.Ballot{}
	p.Value = 0
	p.HasValue = false
	p.NACK = true
	n.env.Send(from, p)
}

// sendDecide answers a straggler with the known decision.
func (n *Node) sendDecide(to proc.ID, inst, val int64) {
	d := n.decidePool.Get()
	d.Instance, d.Value = inst, val
	n.env.Send(to, d)
}

func (n *Node) onPromise(from proc.ID, m *wire.Promise) {
	st := n.inst(m.Instance)
	n.noteCounter(m.Ballot)
	if m.NACK {
		if st.phase == 1 && !st.ballot.Less(m.Ballot) {
			return // stale NACK for an older attempt of ours
		}
		if st.phase != 0 {
			st.phase = 0 // abandon; the retry timer escalates
			n.Nacks++
		}
		return
	}
	if st.phase != 1 || m.Ballot != st.ballot || st.decided {
		return // stale or foreign promise
	}
	st.vote(from)
	if m.HasValue && st.pickBallot.Less(m.AcceptedAt) {
		st.pickBallot = m.AcceptedAt
		st.pickVal = m.Value
		st.pickHas = true
	}
	if st.nvotes < n.quorum() {
		return
	}
	// Phase 2: push the constrained value (highest accepted) or our own.
	st.chosenVal = st.proposal
	if st.pickHas {
		st.chosenVal = st.pickVal
	}
	st.phase = 2
	st.resetVotes(n.cfg.N)
	a := n.acceptPool.Get()
	a.Instance, a.Ballot, a.Value = m.Instance, st.ballot, st.chosenVal
	proc.BroadcastAll(n.env, a)
}

func (n *Node) onAccept(from proc.ID, m *wire.Accept) {
	st := n.inst(m.Instance)
	n.noteCounter(m.Ballot)
	if st.decided {
		n.sendDecide(from, m.Instance, st.decidedVal)
		return
	}
	// Accept at b if no promise to anything higher was given (b >= promised).
	if !m.Ballot.Less(st.promised) {
		st.promised = m.Ballot
		st.accepted = m.Ballot
		st.acceptedVal = m.Value
		st.hasAccepted = true
		a := n.acceptedPool.Get()
		a.Instance, a.Ballot, a.NACK = m.Instance, m.Ballot, false
		n.env.Send(from, a)
		return
	}
	a := n.acceptedPool.Get()
	a.Instance, a.Ballot, a.NACK = m.Instance, st.promised, true
	n.env.Send(from, a)
}

func (n *Node) onAccepted(from proc.ID, m *wire.Accepted) {
	st := n.inst(m.Instance)
	n.noteCounter(m.Ballot)
	if m.NACK {
		if st.phase == 2 && st.ballot.Less(m.Ballot) {
			st.phase = 0
			n.Nacks++
		}
		return
	}
	if st.phase != 2 || m.Ballot != st.ballot || st.decided {
		return
	}
	st.vote(from)
	if st.nvotes < n.quorum() {
		return
	}
	// Decided: tell everyone (including ourselves, closing the loop).
	d := n.decidePool.Get()
	d.Instance, d.Value = m.Instance, st.chosenVal
	proc.BroadcastAll(n.env, d)
	n.learn(m.Instance, st.chosenVal)
}

// learn records a decision (idempotently) and notifies the application.
func (n *Node) learn(inst, value int64) {
	st := n.inst(inst)
	if st.decided {
		return
	}
	st.decided = true
	st.decidedVal = value
	st.phase = 0
	n.Decide2B++
	if n.cfg.OnDecide != nil {
		n.cfg.OnDecide(inst, value)
	}
}

var (
	_ proc.Node      = (*Node)(nil)
	_ proc.Crashable = (*Node)(nil)
)
