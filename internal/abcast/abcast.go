// Package abcast implements total-order (atomic) broadcast on top of
// repeated Ω-based consensus — the application the paper points to for its
// leader oracle ([3,12]: consensus as a subroutine for atomic broadcast).
//
// Architecture: every process diffuses its payloads to everybody
// (reliable-link flooding); a sequence of consensus instances 0,1,2,...
// decides, per slot, which message comes next, one message per slot. Any
// decided slot is delivered in slot order once its content is known.
//
// Sequencing is event-driven. Each member keeps a pending index: the keys
// whose content arrived here before any slot was decided for them, in
// arrival order. A stable Ω leader — the oracle names it now and named it
// at its previous propose tick — proposes a new content into the next free
// slot the moment it arrives, so a healthy lane commits in one consensus
// round trip and never waits for a timer. The propose tick is the
// retransmit path: every member's tick drops the sequenced entries from the
// pending index, and the leader's tick proposes what is left, except the
// keys it proposed on arrival since the previous tick (their ballot is
// still in flight). That covers keys that arrived while this process was
// not leader, keys whose slot another leader's value won, and the first
// broadcasts of a cold lane. Both paths take pending keys in arrival order
// from a slice — never from a map walk — so same-seed runs propose in the
// same order.
//
// The stability condition is what keeps a fresh or flapping leader on the
// tick. A restarted incarnation's delivery cursor is back at zero and its
// oracle may name the process itself for a moment before it has heard
// anyone; proposing on arrival in that state opens slot 0, learns an old
// decision whose content was diffused to the previous incarnation only,
// and wedges the lane behind a slot it can never deliver. One full tick of
// confirmed leadership costs a cold lane at most one period and rules that
// out.
//
// Duplicate sequencing (two leaders racing the same message into two slots,
// or a retransmit overtaking a slow ballot) is resolved at delivery time: a
// slot whose message was already delivered is skipped.
//
// Properties (checked by the tests):
//   - Validity: a delivered message was broadcast by some process.
//   - Integrity: no message is delivered twice.
//   - Total order: all correct processes deliver the same sequence.
//   - Liveness: messages broadcast by correct processes are eventually
//     delivered, given Ω's eventual leadership and t < n/2.
package abcast

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/consensus"
	"repro/internal/proc"
	"repro/internal/wire"
)

// timerPropose drives the retransmit and compaction tick.
const timerPropose proc.TimerKey = 0

// proposePeriod is the retransmit and compaction period: how often every
// member drops sequenced keys from its pending index and the leader proposes
// the ones still unsequenced. It bounds how long a key that missed the
// propose-on-arrival path (no stable leader yet, or its slot went to another
// value) waits for a slot; a stable leader's commit latency does not depend
// on it.
const proposePeriod = 50 * time.Millisecond

// rediffuseAfter is how many propose ticks one of this process's own
// broadcasts may stay undelivered before its content is diffused again.
// Diffusion is otherwise broadcast-once: a multicast partially lost to a
// link cut or partition would leave some members without the content of a
// key that may later be sequenced — and a decided slot with unknown content
// blocks a member's whole lane. The sender is the one process guaranteed to
// hold the content, so it re-floods until it has delivered the message
// itself. Age-gating keeps the steady state quiet: a healthy lane delivers
// well within two ticks and never re-sends.
const rediffuseAfter = 2

// Delivery is one totally-ordered delivery event.
type Delivery struct {
	Slot    int64
	Sender  proc.ID
	Payload int64
}

// Config parameterizes a Node.
type Config struct {
	N, T int

	// Oracle is the Ω leader hint (shared with the consensus lane).
	Oracle func() proc.ID

	// OnDeliver, when non-nil, observes every delivery in order.
	OnDeliver func(d Delivery)

	// OnDecide, when non-nil, observes every raw consensus decision of
	// the dedicated consensus lane (slot instance, encoded key) before
	// the broadcast layer interprets it. Observability only.
	OnDecide func(inst, v int64)
}

// key encodes (sender, localID) as the int64 consensus value:
// sender in the top 15 bits (below the sign bit), localID in the low 48.
func key(sender proc.ID, localID int64) int64 {
	return int64(sender)<<48 | (localID & (1<<48 - 1))
}

func splitKey(k int64) (sender proc.ID, localID int64) {
	return proc.ID(k >> 48), k & (1<<48 - 1)
}

// Node is the total-order broadcast endpoint of one process. It owns its
// consensus lane's proposals; the two nodes are wired by NewPair.
type Node struct {
	cfg  Config
	env  proc.Env
	cons *consensus.Node

	nextLocalID int64
	pool        wire.ABCastPool // recycled diffusion payloads
	contents    map[int64]int64 // key -> payload (diffused contents)
	own         map[int64]int   // undelivered own keys -> ticks since last diffusion
	sequenced   map[int64]bool  // keys decided into some slot
	delivered   map[int64]bool  // keys already delivered
	decisions   map[int64]int64 // slot -> key
	pending     []pendingKey    // unsequenced keys with known content, in arrival order
	ledLastTick bool            // the oracle named this process at its previous tick
	nextDeliver int64           // next slot to deliver
	nextPropose int64           // next slot this process will propose for
	log         []Delivery
	crashed     bool
}

// pendingKey is one entry of the pending index. inFlight marks a key this
// process proposed on arrival since its last tick: the next tick leaves that
// ballot alone and clears the mark, so the tick after it retransmits.
type pendingKey struct {
	key      int64
	inFlight bool
}

// NewPair builds the broadcast node together with its dedicated consensus
// node. Register both on the same Mux (consensus lane first is customary but
// not required).
func NewPair(cfg Config) (*Node, *consensus.Node, error) {
	if cfg.Oracle == nil {
		return nil, nil, fmt.Errorf("abcast: Oracle is required")
	}
	n := &Node{
		cfg:       cfg,
		contents:  make(map[int64]int64),
		own:       make(map[int64]int),
		sequenced: make(map[int64]bool),
		delivered: make(map[int64]bool),
		decisions: make(map[int64]int64),
	}
	onDecide := n.onDecide
	if cfg.OnDecide != nil {
		outer := cfg.OnDecide
		onDecide = func(inst, v int64) {
			outer(inst, v)
			n.onDecide(inst, v)
		}
	}
	cons, err := consensus.New(consensus.Config{
		N: cfg.N, T: cfg.T,
		Oracle:   cfg.Oracle,
		OnDecide: onDecide,
	})
	if err != nil {
		return nil, nil, err
	}
	n.cons = cons
	return n, cons, nil
}

// Start implements proc.Node. The local-id sequence is seeded from the
// start time so a restarted incarnation allocates keys disjoint from its
// predecessor's: ids are (start nanoseconds + count), a restart strictly
// postdates every broadcast of the prior incarnation, and 48 bits of key
// space hold nanosecond counts for ~3 days of run. Without this a fresh
// incarnation would reuse (sender, 1), which peers have already seen —
// the diffusion lane would drop the new payload as a duplicate.
func (n *Node) Start(env proc.Env) {
	n.env = env
	n.nextLocalID = int64(env.Now())
	env.SetTimer(timerPropose, proposePeriod)
}

// OnCrash implements proc.Crashable.
func (n *Node) OnCrash() { n.crashed = true }

// Broadcast submits a payload for total-order delivery.
func (n *Node) Broadcast(payload int64) {
	if n.crashed {
		return
	}
	n.nextLocalID++
	n.own[key(n.env.ID(), n.nextLocalID)] = 0
	m := n.pool.Get()
	m.Sender, m.LocalID, m.Payload = int32(n.env.ID()), n.nextLocalID, payload
	proc.BroadcastAll(n.env, m)
}

// Log returns the deliveries so far, in order.
func (n *Node) Log() []Delivery {
	out := make([]Delivery, len(n.log))
	copy(out, n.log)
	return out
}

// OnMessage implements proc.Node (the diffusion lane).
func (n *Node) OnMessage(from proc.ID, msg any) {
	if n.crashed {
		return
	}
	m, ok := msg.(*wire.ABCast)
	if !ok {
		panic(fmt.Sprintf("abcast: unexpected message %T", msg))
	}
	k := key(proc.ID(m.Sender), m.LocalID)
	if _, seen := n.contents[k]; seen {
		return
	}
	n.contents[k] = m.Payload
	if !n.sequenced[k] {
		fast := n.ledLastTick && n.cfg.Oracle() == n.env.ID()
		n.pending = append(n.pending, pendingKey{key: k, inFlight: fast})
		if fast {
			n.propose(k)
		}
	}
	n.drain()
}

// OnTimer implements proc.Node: the retransmit and compaction tick.
func (n *Node) OnTimer(tk proc.TimerKey) {
	if n.crashed {
		return
	}
	if tk != timerPropose {
		panic(fmt.Sprintf("abcast: unknown timer %d", tk))
	}
	n.ledLastTick = n.cfg.Oracle() == n.env.ID()
	n.sweepPending()
	n.rediffuse()
	n.env.SetTimer(timerPropose, proposePeriod)
}

// rediffuse re-floods the contents of this process's own broadcasts that
// have gone rediffuseAfter propose ticks without being delivered locally
// (see the constant's comment for why the sender owns this duty).
func (n *Node) rediffuse() {
	if len(n.own) == 0 {
		return
	}
	var due []int64
	for k, age := range n.own {
		if n.delivered[k] {
			delete(n.own, k)
			continue
		}
		n.own[k] = age + 1
		if age+1 >= rediffuseAfter {
			due = append(due, k)
		}
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	for _, k := range due {
		payload, have := n.contents[k]
		if !have {
			continue // own loopback copy still in flight
		}
		n.own[k] = 0
		_, localID := splitKey(k)
		m := n.pool.Get()
		m.Sender, m.LocalID, m.Payload = int32(n.env.ID()), localID, payload
		proc.BroadcastAll(n.env, m)
	}
}

// sweepPending compacts the pending index in place — a sequenced key never
// becomes pending again, so its entry is dropped — and, when this tick found
// the process leader, proposes every remaining key that has no ballot of
// this tick interval in flight. O(pending), allocation-free.
func (n *Node) sweepPending() {
	kept := n.pending[:0]
	for _, e := range n.pending {
		if n.sequenced[e.key] {
			continue
		}
		if e.inFlight {
			e.inFlight = false
		} else if n.ledLastTick {
			n.propose(e.key)
		}
		kept = append(kept, e)
	}
	n.pending = kept
}

// propose submits k for the next slot this process has neither proposed for
// nor seen decided.
func (n *Node) propose(k int64) {
	if n.nextPropose < n.nextDeliver {
		n.nextPropose = n.nextDeliver
	}
	for {
		if _, done := n.decisions[n.nextPropose]; !done {
			break
		}
		n.nextPropose++
	}
	n.cons.Propose(n.nextPropose, k)
	n.nextPropose++
}

// onDecide is the consensus lane's decision callback.
func (n *Node) onDecide(slot, k int64) {
	n.decisions[slot] = k
	n.sequenced[k] = true
	n.drain()
}

// drain delivers decided slots in order while their contents are known.
func (n *Node) drain() {
	for {
		k, ok := n.decisions[n.nextDeliver]
		if !ok {
			return
		}
		if n.delivered[k] {
			// Duplicate sequencing of an already-delivered message:
			// the slot is skipped by everyone (decisions are common).
			n.nextDeliver++
			continue
		}
		payload, have := n.contents[k]
		if !have {
			return // wait for diffusion to catch up
		}
		sender, _ := splitKey(k)
		n.delivered[k] = true
		d := Delivery{Slot: n.nextDeliver, Sender: sender, Payload: payload}
		n.log = append(n.log, d)
		n.nextDeliver++
		if n.cfg.OnDeliver != nil {
			n.cfg.OnDeliver(d)
		}
	}
}

var (
	_ proc.Node      = (*Node)(nil)
	_ proc.Crashable = (*Node)(nil)
)
