// Package netsim provides the simulated message-passing network of the
// paper's system model AS[n,t]: n processes fully connected by reliable,
// non-FIFO, directed links with arbitrary (policy-controlled) transfer
// delays, where processes may crash.
//
// The processes are host.Process values, the same ones the wall-clock
// transports run, on a host.SimClock over the scheduler and with the no-op
// host.NoLock: their timers, crash-stop and restarts are that package's.
// This package is the links: envelopes and multicast carriers, the order
// gate, the link-fault overlay, and the pre-start buffer that holds the
// envelopes arriving before a member's staggered start.
//
// The network realizes exactly the model of §2.1:
//
//   - Links are reliable: messages are never created, altered or lost. A
//     message is dropped only when its receiver has crashed, which is
//     indistinguishable from reception by a dead process.
//   - No bound is assumed on transfer delays; a DelayPolicy chooses each
//     message's delay and an optional Gate can additionally reorder
//     deliveries (used to realize the paper's time-free "winning message"
//     property, which constrains order rather than time).
//   - Processes are crash-stop: after its crash time a process sends,
//     receives and executes nothing.
//
// All activity runs on a deterministic sim.Scheduler, so any run is
// reproducible from its seed.
//
// # Hot-path design
//
// The send/arrive/deliver path is allocation-free in steady state:
//
//   - The network schedules typed events (deliver, start, crash) via
//     sim.Scheduler.AtTyped instead of per-event closures; Network itself is
//     the sim.Handler that demultiplexes them. Timers are the host.SimClock's
//     typed events.
//   - Envelopes are recycled through a per-network free list: an envelope
//     returns to the pool once its delivery (or drop) is complete. Observers
//     (OnDeliver, gates, delay policies) must therefore not retain an
//     *Envelope past the callback unless they hold it under the Gate
//     contract; copy the fields instead.
//   - Pooled payloads (wire.Recyclable) are reference-counted by the
//     network: one reference per send, released when that copy's delivery
//     or drop completes, so a broadcast payload returns to its sender's
//     pool exactly when its last recipient is done with it. Receivers must
//     not retain payload pointers past OnMessage — the rule the repository
//     has always had ("immutable by convention once sent").
//   - A message arriving before its receiver's (staggered) start is buffered
//     per process in arrival order and flushed synchronously when the
//     process starts — reliable-link semantics without redelivery polling.
//     A crash before the start drops and counts the buffer at the crash
//     instant (the host.Process crash hook).
//   - Per-kind counters are fixed arrays indexed by wire.Kind, not maps.
//   - A multicast (proc.Env.Multicast; every protocol broadcast) is ONE
//     pooled carrier (sender, payload, send time, base message seq) in ONE
//     sim fan-out slot; each destination is a leg, its own 24-byte
//     scheduler queue entry under the seq its unicast twin would have had.
//     Envelopes and slots in flight therefore scale with broadcasts, not
//     with broadcasts × n, and no leg is ever sorted or rescheduled — while
//     the observable behaviour (delay draws, message seqs, stats, gate and
//     drop semantics, tie-breaking against unrelated events) stays
//     bit-for-bit identical to n unicast sends; see multicast.
package netsim

import (
	"fmt"
	"time"

	"repro/internal/bitset"
	"repro/internal/host"
	"repro/internal/proc"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Envelope is a message in flight on some link.
type Envelope struct {
	// Seq is a unique, deterministic message sequence number.
	Seq uint64
	// From and To are the link endpoints.
	From, To proc.ID
	// Payload is the message itself (usually a wire.Message).
	Payload any
	// SentAt is the virtual time Send was called.
	SentAt sim.Time
	// Released marks an envelope a Gate has already held and released;
	// gates must not hold a released envelope again.
	Released bool
}

// Delay returns how long the envelope has been in flight at time now.
func (e *Envelope) Delay(now sim.Time) time.Duration { return now.Sub(e.SentAt) }

// DelayPolicy decides the transfer delay of each message. Implementations
// live in internal/scenario; they encode the synchrony assumption under test.
type DelayPolicy interface {
	// Delay returns the transfer delay for ev. It is called once per
	// message at send time. r is a deterministic per-network stream.
	Delay(ev *Envelope, r *sim.Rand) time.Duration
}

// DelayFunc adapts a function to the DelayPolicy interface.
type DelayFunc func(ev *Envelope, r *sim.Rand) time.Duration

// Delay implements DelayPolicy.
func (f DelayFunc) Delay(ev *Envelope, r *sim.Rand) time.Duration { return f(ev, r) }

// Gate intercepts deliveries to constrain their order. The paper's "winning
// message" property (Definition 2) is about reception order, not timing, so
// it is enforced at the instant a message would be delivered. now is the
// current virtual time (gates have no other clock access).
type Gate interface {
	// OnArrival is called when ev's transfer delay has elapsed. Return
	// true to deliver now; return false to take ownership of ev and hold
	// it. Held envelopes must eventually be returned from OnDelivered
	// (link reliability is part of the model).
	OnArrival(ev *Envelope, now sim.Time) bool
	// OnDelivered is called after every delivery; the gate may release
	// held envelopes by returning them. Released envelopes are delivered
	// immediately, in order, each triggering its own OnDelivered.
	OnDelivered(ev *Envelope, now sim.Time) []*Envelope
}

// Typed event kinds demultiplexed by Network.OnSimEvent.
const (
	evDeliver uint8 = iota + 1 // p = *Envelope
	evStart                    // a = process id
	evCrash                    // a = process id
	evMcast                    // p = *mcast, a = leg (one leg of a multicast)
)

// Network simulates the complete system: processes plus links.
type Network struct {
	sched    *sim.Scheduler
	rand     *sim.Rand
	policy   DelayPolicy
	gate     Gate
	envs     []*env
	preStart [][]*Envelope // messages arrived before the receiver started
	nextSeq  uint64
	stats    host.Stats // counted on the event loop, no taps needed

	// envFree is the envelope free list; chainBuf is the reusable BFS
	// queue of deliverChain. Both exist to keep the delivery hot path
	// allocation-free in steady state.
	envFree  []*Envelope
	chainBuf []*Envelope

	// mcFree recycles multicast carriers; policyScratch is the stack-in
	// envelope handed to the DelayPolicy for each multicast leg's draw
	// (the policy must not retain envelopes, so one scratch suffices).
	mcFree        []*mcast
	policyScratch Envelope

	// OnDeliver, when non-nil, observes every successful delivery (after
	// the node processed it). The envelope is recycled when the callback
	// returns; copy fields, do not retain the pointer.
	OnDeliver func(ev *Envelope)

	// fault, when non-nil, is the chaos-layer link-fault overlay: it can
	// refuse sends (cuts, loss) and add latency (jitter, slow nodes) on top
	// of the scenario's DelayPolicy. See SetLinkFault.
	fault proc.LinkFault
}

// SetLinkFault installs the chaos fault overlay (nil removes it): Admit is
// consulted once per unicast or multicast-leg send and Delay adds to the
// scenario policy's draw. Call before the run or from within the event loop;
// the overlay itself may be mutated at any time.
func (n *Network) SetLinkFault(f proc.LinkFault) { n.fault = f }

// maxN is the largest network: a multicast leg packs its destination and
// its offset among the destinations into 16 bits each.
const maxN = 1 << 16

// Config assembles a Network.
type Config struct {
	N      int
	Seed   uint64
	Policy DelayPolicy // required
	Gate   Gate        // optional
}

// New creates a network of cfg.N processes on sched. Nodes are registered
// with Register and started with StartAll (or StartAt for staggered starts).
func New(sched *sim.Scheduler, cfg Config) (*Network, error) {
	if cfg.N <= 0 || cfg.N > maxN {
		return nil, fmt.Errorf("netsim: N must be in [1,%d], got %d", maxN, cfg.N)
	}
	if cfg.Policy == nil {
		return nil, fmt.Errorf("netsim: Config.Policy is required")
	}
	n := &Network{
		sched:    sched,
		rand:     sim.NewRand(cfg.Seed ^ 0x6e657473696d2121),
		policy:   cfg.Policy,
		gate:     cfg.Gate,
		envs:     make([]*env, cfg.N),
		preStart: make([][]*Envelope, cfg.N),
	}
	clock, dropPreStart := host.SimClock(sched), n.dropPreStart
	for i := 0; i < cfg.N; i++ {
		e := &env{net: n}
		e.Init(e, i, cfg.N, clock, host.NoLock, nil, dropPreStart)
		n.envs[i] = e
	}
	return n, nil
}

// N returns the number of processes.
func (n *Network) N() int { return len(n.envs) }

// Scheduler returns the underlying scheduler (for running the simulation).
func (n *Network) Scheduler() *sim.Scheduler { return n.sched }

// Stats returns a snapshot of the network counters.
func (n *Network) Stats() host.Stats { return n.stats }

// envBlock is how many envelopes a free-list refill allocates at once. The
// in-flight population is not bounded — an order adversary can legally hold
// an ever-growing backlog against a diverging algorithm — so refills are
// batched to keep envelope allocations O(peak/envBlock) instead of O(peak).
const envBlock = 64

// getEnvelope pops a recycled envelope, refilling the free list in blocks.
func (n *Network) getEnvelope() *Envelope {
	if len(n.envFree) == 0 {
		block := make([]Envelope, envBlock)
		for i := range block {
			n.envFree = append(n.envFree, &block[i])
		}
	}
	k := len(n.envFree)
	ev := n.envFree[k-1]
	n.envFree = n.envFree[:k-1]
	return ev
}

// putEnvelope returns a fully-delivered (or dropped) envelope to the pool.
// This is the payload recycle point: every consumed envelope accounts for
// exactly one transport reference on its payload (taken in send), so pooled
// payloads return to their owner's free list here, after every observer
// (gate, OnDeliver) ran for this delivery.
func (n *Network) putEnvelope(ev *Envelope) {
	if r, ok := ev.Payload.(wire.Recyclable); ok {
		r.Recycle()
	}
	*ev = Envelope{}
	n.envFree = append(n.envFree, ev)
}

// Register installs node as process id (host.Process.Register). Must be
// called before the node is started.
func (n *Network) Register(id proc.ID, node proc.Node) { n.envs[id].Register(node) }

// Process returns member id's process: crash it, restart it or read its
// node there.
func (n *Network) Process(id proc.ID) *host.Process { return &n.envs[id].Process }

// StartAt schedules process id's Start callback at virtual time at.
func (n *Network) StartAt(id proc.ID, at sim.Time) {
	if n.envs[id].Node() == nil {
		panic(fmt.Sprintf("netsim: starting unregistered process %d", id))
	}
	n.sched.AtTyped(at, n, evStart, uint64(uint32(id)), nil)
}

// StartAll starts every registered process at time 0.
func (n *Network) StartAll() {
	for id := range n.envs {
		n.StartAt(id, 0)
	}
}

// startNow runs a process's Start callback and flushes, in arrival order,
// any messages that reached it before it started.
func (n *Network) startNow(id proc.ID) {
	e := n.envs[id]
	if !e.Start() {
		return
	}
	buf := n.preStart[id]
	n.preStart[id] = nil
	for _, ev := range buf {
		n.deliver(e, ev)
		n.putEnvelope(ev)
	}
}

// dropPreStart is every process's crash hook: messages buffered for a start
// that will never happen are drops, counted at the crash instant.
func (n *Network) dropPreStart(id proc.ID) {
	for _, ev := range n.preStart[id] {
		n.stats.Dropped++
		n.putEnvelope(ev)
	}
	n.preStart[id] = nil
}

// CrashAt schedules process id to crash (host.Process.Crash) at virtual time
// at. Crashing is idempotent. Messages already in flight to other processes
// are still delivered (they left the sender before the crash).
func (n *Network) CrashAt(id proc.ID, at sim.Time) {
	n.sched.AtTyped(at, n, evCrash, uint64(uint32(id)), nil)
}

// Crashed reports whether process id is currently crashed (down).
func (n *Network) Crashed(id proc.ID) bool { return n.envs[id].Crashed() }

// OnSimEvent implements sim.Handler: it demultiplexes the network's typed
// scheduler events (message arrival, process start, crash).
func (n *Network) OnSimEvent(kind uint8, a uint64, p any) {
	switch kind {
	case evDeliver:
		n.arrive(p.(*Envelope))
	case evStart:
		n.startNow(proc.ID(uint32(a)))
	case evCrash:
		n.envs[uint32(a)].Crash()
	case evMcast:
		n.mcastLeg(p.(*mcast), a)
	default:
		panic(fmt.Sprintf("netsim: unknown event kind %d", kind))
	}
}

// send is called by a process env.
func (n *Network) send(from, to proc.ID, msg any) {
	if n.envs[from].Crashed() {
		return // a crashed process executes nothing
	}
	if to < 0 || to >= len(n.envs) {
		panic(fmt.Sprintf("netsim: send to invalid process %d", to))
	}
	n.nextSeq++
	n.stats.Sent++
	if wm, ok := msg.(wire.Message); ok {
		// A kind >= wire.KindCount panics here: better a loud index error
		// than per-kind tables that silently stop summing to the totals.
		k := wm.Kind()
		sz := uint64(wm.Size())
		n.stats.Bytes += sz
		n.stats.ByKind[k]++
		n.stats.BytesKind[k] += sz
	}
	if n.fault != nil && !n.fault.Admit(from, to) {
		// Refused by the chaos overlay: counted as sent and dropped (like
		// tcpnet policy drops), no envelope allocated, no transport retain,
		// and — preserving determinism for runs without the overlay — no
		// policy delay draw consumed.
		n.stats.Dropped++
		return
	}
	ev := n.getEnvelope()
	ev.Seq = n.nextSeq
	ev.From = from
	ev.To = to
	ev.Payload = msg
	ev.SentAt = n.sched.Now()
	// One transport reference per send; released in putEnvelope when this
	// copy's delivery (or drop) completes. See wire's pooling contract.
	if r, ok := msg.(wire.Recyclable); ok {
		r.Retain()
	}
	d := n.policy.Delay(ev, n.rand)
	if n.fault != nil {
		d += n.fault.Delay(from, to)
	}
	if d < 0 {
		d = 0
	}
	n.sched.AfterTyped(d, n, evDeliver, 0, ev)
}

// mcast is the pooled carrier of one multicast: what every leg's delivery
// envelope shares. The legs themselves are scheduler entries of one sim
// fan-out whose payload is the carrier; left counts the legs still queued.
type mcast struct {
	from    proc.ID
	payload any
	sentAt  sim.Time
	seq0    uint64 // Envelope.Seq of destination 0
	left    int
}

// getMcast pops a recycled carrier.
func (n *Network) getMcast() *mcast {
	if k := len(n.mcFree); k > 0 {
		mc := n.mcFree[k-1]
		n.mcFree = n.mcFree[:k-1]
		return mc
	}
	return &mcast{}
}

// putMcast returns a carrier whose legs have all fired to the pool. Payload
// references are per-leg (held by the materialized delivery envelopes), so
// the carrier itself releases nothing.
func (n *Network) putMcast(mc *mcast) {
	mc.payload = nil
	n.mcFree = append(n.mcFree, mc)
}

// multicast is Send fanned over a destination set, behaviourally identical
// to one send per member in ascending id order. Equivalence is exact, not
// approximate: message seqs, stats, payload retains and per-link delay draws
// happen per destination in the same order as the unicast loop, and each
// admitted leg is queued under a scheduler seq from one block of k reserved
// at send time (a node's send loop admits no interleaving), at offset off,
// its position among the destinations. A leg the fault overlay refuses
// leaves its seq unused; a gap never reorders two events, so the global
// delivery order — including ties — is bit-for-bit unchanged. Only the cost
// moves: one pooled carrier and one scheduler slot serve all k legs, and
// each leg's queue entry is 24 bytes.
func (n *Network) multicast(from proc.ID, dests *bitset.Set, msg any) {
	if n.envs[from].Crashed() {
		return // a crashed process executes nothing
	}
	if dests.Len() != len(n.envs) {
		panic(fmt.Sprintf("netsim: multicast destination universe %d, want %d", dests.Len(), len(n.envs)))
	}
	k := dests.Count()
	if k == 0 {
		return
	}
	now := n.sched.Now()
	recyclable, _ := msg.(wire.Recyclable)
	wm, isWire := msg.(wire.Message)
	var kind wire.Kind
	var sz uint64
	if isWire {
		kind = wm.Kind()
		sz = uint64(wm.Size())
	}
	seq0, sched0 := n.nextSeq+1, n.sched.ReserveSeqs(k)
	var mc *mcast
	var fan sim.Fan
	scratch := &n.policyScratch
	scratch.From, scratch.Payload, scratch.SentAt, scratch.Released = from, msg, now, false
	for to := 0; to < len(n.envs); to++ {
		if !dests.Contains(to) {
			continue
		}
		n.nextSeq++
		n.stats.Sent++
		if isWire {
			n.stats.Bytes += sz
			n.stats.ByKind[kind]++
			n.stats.BytesKind[kind] += sz
		}
		if n.fault != nil && !n.fault.Admit(from, to) {
			// Chaos overlay refusal: this leg is counted sent+dropped and
			// never materializes — no retain, no delay draw, no leg.
			n.stats.Dropped++
			continue
		}
		if recyclable != nil {
			recyclable.Retain() // one transport reference per destination bit
		}
		scratch.Seq, scratch.To = n.nextSeq, to
		d := n.policy.Delay(scratch, n.rand)
		if n.fault != nil {
			d += n.fault.Delay(from, to)
		}
		if d < 0 {
			d = 0
		}
		if mc == nil {
			mc = n.getMcast()
			mc.from, mc.payload, mc.sentAt, mc.seq0 = from, msg, now, seq0
			fan = n.sched.FanOut(n, evMcast, mc)
		}
		mc.left++
		off := uint32(n.nextSeq - seq0)
		n.sched.AtLeg(fan, now.Add(d), sched0+uint64(off), off<<16|uint32(to))
	}
	scratch.Payload = nil
}

// mcastLeg delivers one leg of carrier mc: arg packs the leg's offset among
// the destinations (high half) and its destination (low half). The delivery
// materializes a pooled unicast envelope so that gates, observers and the
// pre-start buffer see exactly the envelopes they always did — but the
// envelope lives only from deadline to consumption instead of from send to
// delivery.
func (n *Network) mcastLeg(mc *mcast, arg uint64) {
	ev := n.getEnvelope()
	ev.Seq, ev.From, ev.To = mc.seq0+arg>>16, mc.from, proc.ID(arg&0xffff)
	ev.Payload, ev.SentAt = mc.payload, mc.sentAt
	mc.left--
	if mc.left == 0 {
		n.putMcast(mc)
	}
	n.arrive(ev)
}

// arrive runs when an envelope's transfer delay has elapsed.
func (n *Network) arrive(ev *Envelope) {
	if n.gate != nil && !n.gate.OnArrival(ev, n.sched.Now()) {
		return // gate holds it; it will come back via OnDelivered
	}
	n.deliverChain(ev)
}

// deliverChain delivers ev and then any envelopes the gate releases,
// breadth-first, all at the current instant. Consumed envelopes (delivered
// or dropped, as opposed to buffered pre-start) are recycled.
func (n *Network) deliverChain(first *Envelope) {
	if n.gate == nil {
		if n.deliverOne(first) {
			n.putEnvelope(first)
		}
		return
	}
	// deliverChain never runs nested (node callbacks only schedule future
	// events), so the queue buffer is safely reused across calls.
	q := append(n.chainBuf[:0], first)
	for head := 0; head < len(q); head++ {
		ev := q[head]
		consumed := n.deliverOne(ev)
		released := n.gate.OnDelivered(ev, n.sched.Now())
		for _, rel := range released {
			rel.Released = true
		}
		q = append(q, released...)
		if consumed {
			n.putEnvelope(ev)
		}
	}
	n.chainBuf = q[:0]
}

// deliverOne hands ev to its receiver. It reports whether the envelope was
// consumed — delivered to a live started process, or dropped at a crashed
// one — as opposed to buffered for a not-yet-started receiver, in which case
// the pre-start buffer owns it until the start flush.
func (n *Network) deliverOne(ev *Envelope) bool {
	e := n.envs[ev.To]
	if !e.Started() && !e.Crashed() {
		// The model starts all processes "at the beginning"; a message
		// arriving before the (staggered) start is buffered in arrival
		// order and flushed when the process starts. This keeps
		// reliable-link semantics with staggered starts.
		n.preStart[ev.To] = append(n.preStart[ev.To], ev)
		return false
	}
	n.deliver(e, ev)
	return true
}

// deliver hands ev to its started or crashed receiver and counts the outcome.
func (n *Network) deliver(e *env, ev *Envelope) {
	if !e.Deliver(ev.From, ev.Payload) {
		n.stats.Dropped++
		return
	}
	n.stats.Delivered++
	if n.OnDeliver != nil {
		n.OnDeliver(ev)
	}
}

// env implements proc.Env for one simulated process: the host.Process plus
// the sending side of its links.
type env struct {
	host.Process
	net *Network
}

func (e *env) Send(to proc.ID, msg any) { e.net.send(e.ID(), to, msg) }

// Multicast implements proc.Env. Single-destination sets take the plain
// unicast path (same behaviour, less machinery).
func (e *env) Multicast(dests *bitset.Set, msg any) {
	if dests.Count() == 1 {
		for to := 0; to < dests.Len(); to++ {
			if dests.Contains(to) {
				e.net.send(e.ID(), to, msg)
				return
			}
		}
	}
	e.net.multicast(e.ID(), dests, msg)
}

var (
	_ proc.Env    = (*env)(nil)
	_ sim.Handler = (*Network)(nil)
)
