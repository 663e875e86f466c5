// Package proc defines the transport-agnostic process abstraction shared by
// every protocol in this repository.
//
// A protocol is written as a reactive Node: it is started once, then receives
// messages and timer expirations through callbacks, and talks to the world
// only through its Env. The same Node code runs unchanged on the
// deterministic discrete-event simulator (internal/netsim + internal/sim) and
// on the real-time goroutine runtime (internal/runtime).
//
// Concurrency contract: an Env invokes the callbacks of a given Node
// serially. A Node therefore needs no internal locking, exactly like the
// atomically-executed statement blocks in the paper's pseudocode.
package proc

import (
	"sync"
	"time"

	"repro/internal/bitset"
)

// ID is a process identifier in [0, N). The paper indexes processes 1..n;
// this repository uses 0-based ids throughout.
type ID = int

// None is the sentinel "no process" value.
const None ID = -1

// TimerKey distinguishes the concurrently pending timers of one node (e.g.
// the periodic ALIVE tick and the receiving-round timeout).
type TimerKey int

// Env is the world as seen by a single process: identity, membership, a
// clock, message transmission, and named one-shot timers.
type Env interface {
	// ID returns this process's identifier.
	ID() ID
	// N returns the total number of processes in the system.
	N() int
	// Now returns elapsed time since the run started (virtual on the
	// simulator, wall-clock on the runtime). Processes own accurate
	// interval clocks (paper §2.1) but share no global clock; Now must
	// only be used to measure local intervals.
	Now() time.Duration
	// Send transmits msg on the link to process to. Sending to self is
	// allowed and is delivered like any other message (the paper's line
	// 10 sends SUSPICION to every process including the sender).
	// Sends never block and never fail: links are reliable (§2.1).
	Send(to ID, msg any)
	// Multicast transmits msg to every member of dests, exactly as if
	// Send had been called once per member in ascending id order — same
	// per-link delay distribution, same reliability — but transports may
	// (and the simulator does) carry the whole fan-out in one envelope.
	// The paper's protocols are broadcast-dominated (every ALIVE and
	// SUSPICION goes to all n processes), which makes this the hot
	// primitive; Broadcast and BroadcastAll are built on it.
	//
	// dests is borrowed for the duration of the call only: the transport
	// must neither mutate nor retain it (callers pass shared, read-only
	// sets). dests must be a set over the universe [0, N()).
	Multicast(dests *bitset.Set, msg any)
	// SetTimer (re)arms the one-shot timer identified by key to fire
	// after d. Arming replaces any earlier deadline for the same key;
	// d <= 0 fires the timer as soon as possible.
	SetTimer(key TimerKey, d time.Duration)
	// StopTimer disarms the timer identified by key, if armed.
	StopTimer(key TimerKey)
}

// Node is a reactive protocol instance.
type Node interface {
	// Start runs once before any other callback; the node stores env and
	// performs its "init" block (arming timers, sending first messages).
	Start(env Env)
	// OnMessage delivers a message sent by process from.
	OnMessage(from ID, msg any)
	// OnTimer fires when the one-shot timer armed under key expires.
	OnTimer(key TimerKey)
}

// Crashable is implemented by nodes that want to observe their own crash
// (e.g. to stop bookkeeping); the transports call it at crash time, after
// which no further callbacks are delivered.
type Crashable interface {
	OnCrash()
}

// LinkFault is the fault-injection seam every transport consults on its
// sending side, once per unicast or multicast leg: a send Admit refuses is
// dropped — counted sent and dropped, like a message addressed to a crashed
// process — and Delay holds an admitted one back, on top of whatever delay
// the transport itself draws. Delayed messages may overtake later ones; the
// model's links are unordered, so protocols already tolerate that. The
// wall-clock transports call both methods from many goroutines, so an
// implementation used there must be safe for concurrent use; with a
// deterministic implementation a simulation stays a pure function of
// (scenario, seed, fault schedule).
type LinkFault interface {
	Admit(from, to ID) bool
	Delay(from, to ID) time.Duration
}

// LeaderOracle is any node exposing an Ω-style leader estimate. The paper's
// leader() primitive (Figure 1, lines 19-21).
type LeaderOracle interface {
	Leader() ID
}

// Broadcast sends msg to every process except the sender (the paper's
// "for each j != i do send ... to p_j", Figure 1 line 3). It is a single
// Multicast: one envelope per broadcast on transports that support it.
func Broadcast(env Env, msg any) {
	if env.N() <= 1 {
		return
	}
	env.Multicast(OthersSet(env.N(), env.ID()), msg)
}

// BroadcastAll sends msg to every process including the sender (the paper's
// "for each j do send ... to p_j", Figure 1 line 10).
func BroadcastAll(env Env, msg any) {
	env.Multicast(FullSet(env.N()), msg)
}

// destSets caches the broadcast destination sets handed to Multicast. The
// sets are built once per (n, self) pair and then shared by every process
// and every transport forever, which is safe because Multicast's contract
// makes them read-only. The cache keeps Broadcast allocation-free: a
// per-call bitset would reintroduce one allocation per broadcast tick.
var destSets sync.Map // uint64 key: n<<32 | self+1 (self+1 == 0 means full)

func destSet(n int, self ID) *bitset.Set {
	key := uint64(uint32(n))<<32 | uint64(uint32(self+1))
	if s, ok := destSets.Load(key); ok {
		return s.(*bitset.Set)
	}
	s := bitset.New(n)
	s.Fill()
	if self >= 0 {
		s.Remove(self)
	}
	actual, _ := destSets.LoadOrStore(key, s)
	return actual.(*bitset.Set)
}

// FullSet returns the shared set {0, ..., n-1}. The result is READ-ONLY:
// it is cached and shared process-wide (see Multicast's borrowing contract).
func FullSet(n int) *bitset.Set { return destSet(n, None) }

// OthersSet returns the shared set {0, ..., n-1} \ {self}. The result is
// READ-ONLY: it is cached and shared process-wide.
func OthersSet(n int, self ID) *bitset.Set {
	if self < 0 || self >= n {
		panic("proc: OthersSet self out of range")
	}
	return destSet(n, self)
}
