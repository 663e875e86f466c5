// Package host is the process host: the one implementation of the proc.Env
// contract's per-member half — atomically executed callbacks, local one-shot
// timers, crash-stop with fresh incarnations — for all three transports. A
// transport (internal/netsim on the simulator, internal/runtime over
// in-memory mailboxes, internal/tcpnet over sockets) embeds a Process by
// value in its env, adds Send/Multicast and its links, and hands arriving
// messages to Deliver; everything about a member that does not depend on how
// its bytes travel lives here, once.
//
// A Process is parameterised by two things and nothing else:
//
//   - A Clock: it tells the time and arms and cancels the process's timers.
//     WallClock runs timers on time.AfterFunc; SimClock schedules typed
//     sim.Scheduler events, cancels them exactly and allocates nothing per
//     arm.
//   - A callback lock: a *sync.Mutex on the wall-clock transports, NoLock on
//     the single-threaded simulator, whose event loop already serialises
//     every callback.
//
// What a Process guarantees:
//
//   - One callback lock. Start, OnMessage, OnTimer, OnCrash, a Restart's
//     build+Start and every Lock/Unlock section of one member exclude each
//     other, so a node needs no locking of its own and an observer holding
//     Lock sees protocol state between two statement blocks, never inside one.
//   - One timer table. Arming a key replaces its pending deadline; StopTimer,
//     Crash and Stop invalidate a fire that has already left the clock (the
//     generation check runs under the callback lock, after the wait).
//   - Crash-stop. Crash is synchronous and idempotent: when it returns the
//     member sends nothing, receives nothing (Deliver drops), fires nothing,
//     and OnCrash ran exactly once — or not at all, if the member had not
//     started yet, in which case it never starts. Restart swaps in the node
//     its build returns and starts it, all under the callback lock.
//
// Stats is the one link-counter struct of the repository: the simulator
// counts into it on its event loop, the wall-clock transports through the
// atomic taps below. Counting is the links' business: Deliver reports what
// happened and the transport counts it.
package host

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/proc"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Stats aggregates link-level counters. The per-kind counters are fixed
// arrays indexed by wire.Kind, so Stats is comparable and copying it is a
// plain value copy. A wall-clock transport updates its Stats through the
// Tap methods and reads it through Snapshot, which is consistent only in
// the eventual sense a live system allows.
type Stats struct {
	Sent      uint64 // messages handed to the links (per destination)
	Delivered uint64 // messages delivered to live processes
	Dropped   uint64 // messages refused, discarded, or addressed to crashed processes
	Bytes     uint64 // encoded size of all sent wire messages (framed, over sockets)
	ByKind    [wire.KindCount]uint64
	BytesKind [wire.KindCount]uint64
	// BreakerOpens counts link circuit-breaker opens (socket links only):
	// each time consecutive dial failures put a link into fast-drop mode. A
	// flapping peer shows up here long before it shows up in Dropped.
	BreakerOpens uint64
}

// TapSent tallies one transmission (one destination) of a message of kind
// k that occupies size bytes on the link. The caller sizes a message once
// per send, not once per destination. Kind 0 — a payload that is not a
// wire message — counts as sent with no size or kind.
func (s *Stats) TapSent(k wire.Kind, size int) {
	atomic.AddUint64(&s.Sent, 1)
	if k == 0 {
		return
	}
	sz := uint64(size)
	atomic.AddUint64(&s.Bytes, sz)
	atomic.AddUint64(&s.ByKind[k], 1)
	atomic.AddUint64(&s.BytesKind[k], sz)
}

func (s *Stats) TapDelivered()   { atomic.AddUint64(&s.Delivered, 1) }
func (s *Stats) TapDropped()     { atomic.AddUint64(&s.Dropped, 1) }
func (s *Stats) TapBreakerOpen() { atomic.AddUint64(&s.BreakerOpens, 1) }

// Snapshot returns a copy of counters that other goroutines are tapping.
func (s *Stats) Snapshot() Stats {
	out := Stats{
		Sent:         atomic.LoadUint64(&s.Sent),
		Delivered:    atomic.LoadUint64(&s.Delivered),
		Dropped:      atomic.LoadUint64(&s.Dropped),
		Bytes:        atomic.LoadUint64(&s.Bytes),
		BreakerOpens: atomic.LoadUint64(&s.BreakerOpens),
	}
	for k := range out.ByKind {
		out.ByKind[k] = atomic.LoadUint64(&s.ByKind[k])
		out.BytesKind[k] = atomic.LoadUint64(&s.BytesKind[k])
	}
	return out
}

// Clock is a Process's time source: it tells the time, and arms and cancels
// the process's timers. Only this package implements it.
type Clock interface {
	Now() time.Duration
	// arm schedules key's timer to fire after d, cancelling the fire that
	// token names, and returns the token of the new one; disarm cancels the
	// fire token names and returns what the slot holds afterwards. A token
	// is a generation on the wall clock and an event id on the simulator.
	arm(p *Process, key proc.TimerKey, token uint64, d time.Duration) uint64
	disarm(p *Process, key proc.TimerKey, token uint64) uint64
}

// WallClock returns a clock on real time, started now: timers fire on their
// time.AfterFunc goroutines, and a fire that lost a race with a re-arm, a
// StopTimer or a crash fails the generation check under the callback lock.
func WallClock() Clock { return wallClock{start: time.Now()} }

type wallClock struct{ start time.Time }

func (c wallClock) Now() time.Duration { return time.Since(c.start) }

func (c wallClock) arm(p *Process, key proc.TimerKey, gen uint64, d time.Duration) uint64 {
	gen = c.disarm(p, key, gen)
	if p.wall == nil {
		p.wall = make(map[proc.TimerKey]*time.Timer)
	}
	p.wall[key] = time.AfterFunc(d, func() { p.fire(key, gen, false) })
	return gen
}

func (wallClock) disarm(p *Process, key proc.TimerKey, gen uint64) uint64 {
	if t := p.wall[key]; t != nil {
		t.Stop()
	}
	return gen + 1 // invalidates a fire already waiting for the lock
}

// SimClock returns a clock on s's virtual time. Each arm is one typed event
// (no closure) and each cancel is exact, so a fire is never stale, a timer
// costs the scheduler what a message does, and arms consume scheduler
// sequence numbers in the order the node calls SetTimer.
func SimClock(s *sim.Scheduler) Clock { return &simClock{s: s} }

type simClock struct{ s *sim.Scheduler }

func (c *simClock) Now() time.Duration { return time.Duration(c.s.Now()) }

func (c *simClock) arm(p *Process, key proc.TimerKey, ev uint64, d time.Duration) uint64 {
	c.s.Cancel(sim.EventID(ev)) // a fired or zero id is a no-op
	return uint64(c.s.AfterTyped(d, c, 0, uint64(key), p))
}

func (c *simClock) disarm(_ *Process, _ proc.TimerKey, ev uint64) uint64 {
	c.s.Cancel(sim.EventID(ev))
	return ev
}

// OnSimEvent implements sim.Handler: a timer expiry.
func (c *simClock) OnSimEvent(_ uint8, key uint64, p any) {
	p.(*Process).fire(proc.TimerKey(key), 0, true)
}

// NoLock is the simulator's callback lock: its event loop runs one callback
// at a time on one goroutine, so there is nothing to exclude.
var NoLock sync.Locker = noLock{}

type noLock struct{}

func (noLock) Lock()   {}
func (noLock) Unlock() {}

// Process is one member's transport-independent state. It is meant to be
// embedded by value in the transport's proc.Env implementation (it provides
// ID, N, Now, SetTimer and StopTimer of that interface) and must not be
// copied after Init.
type Process struct {
	// What a delivery reads comes first, side by side.
	lock sync.Locker // the callback lock; node, started and timers are under it
	node proc.Node
	// state is 2×incarnation, plus one while the process is down: the one
	// word read without the callback lock (Crashed, Incarnation). Written
	// only under it.
	state     atomic.Uint64
	started   bool
	stopped   bool
	onDeliver func(to proc.ID)
	// timers holds each armed key's clock token; wall holds the wall
	// clock's pending time.Timers (nil on the simulator).
	timers map[proc.TimerKey]uint64
	wall   map[proc.TimerKey]*time.Timer

	clock   Clock
	env     proc.Env // the embedding env: what nodes are started with
	id      proc.ID
	n       int
	onCrash func(id proc.ID)
}

// Init binds the process to the env that embeds it, its identity, its clock
// and its callback lock. onDeliver, when non-nil, runs after every delivered
// message while the callback lock is still held, so it may read process id's
// protocol state; it must not call back into the transport. onCrash, when
// non-nil, runs when a crash takes the process down, under the callback
// lock: the transport drops there whatever it still holds for the member.
func (p *Process) Init(env proc.Env, id proc.ID, n int, clock Clock, lock sync.Locker, onDeliver, onCrash func(proc.ID)) {
	p.env, p.id, p.n, p.clock, p.lock = env, id, n, clock, lock
	p.onDeliver, p.onCrash = onDeliver, onCrash
}

func (p *Process) ID() proc.ID        { return p.id }
func (p *Process) N() int             { return p.n }
func (p *Process) Now() time.Duration { return p.clock.Now() }

// Register installs the first incarnation; Start runs it. Node reports what
// is installed (nil before Register).
func (p *Process) Register(node proc.Node) {
	if node == nil {
		panic(fmt.Sprintf("host: Register of a nil node as process %d", p.id))
	}
	if p.node != nil {
		panic(fmt.Sprintf("host: process %d registered twice", p.id))
	}
	p.node = node
}

func (p *Process) Node() proc.Node { return p.node }

// Start runs the registered node's Start callback under the callback lock
// and reports whether it ran: a process starts once, and a process that
// crashed before its start never starts (only Restart brings it up).
func (p *Process) Start() bool {
	p.lock.Lock()
	defer p.lock.Unlock()
	if p.started || p.Crashed() {
		return false
	}
	p.started = true
	p.node.Start(p.env)
	return true
}

// Started reports whether the process has started. Read it under the
// callback lock (or on the simulator's event loop).
func (p *Process) Started() bool { return p.started }

// Lock and Unlock bracket a section during which no callback of this process
// executes, so protocol state may be read (or, carefully, poked) from any
// goroutine. Allocation-free. The section must not block on the transport.
func (p *Process) Lock()   { p.lock.Lock() }
func (p *Process) Unlock() { p.lock.Unlock() }

// Crashed reports whether the process is down.
func (p *Process) Crashed() bool { return p.state.Load()&1 != 0 }

// Incarnation returns the number of Restarts so far and whether the process
// is up. A transport that queues messages stamps them with it at arrival and
// hands the stamp back to DeliverTo.
func (p *Process) Incarnation() (inc uint64, up bool) {
	s := p.state.Load()
	return s >> 1, s&1 == 0
}

// Crash marks the process crashed, like a crash-stop failure: it stops
// sending, receiving and firing timers, and the node's OnCrash (if any) has
// run when Crash returns — if the node had started; a process crashed before
// its start never starts. Crashing a crashed process does nothing; Crash
// reports whether the process was up.
func (p *Process) Crash() bool {
	p.lock.Lock()
	defer p.lock.Unlock()
	if p.Crashed() {
		return false
	}
	p.state.Add(1)
	p.disarmLocked()
	if cr, ok := p.node.(proc.Crashable); ok && p.started {
		cr.OnCrash()
	}
	if p.onCrash != nil {
		p.onCrash(p.id)
	}
	return true
}

// Restart replaces the crashed process with the fresh incarnation built by
// build and starts it. build and Start run while the callback lock is held,
// so Lock holders never observe a half-swapped process, and when Restart
// returns the new incarnation is live. Restarting a process that is not down
// is a no-op; it reports whether the swap happened.
func (p *Process) Restart(build func() proc.Node) bool {
	if build == nil {
		panic("host: Restart with nil build")
	}
	p.lock.Lock()
	defer p.lock.Unlock()
	if !p.Crashed() {
		return false
	}
	node := build()
	if node == nil {
		panic(fmt.Sprintf("host: Restart build for process %d returned nil node", p.id))
	}
	p.state.Add(1)
	p.node = node
	p.started = true
	node.Start(p.env)
	return true
}

// Deliver hands one arrived message to the process under its callback lock:
// a crashed (or not yet started) process drops it — indistinguishable from
// reception by a dead process — and a live one runs OnMessage and then the
// delivery hook. It reports whether the message was delivered.
func (p *Process) Deliver(from proc.ID, msg any) bool {
	p.lock.Lock()
	return p.deliverLocked(!p.Crashed(), from, msg)
}

// DeliverTo is Deliver for a message that waited in a queue: it is also
// dropped when the process is no longer the incarnation inc it arrived at,
// so a copy queued behind a crash does not leak into a later incarnation.
func (p *Process) DeliverTo(inc uint64, from proc.ID, msg any) bool {
	p.lock.Lock()
	return p.deliverLocked(p.state.Load() == inc<<1, from, msg)
}

// deliverLocked runs with the callback lock held and releases it. The hot
// path of every transport: no defer.
func (p *Process) deliverLocked(live bool, from proc.ID, msg any) bool {
	if !live || !p.started {
		p.lock.Unlock()
		return false
	}
	p.node.OnMessage(from, msg)
	if p.onDeliver != nil {
		p.onDeliver(p.id)
	}
	p.lock.Unlock()
	return true
}

// SetTimer implements proc.Env. Timers are the node's: call SetTimer and
// StopTimer from its callbacks or under Lock, as the callback lock guards the
// timer table.
func (p *Process) SetTimer(key proc.TimerKey, d time.Duration) {
	if p.stopped || p.Crashed() {
		return
	}
	if p.timers == nil {
		p.timers = make(map[proc.TimerKey]uint64)
	}
	if d < 0 {
		d = 0
	}
	p.timers[key] = p.clock.arm(p, key, p.timers[key], d)
}

// StopTimer implements proc.Env.
func (p *Process) StopTimer(key proc.TimerKey) {
	if token, ok := p.timers[key]; ok {
		p.timers[key] = p.clock.disarm(p, key, token)
	}
}

// fire runs when the clock says key's timer expired: serialize, revalidate
// and run the callback. A wall-clock fire revalidates its generation
// (SetTimer/StopTimer/Crash/Stop invalidate in-flight fires); a simulator
// fire is exact, as its cancels are.
func (p *Process) fire(key proc.TimerKey, gen uint64, exact bool) {
	p.lock.Lock()
	if (exact || p.timers[key] == gen) && !p.Crashed() {
		p.node.OnTimer(key)
	}
	p.lock.Unlock()
}

// Stop disarms the process for good at cluster shutdown: pending timers are
// cancelled, in-flight fires invalidated and later SetTimer calls ignored
// (a periodic node would otherwise re-arm itself for ever). It waits for a
// callback in progress, so no timer callback runs after Stop returns.
func (p *Process) Stop() {
	p.lock.Lock()
	defer p.lock.Unlock()
	p.stopped = true
	p.disarmLocked()
}

func (p *Process) disarmLocked() {
	for key, token := range p.timers {
		p.timers[key] = p.clock.disarm(p, key, token)
	}
}
