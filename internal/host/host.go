// Package host is the wall-clock process host: the one implementation of
// the proc.Env contract's per-member half — atomically executed callbacks,
// local one-shot timers, crash-stop with fresh incarnations — for every
// transport that runs on real time. A transport (internal/runtime over
// in-memory mailboxes, internal/tcpnet over sockets) embeds a Process by
// value in its env, adds Send/Multicast and its links, and hands arriving
// messages to Deliver; everything about a member that does not depend on how
// its bytes travel lives here, once.
//
// What a Process guarantees:
//
//   - One callback lock. Start, OnMessage, OnTimer, OnCrash, a Restart's
//     build+Start and every Lock/Unlock section of one member exclude each
//     other, so a node needs no locking of its own and an observer holding
//     Lock sees protocol state between two statement blocks, never inside one.
//   - One timer table. Arming a key replaces its pending deadline; StopTimer,
//     Crash and Stop invalidate a fire that has already left the timer heap
//     (the generation check runs under the callback lock, after the wait).
//     Timers fire on their time.AfterFunc goroutine.
//   - Crash-stop. Crash is synchronous and idempotent: when it returns the
//     member sends nothing, receives nothing (Deliver drops, counted), fires
//     nothing, and OnCrash ran exactly once. Restart swaps in the node its
//     build returns and starts it, all under the callback lock.
//
// Stats is the one link-counter struct of the repository: the simulator
// counts into it on its event loop, the wall-clock transports through the
// atomic taps below.
package host

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/proc"
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

// Process is one member's transport-independent state. It is meant to be
// embedded by value in the transport's proc.Env implementation (it provides
// ID, N, Now, SetTimer and StopTimer of that interface) and must not be
// copied after Init.
type Process struct {
	env       proc.Env // the embedding env: what nodes are started with
	id        proc.ID
	n         int
	start     time.Time
	stats     *Stats
	onDeliver func(to proc.ID)

	// handleMu is the callback lock: held across every node callback and
	// between Lock and Unlock. Uncontended in steady state.
	handleMu sync.Mutex

	mu      sync.Mutex
	node    proc.Node
	crashed bool
	stopped bool
	inc     uint64 // incarnation counter, bumped by Restart
	timers  map[proc.TimerKey]*timerSlot
}

type timerSlot struct {
	gen   uint64
	timer *time.Timer
}

// Init binds the process to the env that embeds it, its identity, and the
// counters Deliver taps. onDeliver, when non-nil, runs after every delivered
// message while the callback lock is still held, so it may read process id's
// protocol state; it must not call back into the transport.
func (p *Process) Init(env proc.Env, id proc.ID, n int, stats *Stats, onDeliver func(to proc.ID)) {
	p.env, p.id, p.n, p.stats, p.onDeliver = env, id, n, stats, onDeliver
	p.start = time.Now()
}

func (p *Process) ID() proc.ID        { return p.id }
func (p *Process) N() int             { return p.n }
func (p *Process) Now() time.Duration { return time.Since(p.start) }

// Register installs the first incarnation; Start runs it. Node reports what
// is installed (nil before Register).
func (p *Process) Register(node proc.Node) { p.node = node }
func (p *Process) Node() proc.Node         { return p.node }

// Start runs the registered node's Start callback under the callback lock.
func (p *Process) Start() {
	p.handleMu.Lock()
	defer p.handleMu.Unlock()
	p.node.Start(p.env)
}

// Lock and Unlock bracket a section during which no callback of this process
// executes, so protocol state may be read (or, carefully, poked) from any
// goroutine. Allocation-free. The section must not block on the transport.
func (p *Process) Lock()   { p.handleMu.Lock() }
func (p *Process) Unlock() { p.handleMu.Unlock() }

// Crashed reports whether the process is down.
func (p *Process) Crashed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.crashed
}

// Incarnation returns the number of Restarts so far and whether the process
// is up. A transport that queues messages stamps them with it at arrival and
// hands the stamp back to DeliverTo.
func (p *Process) Incarnation() (inc uint64, up bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.inc, !p.crashed
}

// Crash marks the process crashed, like a crash-stop failure: it stops
// sending, receiving and firing timers, and the node's OnCrash (if any) has
// run when Crash returns. Crashing a crashed process does nothing; Crash
// reports whether the process was up.
func (p *Process) Crash() bool {
	p.handleMu.Lock()
	defer p.handleMu.Unlock()
	p.mu.Lock()
	if p.crashed {
		p.mu.Unlock()
		return false
	}
	p.crashed = true
	p.disarmLocked()
	node := p.node
	p.mu.Unlock()
	if cr, ok := node.(proc.Crashable); ok {
		cr.OnCrash()
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
	p.handleMu.Lock()
	defer p.handleMu.Unlock()
	if !p.Crashed() {
		return false
	}
	node := build()
	if node == nil {
		panic(fmt.Sprintf("host: Restart build for process %d returned nil node", p.id))
	}
	p.mu.Lock()
	p.crashed = false
	p.inc++
	p.node = node
	p.mu.Unlock()
	node.Start(p.env)
	return true
}

// Deliver hands one arrived message to the process under its callback lock:
// a crashed process drops it (indistinguishable from reception by a dead
// process), a live one runs OnMessage and then the delivery hook. It reports
// whether the message was delivered, and counts it either way.
func (p *Process) Deliver(from proc.ID, msg any) bool {
	return p.deliver(from, msg, 0, false)
}

// DeliverTo is Deliver for a message that waited in a queue: it is also
// dropped when the process is no longer the incarnation inc it arrived at,
// so a copy queued behind a crash does not leak into a later incarnation.
func (p *Process) DeliverTo(inc uint64, from proc.ID, msg any) bool {
	return p.deliver(from, msg, inc, true)
}

func (p *Process) deliver(from proc.ID, msg any, inc uint64, stamped bool) bool {
	p.handleMu.Lock()
	p.mu.Lock()
	live := !p.crashed && (!stamped || p.inc == inc)
	node := p.node
	p.mu.Unlock()
	if !live {
		p.handleMu.Unlock()
		p.stats.TapDropped()
		return false
	}
	node.OnMessage(from, msg)
	if p.onDeliver != nil {
		p.onDeliver(p.id)
	}
	p.handleMu.Unlock()
	p.stats.TapDelivered()
	return true
}

// SetTimer implements proc.Env.
func (p *Process) SetTimer(key proc.TimerKey, d time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.crashed || p.stopped {
		return
	}
	slot := p.timers[key]
	if slot == nil {
		if p.timers == nil {
			p.timers = make(map[proc.TimerKey]*timerSlot)
		}
		slot = &timerSlot{}
		p.timers[key] = slot
	} else if slot.timer != nil {
		slot.timer.Stop()
	}
	slot.gen++
	gen := slot.gen
	if d < 0 {
		d = 0
	}
	slot.timer = time.AfterFunc(d, func() { p.fire(key, gen) })
}

// StopTimer implements proc.Env.
func (p *Process) StopTimer(key proc.TimerKey) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if slot := p.timers[key]; slot != nil {
		slot.gen++ // invalidate any in-flight fire
		if slot.timer != nil {
			slot.timer.Stop()
		}
	}
}

// fire runs on the time.AfterFunc goroutine: serialize, revalidate the
// generation (SetTimer/StopTimer/Crash/Stop invalidate in-flight fires), and
// run the callback.
func (p *Process) fire(key proc.TimerKey, gen uint64) {
	p.handleMu.Lock()
	defer p.handleMu.Unlock()
	p.mu.Lock()
	slot := p.timers[key]
	live := slot != nil && slot.gen == gen && !p.crashed
	node := p.node
	p.mu.Unlock()
	if live {
		node.OnTimer(key)
	}
}

// Stop disarms the process for good at cluster shutdown: pending timers are
// cancelled, in-flight fires invalidated and later SetTimer calls ignored
// (a periodic node would otherwise re-arm itself for ever). It waits for a
// callback in progress, so no timer callback runs after Stop returns.
func (p *Process) Stop() {
	p.handleMu.Lock()
	defer p.handleMu.Unlock()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stopped = true
	p.disarmLocked()
}

func (p *Process) disarmLocked() {
	for _, slot := range p.timers {
		slot.gen++
		if slot.timer != nil {
			slot.timer.Stop()
		}
	}
}
