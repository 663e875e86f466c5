// Package runtime runs the same proc.Node protocol code that the simulator
// drives, but live: one goroutine per process, channel-based links with an
// injectable delay function, and real wall-clock timers. It exists to
// demonstrate that the algorithms are transport-independent (the examples
// use it) and to exercise the implementations under true concurrency (the
// race detector runs over these tests).
//
// Each process is a host.Process on a host.WallClock with a sync.Mutex as its
// callback lock — timers, crash/restart and the delivery hook are that
// package's; reach a member through Process — and this package adds the links:
// sends enqueue into the destination's unbounded mailbox after the injected
// delay, and one consumer goroutine per process drains it into Deliver.
// Links are reliable and unordered, like the model's. The mailbox is not an
// optimisation: a synchronous in-memory deliver would run the receiver's
// callback under the sender's callback lock, and two processes sending to
// each other would deadlock on each other's locks.
//
// Because messages wait in a queue, a copy can sit behind a crash; each one
// is stamped with the receiver's incarnation at arrival and dropped at
// processing if the process has since crashed or restarted, so nothing leaks
// from one incarnation into the next.
//
// What the live cluster cannot offer is determinism and the assumption
// machinery (delay schedules beyond Config.Delay, order gates); the star
// façade declares exactly this split via transport capabilities.
package runtime

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/bitset"
	"repro/internal/host"
	"repro/internal/proc"
	"repro/internal/wire"
)

// DelayFunc chooses a per-message transfer delay. It must be safe for
// concurrent use. nil means immediate delivery.
type DelayFunc func(from, to proc.ID, msg any) time.Duration

// Config parameterizes a Cluster.
type Config struct {
	N     int
	Delay DelayFunc

	// OnDeliver, when non-nil, observes every message delivery, after the
	// receiving node processed it. It runs on the receiver's consumer
	// goroutine while that process's callback lock is held (the same lock
	// Inspect takes), so it may read process to's protocol
	// state without further synchronization. It must be safe for
	// concurrent invocation across DIFFERENT receivers, and must not call
	// back into the cluster.
	OnDeliver func(to proc.ID)

	// Fault, when non-nil, is the chaos-layer link-fault overlay: a send it
	// refuses is dropped (counted sent and dropped, like a faulted link),
	// and its Delay adds to the configured DelayFunc. It is called from
	// process goroutines and must be safe for concurrent use.
	Fault proc.LinkFault
}

// event is one queued message copy, stamped with the receiver's incarnation
// at arrival time.
type event struct {
	from proc.ID
	msg  any
	inc  uint64
}

// Cluster owns the processes and their links.
type Cluster struct {
	cfg     Config
	envs    []renv
	started bool
	stopped chan struct{}
	wg      sync.WaitGroup
	stats   host.Stats // tapped atomically; snapshot via Stats()
}

// New creates a cluster; register nodes, then Start it.
func New(cfg Config) (*Cluster, error) {
	if cfg.N < 1 {
		return nil, fmt.Errorf("runtime: N must be >= 1, got %d", cfg.N)
	}
	c := &Cluster{cfg: cfg, envs: make([]renv, cfg.N), stopped: make(chan struct{})}
	clock := host.WallClock()
	for id := range c.envs {
		e := &c.envs[id]
		e.cluster = c
		e.box.signal = make(chan struct{}, 1)
		e.Init(e, id, cfg.N, clock, &e.mu, cfg.OnDeliver, nil)
	}
	return c, nil
}

// Register installs node as process id; must precede Start.
func (c *Cluster) Register(id proc.ID, node proc.Node) {
	if c.started {
		panic("runtime: Register after Start")
	}
	c.envs[id].Register(node)
}

// Process returns member id's process: crash it, restart it or lock it
// there.
func (c *Cluster) Process(id proc.ID) *host.Process { return &c.envs[id].Process }

// Start runs every node's Start callback (synchronously, so the cluster is
// fully initialized when Start returns) and launches the process
// goroutines.
func (c *Cluster) Start() {
	if c.started {
		panic("runtime: double Start")
	}
	c.started = true
	for id := range c.envs {
		if c.envs[id].Node() == nil {
			panic(fmt.Sprintf("runtime: process %d not registered", id))
		}
	}
	for id := range c.envs {
		c.envs[id].Process.Start()
	}
	for id := range c.envs {
		c.wg.Add(1)
		go c.runProcess(&c.envs[id])
	}
}

// runProcess is the per-process consumer loop. It keeps draining while the
// process is down (senders never care; DeliverTo discards), and a Restart
// makes the same loop the new incarnation's consumer.
func (c *Cluster) runProcess(e *renv) {
	defer c.wg.Done()
	for {
		ev, ok := e.box.pop(c.stopped)
		if !ok {
			return
		}
		// Crashed after arrival, or a leftover of a previous incarnation:
		// the message dies with its addressee. Across a Restart, messages
		// that arrived while the process was down were dropped at arrival,
		// and messages still in flight reach the new incarnation, exactly
		// like the simulator's churn semantics.
		if e.DeliverTo(ev.inc, ev.from, ev.msg) {
			c.stats.TapDelivered()
		} else {
			c.stats.TapDropped()
		}
	}
}

// Stats returns a snapshot of the link counters.
func (c *Cluster) Stats() host.Stats { return c.stats.Snapshot() }

// Inspect runs f serialized against process id's callbacks: while f runs,
// no message, timer or crash callback of that process executes, so f may
// safely read (or, carefully, poke) the node's protocol state from any
// goroutine. f must not call Inspect or block on the cluster.
func (c *Cluster) Inspect(id proc.ID, f func()) {
	e := &c.envs[id]
	e.Lock()
	defer e.Unlock()
	f()
}

// Stop shuts the cluster down and waits for all process goroutines and
// timer callbacks to finish. The cluster cannot be restarted.
func (c *Cluster) Stop() {
	close(c.stopped)
	for id := range c.envs {
		c.envs[id].Stop()
	}
	c.wg.Wait()
}

// renv implements proc.Env for one live process: the host.Process plus the
// sending side of its links and its mailbox.
type renv struct {
	host.Process
	mu      sync.Mutex // the callback lock
	cluster *Cluster
	box     mailbox
}

// Send implements proc.Env.
func (e *renv) Send(to proc.ID, msg any) {
	if e.Crashed() {
		return
	}
	k, size := measure(msg)
	e.sendOne(to, msg, k, size)
}

// Multicast implements proc.Env: one transmission per destination over the
// channel links (each leg draws its own delay, like the unicast path). The
// payload pointer is shared by all destinations — the repository's standing
// "immutable once sent" contract — and dests is only read during the call.
func (e *renv) Multicast(dests *bitset.Set, msg any) {
	if e.Crashed() {
		return
	}
	k, size := measure(msg)
	for to := 0; to < dests.Len(); to++ {
		if dests.Contains(to) {
			e.sendOne(to, msg, k, size)
		}
	}
}

// measure returns msg's wire kind and encoded size, or (0, 0) for a payload
// that is not a wire message. Senders call it once per send: Size is O(n)
// for the vector kinds.
func measure(msg any) (wire.Kind, int) {
	if wm, ok := msg.(wire.Message); ok {
		return wm.Kind(), wm.Size()
	}
	return 0, 0
}

// sendOne counts one copy of msg, of kind k and size bytes, and routes it
// to its destination after the injected delay. Arrival (the mailbox push)
// is where a down receiver drops the message, mirroring the simulator's
// delivery-time drop.
func (e *renv) sendOne(to proc.ID, msg any, k wire.Kind, size int) {
	c, from := e.cluster, e.ID()
	c.stats.TapSent(k, size)
	lf := c.cfg.Fault
	if lf != nil && !lf.Admit(from, to) {
		// Chaos overlay refusal: the copy was sent and the link ate it.
		c.stats.TapDropped()
		return
	}
	dst := &c.envs[to]
	var d time.Duration
	if f := c.cfg.Delay; f != nil {
		d = f(from, to, msg)
	}
	if lf != nil {
		d += lf.Delay(from, to)
	}
	if d <= 0 {
		dst.arrive(from, msg)
		return
	}
	// In-flight messages are dropped wholesale at Stop.
	time.AfterFunc(d, func() {
		select {
		case <-c.stopped:
		default:
			dst.arrive(from, msg)
		}
	})
}

// arrive is the arrival instant of one message copy: a down receiver drops
// it; a live one enqueues it stamped with its current incarnation.
func (e *renv) arrive(from proc.ID, msg any) {
	inc, up := e.Incarnation()
	if !up {
		e.cluster.stats.TapDropped()
		return
	}
	e.box.push(event{from: from, msg: msg, inc: inc})
}

var _ proc.Env = (*renv)(nil)

// mailbox is an unbounded MPSC queue: senders never block (links must not
// exert backpressure in the model) and the single consumer waits on a
// condition signal.
//
// items[head:] are the waiting events. pop advances head and rewinds both to
// the start of the backing array when the queue drains, and push slides the
// live events down when it runs out of room behind a consumed prefix, so a
// consumer that keeps up reuses one array for ever. (tcpnet's link queue
// uses the same idiom; the two are not shared because the link's bound,
// eviction, in-flight mark and closed state would make a common queue branch
// on its caller.)
type mailbox struct {
	mu     sync.Mutex
	items  []event
	head   int
	signal chan struct{}
}

func (m *mailbox) push(ev event) {
	m.mu.Lock()
	if m.head > 0 && len(m.items) == cap(m.items) {
		n := copy(m.items, m.items[m.head:])
		clear(m.items[n:])
		m.items, m.head = m.items[:n], 0
	}
	m.items = append(m.items, ev)
	m.mu.Unlock()
	select {
	case m.signal <- struct{}{}:
	default:
	}
}

// pop blocks until an event is available or stop is closed.
func (m *mailbox) pop(stop <-chan struct{}) (event, bool) {
	for {
		m.mu.Lock()
		if m.head < len(m.items) {
			ev := m.items[m.head]
			m.items[m.head] = event{}
			if m.head++; m.head == len(m.items) {
				m.items, m.head = m.items[:0], 0
			}
			m.mu.Unlock()
			return ev, true
		}
		m.mu.Unlock()
		select {
		case <-m.signal:
		case <-stop:
			return event{}, false
		}
	}
}
