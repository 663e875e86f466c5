// Package tcpnet runs the same proc.Node protocol code that the simulator
// and the goroutine runtime drive, but over real TCP sockets: every message
// is encoded to a netwire frame, written to a kernel socket, and decoded on
// the receiving side into that receiver's own payload pools. It is the
// repository's first transport where the bytes actually leave the process —
// a cluster can be one OS process with N listeners on loopback, or N OS
// processes sharing a topology (cmd/starnet), or anything in between: each
// Cluster value hosts the members listed in Config.Local and reaches the
// rest by dialing their addresses.
//
// Topology: every member owns one TCP listener; every local member keeps
// one outbound, lazily-dialed, auto-reconnecting connection per peer. A
// connection opens with a netwire hello naming the sender and the cluster
// size, so a listener can reject strangers and topology mismatches before
// decoding a single protocol frame. Self-sends short-circuit through an
// in-process queue but still round-trip through the codec, so the bytes a
// node receives from itself are as real as everyone else's.
//
// Concurrency model: each hosted member is a host.Process on a
// host.WallClock with a sync.Mutex as its callback lock — timers and
// crash/restart are that package's; reach a member through Process — and
// this package adds the links. Connection readers call Deliver
// synchronously (it takes the member's callback lock) and recycle the
// decoded payload when it returns, so each reader's netwire.Pools stays
// single-owner. No mailbox is needed for that: a reader holds no callback
// lock of its own while it waits for the receiver's.
//
// Fidelity to the model: the paper assumes reliable links; a TCP cluster
// under churn does not have them (frames die with a broken connection, in
// a full queue, or under an injected Policy). The protocols tolerate this
// because they are periodic — every ALIVE/SUSPICION lost is compensated by
// the next tick — which is precisely why the paper's scenarios of
// intermittent connectivity are runnable here at all. Crash/Restart model
// crash-stop at the process-abstraction level (the OS process stays up);
// real process death and re-exec is cmd/starnet's job. A crashed member's
// listener and links stay up: its endpoints silently eat frames, which is
// indistinguishable from reception by a dead process, and a restarted
// incarnation hears its peers immediately.
//
// Stats taps every link on the sending side (Sent, Bytes, per-kind) and the
// delivery point on the receiving side (Delivered, Dropped). Bytes count
// real framed bytes: the length of the one encoded frame, charged per
// destination, which is wire.Message.Size() + netwire.FrameOverhead. In a
// multi-process cluster each process naturally sees only its own taps.
package tcpnet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bitset"
	"repro/internal/host"
	"repro/internal/netwire"
	"repro/internal/proc"
	"repro/internal/wire"
)

const (
	// queueCap bounds each outbound link queue; beyond it the oldest frame
	// is dropped (and counted), so a dead peer costs bounded memory.
	queueCap = 1024
	// helloTimeout bounds how long an accepted connection may take to
	// identify itself.
	helloTimeout = 5 * time.Second
	// dialTimeout bounds one dial attempt; reconnectMin/Max bound the
	// backoff between attempts.
	dialTimeout  = 2 * time.Second
	reconnectMin = 20 * time.Millisecond
	reconnectMax = 1 * time.Second
	// writeTimeout bounds one frame write (hello included): a black-holed
	// peer — accepting but never reading, receive window closed — fails the
	// write instead of wedging the writer goroutine forever.
	writeTimeout = 3 * time.Second
	// breakerThreshold consecutive dial failures open a link's circuit
	// breaker: for breakerCooldown the writer drops frames immediately
	// instead of redialing a peer that keeps refusing. After the cooldown
	// the next frame is the half-open probe — one real dial; success closes
	// the breaker, failure re-opens it without burning a backoff sleep.
	breakerThreshold = 5
	breakerCooldown  = 500 * time.Millisecond
)

// Config parameterizes a Cluster.
type Config struct {
	// N is the total number of processes in the system.
	N int
	// Addrs[i] is member i's listen address ("host:port"). A local member
	// may use port 0 (resolved at Start; read it back with Addr); a remote
	// member's port must be explicit, since this process has to dial it.
	Addrs []string
	// Local lists the member ids this Cluster hosts. nil means all of them
	// (the single-process, N-listener cluster).
	Local []proc.ID
	// Policy, when non-nil, filters and delays outbound frames (loss,
	// partitions, jitter): a refused frame is counted Dropped and never
	// reaches the socket, a delayed one is held back on a timer before it
	// reaches the link queue. star.Network sets it to the cluster's
	// chaos.Faults under WithChaos and leaves it nil otherwise.
	Policy proc.LinkFault
}

// Cluster owns this process's share of the members and their links.
type Cluster struct {
	cfg   Config
	addrs []string // resolved at Start for local :0 listeners
	local []bool
	envs  []*env // nil for remote members

	listeners []net.Listener
	links     [][]*link // links[i][j] for local i; links[i][i] is the loopback

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	started bool
	stats   host.Stats // tapped atomically; snapshot via Stats()
}

// New creates a cluster; register the local nodes, then Start it.
func New(cfg Config) (*Cluster, error) {
	if cfg.N < 1 {
		return nil, fmt.Errorf("tcpnet: N must be >= 1, got %d", cfg.N)
	}
	if len(cfg.Addrs) != cfg.N {
		return nil, fmt.Errorf("tcpnet: got %d addresses for %d members", len(cfg.Addrs), cfg.N)
	}
	local := make([]bool, cfg.N)
	if cfg.Local == nil {
		for i := range local {
			local[i] = true
		}
	} else {
		if len(cfg.Local) == 0 {
			return nil, errors.New("tcpnet: empty Local (nil means all members)")
		}
		for _, id := range cfg.Local {
			if id < 0 || id >= cfg.N {
				return nil, fmt.Errorf("tcpnet: local member %d out of range [0, %d)", id, cfg.N)
			}
			if local[id] {
				return nil, fmt.Errorf("tcpnet: local member %d listed twice", id)
			}
			local[id] = true
		}
	}
	for id, addr := range cfg.Addrs {
		_, port, err := net.SplitHostPort(addr)
		if err != nil {
			return nil, fmt.Errorf("tcpnet: member %d address %q: %v", id, addr, err)
		}
		if !local[id] && (port == "0" || port == "") {
			return nil, fmt.Errorf("tcpnet: remote member %d needs an explicit port, got %q", id, addr)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	c := &Cluster{
		cfg:       cfg,
		addrs:     append([]string(nil), cfg.Addrs...),
		local:     local,
		envs:      make([]*env, cfg.N),
		listeners: make([]net.Listener, cfg.N),
		links:     make([][]*link, cfg.N),
		ctx:       ctx,
		cancel:    cancel,
		conns:     make(map[net.Conn]struct{}),
	}
	clock := host.WallClock()
	for id := range c.envs {
		if local[id] {
			e := &env{c: c}
			e.Init(e, id, cfg.N, clock, &e.mu, nil, nil)
			c.envs[id] = e
		}
	}
	return c, nil
}

// IsLocal reports whether member id is hosted by this Cluster.
func (c *Cluster) IsLocal(id proc.ID) bool { return c.local[id] }

// Register installs node as local process id; must precede Start.
func (c *Cluster) Register(id proc.ID, node proc.Node) {
	if c.started {
		panic("tcpnet: Register after Start")
	}
	c.mustLocal(id).Register(node)
}

// Process returns local member id's process (nil for a remote member):
// crash it, restart it or lock it there.
func (c *Cluster) Process(id proc.ID) *host.Process {
	if e := c.envs[id]; e != nil {
		return &e.Process
	}
	return nil
}

// Start binds every local listener (resolving :0 ports), creates the
// outbound links, runs every local node's Start callback, and launches the
// accept loops and link writers. Connections to peers are dialed lazily on
// first send and reconnect with backoff, so members of a multi-process
// cluster may Start in any order.
func (c *Cluster) Start() error {
	if c.started {
		panic("tcpnet: double Start")
	}
	for id := range c.envs {
		if c.local[id] && c.envs[id].Node() == nil {
			panic(fmt.Sprintf("tcpnet: local process %d not registered", id))
		}
	}
	c.started = true
	for id := range c.addrs {
		if !c.local[id] {
			continue
		}
		ln, err := net.Listen("tcp", c.addrs[id])
		if err != nil {
			c.closeListeners()
			return fmt.Errorf("tcpnet: member %d listen %q: %w", id, c.addrs[id], err)
		}
		c.listeners[id] = ln
		c.addrs[id] = ln.Addr().String()
	}
	for id := range c.envs {
		if !c.local[id] {
			continue
		}
		row := make([]*link, c.cfg.N)
		for to := 0; to < c.cfg.N; to++ {
			row[to] = newLink(c, id, to)
		}
		c.links[id] = row
	}
	// Start callbacks run with the links in place (first sends enqueue) but
	// before any reader can deliver, so every node initializes unobserved.
	for _, e := range c.envs {
		if e != nil {
			e.Process.Start()
		}
	}
	for id := range c.envs {
		if !c.local[id] {
			continue
		}
		c.wg.Add(1)
		go c.acceptLoop(id, c.listeners[id])
		for _, l := range c.links[id] {
			c.wg.Add(1)
			go l.run()
		}
	}
	return nil
}

// Addr returns member id's address, with a local :0 port resolved (valid
// after Start).
func (c *Cluster) Addr(id proc.ID) string { return c.addrs[id] }

// Stats returns a snapshot of the link counters.
func (c *Cluster) Stats() host.Stats { return c.stats.Snapshot() }

// Inspect runs f serialized against local process id's callbacks, so f may
// safely read the node's protocol state from any goroutine.
func (c *Cluster) Inspect(id proc.ID, f func()) {
	e := c.mustLocal(id)
	e.Lock()
	defer e.Unlock()
	f()
}

// Drain waits — up to grace — for every outbound link to go idle: queues
// empty and no writer goroutine holding a frame mid-write. Call it before
// Stop when the final frames matter (a closing cluster's last multicast
// fan-out would otherwise race the teardown); a wedged or partitioned link
// cannot extend the wait beyond grace. It returns true when the links
// drained, false when the grace period expired first.
func (c *Cluster) Drain(grace time.Duration) bool {
	deadline := time.Now().Add(grace)
	for {
		if c.linksIdle() {
			return true
		}
		if c.stopped() || !time.Now().Before(deadline) {
			return c.linksIdle()
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (c *Cluster) linksIdle() bool {
	for _, row := range c.links {
		for _, l := range row {
			if l == nil {
				continue
			}
			if l.inflight.Load() != 0 {
				return false
			}
			l.mu.Lock()
			pending := len(l.queue) - l.head
			l.mu.Unlock()
			if pending != 0 {
				return false
			}
		}
	}
	return true
}

// Stop shuts this process's share of the cluster down: listeners close,
// connections drop, link writers and readers drain out, timers disarm. The
// cluster cannot be restarted. Remote members are unaffected beyond seeing
// the connections break.
func (c *Cluster) Stop() {
	c.cancel()
	for _, e := range c.envs {
		if e != nil {
			e.Process.Stop()
		}
	}
	c.closeListeners()
	for _, row := range c.links {
		for _, l := range row {
			if l != nil {
				l.close()
			}
		}
	}
	c.connMu.Lock()
	for conn := range c.conns {
		conn.Close()
	}
	c.connMu.Unlock()
	c.wg.Wait()
}

func (c *Cluster) closeListeners() {
	for _, ln := range c.listeners {
		if ln != nil {
			ln.Close()
		}
	}
}

func (c *Cluster) mustLocal(id proc.ID) *env {
	e := c.envs[id]
	if e == nil {
		panic(fmt.Sprintf("tcpnet: process %d is not local", id))
	}
	return e
}

func (c *Cluster) stopped() bool {
	select {
	case <-c.ctx.Done():
		return true
	default:
		return false
	}
}

// acceptLoop accepts inbound connections for local member id.
func (c *Cluster) acceptLoop(id proc.ID, ln net.Listener) {
	defer c.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed (Stop) or fatally broken
		}
		c.connMu.Lock()
		c.conns[conn] = struct{}{}
		c.connMu.Unlock()
		c.wg.Add(1)
		go c.serveConn(id, conn)
	}
}

// serveConn reads one peer's frames for local member id: hello first, then
// protocol frames decoded into this reader's own pools and dispatched under
// the member's callback lock. Any framing error kills the connection — the
// peer's writer will reconnect with a fresh hello.
func (c *Cluster) serveConn(id proc.ID, conn net.Conn) {
	defer c.wg.Done()
	defer func() {
		conn.Close()
		c.connMu.Lock()
		delete(c.conns, conn)
		c.connMu.Unlock()
	}()
	conn.SetReadDeadline(time.Now().Add(helloTimeout))
	buf, err := netwire.ReadFrame(conn, nil)
	if err != nil {
		return
	}
	from, n, err := netwire.ParseHello(buf)
	if err != nil || n != c.cfg.N || from < 0 || from >= c.cfg.N {
		return
	}
	conn.SetReadDeadline(time.Time{})
	pools := &netwire.Pools{MaxEntries: n}
	e := c.envs[id]
	for {
		buf, err = netwire.ReadFrame(conn, buf)
		if err != nil {
			return
		}
		m, err := pools.Decode(buf)
		if err != nil {
			c.stats.TapDropped()
			return
		}
		e.deliver(from, m)
	}
}

// buffer is a reference-counted encoded frame: one encode fanned out to
// many link queues, returned to the pool when the last writer is done.
type buffer struct {
	b    []byte
	refs int32
}

var bufPool = sync.Pool{New: func() any { return &buffer{} }}

func (b *buffer) retain() { atomic.AddInt32(&b.refs, 1) }

func (b *buffer) release() {
	if atomic.AddInt32(&b.refs, -1) == 0 {
		bufPool.Put(b)
	}
}

// link carries frames from local member `from` to member `to`. For to ==
// from it is the loopback queue (decode in-process, no socket); otherwise a
// writer goroutine dials to's listener on demand and streams the queue,
// reconnecting with backoff after any failure. The queue is bounded: when
// full, the oldest frame is dropped and counted, so a dead peer costs
// bounded memory while the periodic protocols keep refreshing the queue
// with current state.
type link struct {
	c        *Cluster
	from, to proc.ID

	// queue[head:] are the frames waiting for the writer. pop advances head
	// and rewinds both to the start of the backing array when the queue
	// drains, so a link that keeps up reuses one array for ever instead of
	// reallocating each time append runs off the end of a resliced queue.
	mu     sync.Mutex
	queue  []*buffer
	head   int
	conn   net.Conn
	closed bool
	signal chan struct{}

	// inflight is 1 while the writer goroutine holds a popped frame (being
	// written or dropped); Drain polls it so a frame between queue and
	// socket is not mistaken for an idle link.
	inflight atomic.Int32

	// Circuit-breaker state, touched only by the writer goroutine.
	dialFails int       // consecutive dial failures
	openUntil time.Time // breaker open (fast-drop) until this instant
}

func newLink(c *Cluster, from, to proc.ID) *link {
	return &link{c: c, from: from, to: to, signal: make(chan struct{}, 1)}
}

// enqueue hands one retained frame reference to the link.
func (l *link) enqueue(b *buffer) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		b.release()
		return
	}
	var evicted *buffer
	if len(l.queue)-l.head >= queueCap {
		evicted = l.queue[l.head]
		l.queue[l.head] = nil
		l.head++
	}
	if l.head > 0 && len(l.queue) == cap(l.queue) {
		// Out of room behind a consumed prefix: slide the live frames down
		// rather than let append grow the array.
		n := copy(l.queue, l.queue[l.head:])
		clear(l.queue[n:])
		l.queue, l.head = l.queue[:n], 0
	}
	l.queue = append(l.queue, b)
	l.mu.Unlock()
	if evicted != nil {
		evicted.release()
		l.c.stats.TapDropped()
	}
	select {
	case l.signal <- struct{}{}:
	default:
	}
}

// pop blocks until a frame is queued or the cluster stops.
func (l *link) pop() (*buffer, bool) {
	for {
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			return nil, false
		}
		if l.head < len(l.queue) {
			b := l.queue[l.head]
			l.queue[l.head] = nil
			if l.head++; l.head == len(l.queue) {
				l.queue, l.head = l.queue[:0], 0
			}
			// Marked before the queue slot is visibly empty (still under
			// mu), so Drain never sees "empty queue, nothing in flight"
			// while a frame is in hand.
			l.inflight.Store(1)
			l.mu.Unlock()
			return b, true
		}
		l.mu.Unlock()
		select {
		case <-l.signal:
		case <-l.c.ctx.Done():
			return nil, false
		}
	}
}

func (l *link) close() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.closed = true
	queue := l.queue[l.head:]
	l.queue, l.head = nil, 0
	conn := l.conn
	l.conn = nil
	l.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
	for _, b := range queue {
		b.release()
	}
	select {
	case l.signal <- struct{}{}:
	default:
	}
}

// run is the link's goroutine: the loopback decodes and delivers in
// process; a peer link writes frames to the socket, (re)dialing as needed.
func (l *link) run() {
	defer l.c.wg.Done()
	if l.to == l.from {
		l.runLoopback()
		return
	}
	backoff := reconnectMin
	for {
		b, ok := l.pop()
		if !ok {
			return
		}
		conn := l.ensureConn(&backoff)
		if conn == nil {
			b.release()
			l.c.stats.TapDropped()
			l.inflight.Store(0)
			if l.c.stopped() {
				return
			}
			continue
		}
		conn.SetWriteDeadline(time.Now().Add(writeTimeout))
		_, err := conn.Write(b.b)
		b.release()
		l.inflight.Store(0)
		if err != nil {
			l.dropConn(conn)
			l.c.stats.TapDropped()
		}
	}
}

// runLoopback consumes the self-link: decode through this goroutine's own
// pools (the bytes are as real as a socket's) and deliver.
func (l *link) runLoopback() {
	pools := &netwire.Pools{MaxEntries: l.c.cfg.N}
	e := l.c.envs[l.from]
	for {
		b, ok := l.pop()
		if !ok {
			return
		}
		m, err := pools.Decode(b.b[4:]) // strip the length prefix
		b.release()
		if err != nil {
			l.c.stats.TapDropped()
			l.inflight.Store(0)
			continue
		}
		e.deliver(l.from, m)
		l.inflight.Store(0)
	}
}

// ensureConn returns the link's connection, dialing (with hello) if there is
// none. On dial failure it sleeps the current backoff and returns nil; after
// breakerThreshold consecutive failures the circuit breaker opens and frames
// drop immediately (no dial, no sleep) until the cooldown elapses, when the
// next frame becomes the half-open probe.
func (l *link) ensureConn(backoff *time.Duration) net.Conn {
	l.mu.Lock()
	conn := l.conn
	l.mu.Unlock()
	if conn != nil {
		return conn
	}
	if !l.openUntil.IsZero() && time.Now().Before(l.openUntil) {
		return nil // breaker open: fast-drop without dialing
	}
	d := net.Dialer{Timeout: dialTimeout}
	conn, err := d.DialContext(l.c.ctx, "tcp", l.c.addrs[l.to])
	if err == nil {
		conn.SetWriteDeadline(time.Now().Add(writeTimeout))
		hello := netwire.AppendHello(nil, l.from, l.c.cfg.N)
		if _, werr := conn.Write(hello); werr != nil {
			conn.Close()
			err = werr
		}
	}
	if err != nil {
		l.dialFails++
		if l.dialFails >= breakerThreshold {
			l.openUntil = time.Now().Add(breakerCooldown)
			l.c.stats.TapBreakerOpen()
			return nil
		}
		select {
		case <-time.After(*backoff):
		case <-l.c.ctx.Done():
		}
		if *backoff *= 2; *backoff > reconnectMax {
			*backoff = reconnectMax
		}
		return nil
	}
	l.dialFails = 0
	l.openUntil = time.Time{}
	*backoff = reconnectMin
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		conn.Close()
		return nil
	}
	l.conn = conn
	l.mu.Unlock()
	return conn
}

// dropConn discards a broken connection so the next frame redials.
func (l *link) dropConn(conn net.Conn) {
	conn.Close()
	l.mu.Lock()
	if l.conn == conn {
		l.conn = nil
	}
	l.mu.Unlock()
}

// env implements proc.Env for one local member: the host.Process plus the
// sending side of its links.
type env struct {
	host.Process
	mu sync.Mutex // the callback lock
	c  *Cluster
}

// Send implements proc.Env.
func (e *env) Send(to proc.ID, msg any) {
	if e.Crashed() {
		return
	}
	b, k, size := e.encode(msg)
	e.c.stats.TapSent(k, size)
	if b == nil {
		e.c.stats.TapDropped()
		return
	}
	e.sendFrame(to, b)
	b.release()
}

// Multicast implements proc.Env: ONE encode, fanned out to the per-dest
// links in ascending id order (the contract's semantics), each destination
// holding its own reference on the shared frame buffer. dests is only read
// during the call.
func (e *env) Multicast(dests *bitset.Set, msg any) {
	if e.Crashed() {
		return
	}
	b, k, size := e.encode(msg)
	for to := 0; to < dests.Len(); to++ {
		if !dests.Contains(to) {
			continue
		}
		e.c.stats.TapSent(k, size)
		if b == nil {
			e.c.stats.TapDropped()
			continue
		}
		e.sendFrame(to, b)
	}
	if b != nil {
		b.release()
	}
}

// encode frames msg into a pooled buffer holding one reference (the
// caller's fan-out hold; release after fanning). It also returns what the
// byte accounting needs, once per send: msg's wire kind (0 if msg is not a
// wire message) and the frame length, the bytes each destination's socket
// carries. A message the codec cannot frame returns a nil buffer and size
// 0 — the caller counts the loss.
func (e *env) encode(msg any) (b *buffer, k wire.Kind, size int) {
	wm, ok := msg.(wire.Message)
	if !ok {
		return nil, 0, 0
	}
	b = bufPool.Get().(*buffer)
	var err error
	b.b, err = netwire.AppendFrame(b.b[:0], wm)
	if err != nil {
		bufPool.Put(b)
		return nil, wm.Kind(), 0
	}
	atomic.StoreInt32(&b.refs, 1)
	return b, wm.Kind(), len(b.b)
}

// sendFrame routes one reference of the frame to destination to, applying
// the link policy (refusals count as drops, delays hold the frame back on a
// timer before it reaches the link queue).
func (e *env) sendFrame(to proc.ID, b *buffer) {
	l := e.c.links[e.ID()][to]
	if p := e.c.cfg.Policy; p != nil {
		if !p.Admit(e.ID(), to) {
			e.c.stats.TapDropped()
			return
		}
		if d := p.Delay(e.ID(), to); d > 0 {
			b.retain()
			time.AfterFunc(d, func() { l.enqueue(b) })
			return
		}
	}
	b.retain()
	l.enqueue(b)
}

// deliver dispatches one decoded frame to the member and recycles the
// payload afterwards (the caller's pools stay single-owner because deliver
// runs on the caller's goroutine).
func (e *env) deliver(from proc.ID, m wire.Message) {
	if e.Deliver(from, m) {
		e.c.stats.TapDelivered()
	} else {
		e.c.stats.TapDropped()
	}
	if rc, ok := m.(wire.Recyclable); ok {
		rc.Retain()
		rc.Recycle()
	}
}

var _ proc.Env = (*env)(nil)
