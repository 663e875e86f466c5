package wire

import "repro/internal/bitset"

// Message pooling: every protocol layer sends a handful of message kinds at
// high rate, and in the seed each send allocated a fresh payload (plus its
// slice or bitset) that became garbage the moment the last recipient
// processed it. Pools close that loop without changing the messaging
// contract ("immutable by convention once sent, passed by pointer"):
//
//   - A node obtains payloads from its own per-node pool (pools are
//     single-owner, like all protocol state — no locking).
//   - The transport, which alone knows when a payload's last delivery
//     completes, reference-counts pooled payloads: netsim calls Retain once
//     per send and Recycle once per consumed delivery (delivered or dropped
//     at a crashed receiver). When the count returns to zero the payload
//     goes back on its pool's free list.
//   - Transports that cannot track delivery completion (the goroutine
//     runtime) simply never call Retain/Recycle; pooled payloads then age
//     out to the garbage collector and the pool's Get falls back to
//     allocating, which is exactly the seed behaviour.
//   - Messages built by hand (tests) have no home pool; Retain and
//     Recycle are no-ops on them.
//
// The contract this imposes on receivers is the one the package already
// documents: do not retain a payload pointer past the OnMessage callback —
// copy what you need. Every receiver in this repository already complied.

// Recyclable is implemented by pooled messages. Only transports call these
// methods; see the package comment above for the ownership rules.
type Recyclable interface {
	// Retain adds one transport reference (one send).
	Retain()
	// Recycle drops one reference; on the last, the message returns to
	// its pool (if it has one).
	Recycle()
}

// freeList is the shared free-list mechanics behind every typed pool.
type freeList struct{ free []Message }

func (f *freeList) pop() Message {
	if k := len(f.free); k > 0 {
		m := f.free[k-1]
		f.free[k-1] = nil
		f.free = f.free[:k-1]
		return m
	}
	return nil
}

// ref is embedded by poolable message types: a transport reference count
// plus the way home.
type ref struct {
	refs int32
	home *freeList
	self Message
}

// bind attaches a freshly allocated message to its pool.
func (r *ref) bind(home *freeList, self Message) {
	r.home = home
	r.self = self
}

// Retain implements Recyclable.
func (r *ref) Retain() { r.refs++ }

// Recycle implements Recyclable.
func (r *ref) Recycle() {
	r.refs--
	if r.refs <= 0 && r.home != nil {
		r.home.free = append(r.home.free, r.self)
	}
}

// AlivePool recycles Alive messages together with their SuspLevel arrays.
type AlivePool struct{ fl freeList }

// Get returns a free Alive with SuspLevel sized n (contents stale) and no
// summary. SuspLevel's capacity leaves room for one (see Alive).
func (p *AlivePool) Get(n int) *Alive {
	if m := p.fl.pop(); m != nil {
		a := m.(*Alive)
		if w := a.summary(); len(a.SuspLevel) == n && w != nil {
			w[n/64] &^= 1 << (n % 64)
		} else {
			a.SuspLevel = make([]int64, n, n+bitset.WordsFor(n+1))
		}
		return a
	}
	a := &Alive{SuspLevel: make([]int64, n, n+bitset.WordsFor(n+1))}
	a.bind(&p.fl, a)
	return a
}

// SuspicionPool recycles Suspicion messages together with their bitsets.
type SuspicionPool struct{ fl freeList }

// Get returns a free Suspicion with Suspects sized n (contents stale).
func (p *SuspicionPool) Get(n int) *Suspicion {
	if m := p.fl.pop(); m != nil {
		s := m.(*Suspicion)
		if s.Suspects.Len() != n {
			s.Suspects = bitset.New(n)
		}
		return s
	}
	s := &Suspicion{Suspects: bitset.New(n)}
	s.bind(&p.fl, s)
	return s
}

// HeartbeatPool recycles Heartbeat beacons.
type HeartbeatPool struct{ fl freeList }

// Get returns a free Heartbeat (contents stale).
func (p *HeartbeatPool) Get() *Heartbeat {
	if m := p.fl.pop(); m != nil {
		return m.(*Heartbeat)
	}
	h := &Heartbeat{}
	h.bind(&p.fl, h)
	return h
}

// PreparePool recycles Prepare messages.
type PreparePool struct{ fl freeList }

// Get returns a free Prepare (contents stale).
func (p *PreparePool) Get() *Prepare {
	if m := p.fl.pop(); m != nil {
		return m.(*Prepare)
	}
	v := &Prepare{}
	v.bind(&p.fl, v)
	return v
}

// PromisePool recycles Promise messages.
type PromisePool struct{ fl freeList }

// Get returns a free Promise (contents stale).
func (p *PromisePool) Get() *Promise {
	if m := p.fl.pop(); m != nil {
		return m.(*Promise)
	}
	v := &Promise{}
	v.bind(&p.fl, v)
	return v
}

// AcceptPool recycles Accept messages.
type AcceptPool struct{ fl freeList }

// Get returns a free Accept (contents stale).
func (p *AcceptPool) Get() *Accept {
	if m := p.fl.pop(); m != nil {
		return m.(*Accept)
	}
	v := &Accept{}
	v.bind(&p.fl, v)
	return v
}

// AcceptedPool recycles Accepted messages.
type AcceptedPool struct{ fl freeList }

// Get returns a free Accepted (contents stale).
func (p *AcceptedPool) Get() *Accepted {
	if m := p.fl.pop(); m != nil {
		return m.(*Accepted)
	}
	v := &Accepted{}
	v.bind(&p.fl, v)
	return v
}

// DecidePool recycles Decide messages.
type DecidePool struct{ fl freeList }

// Get returns a free Decide (contents stale).
func (p *DecidePool) Get() *Decide {
	if m := p.fl.pop(); m != nil {
		return m.(*Decide)
	}
	v := &Decide{}
	v.bind(&p.fl, v)
	return v
}

// ABCastPool recycles ABCast payloads.
type ABCastPool struct{ fl freeList }

// Get returns a free ABCast (contents stale).
func (p *ABCastPool) Get() *ABCast {
	if m := p.fl.pop(); m != nil {
		return m.(*ABCast)
	}
	v := &ABCast{}
	v.bind(&p.fl, v)
	return v
}

// MuxPool recycles Mux envelopes. A Mux envelope wraps one inner message
// per Send — or one per whole Multicast, in which case the transport
// reference-counts it once per destination. Retain/Recycle propagate each
// reference to the inner message symmetrically, so the inner returns to its
// pool exactly when the last copy of the last envelope wrapping it is
// consumed (see Mux.Retain / Mux.Recycle).
type MuxPool struct{ fl freeList }

// Get returns a free Mux envelope (contents stale).
func (p *MuxPool) Get() *Mux {
	if m := p.fl.pop(); m != nil {
		return m.(*Mux)
	}
	v := &Mux{}
	v.bind(&p.fl, v)
	return v
}

// Retain implements Recyclable, propagating the reference to the wrapped
// message (transports see only the envelope).
func (m *Mux) Retain() {
	m.ref.Retain()
	if r, ok := m.Inner.(Recyclable); ok {
		r.Retain()
	}
}

// Recycle implements Recyclable: every dropped envelope reference drops one
// inner reference (mirroring Retain), and the envelope itself returns to its
// pool when the last reference goes. The per-call propagation matters for
// multicast envelopes, whose reference count is the destination popcount.
func (m *Mux) Recycle() {
	if r, ok := m.Inner.(Recyclable); ok {
		r.Recycle()
	}
	m.ref.refs--
	if m.ref.refs > 0 {
		return
	}
	if m.ref.home != nil {
		m.Inner = nil
		m.ref.home.free = append(m.ref.home.free, m.ref.self)
	}
}
