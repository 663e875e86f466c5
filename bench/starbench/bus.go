package main

import (
	"time"

	"repro/internal/bitset"
	"repro/internal/proc"
	"repro/internal/wire"
)

// bus is the probes' stand-in transport: a synchronous FIFO router that lets
// a probe drive protocol nodes through their exported proc.Node callbacks
// with no simulator, socket or goroutine in the measured path. Timers are
// recorded and never fire by themselves — probes call OnTimer directly — and a
// message to a process with no registered node is consumed on delivery, so a
// single node can be driven against n-1 scripted peers.
type bus struct {
	nodes []proc.Node
	queue []busMsg
	head  int
	now   time.Duration
}

type busMsg struct {
	from, to proc.ID
	msg      any
}

func newBus(n int) *bus { return &bus{nodes: make([]proc.Node, n)} }

// register installs node as process id and starts it.
func (b *bus) register(id proc.ID, node proc.Node) {
	b.nodes[id] = node
	node.Start(&busEnv{b: b, id: id})
}

// pump delivers queued messages (and those their handlers send) until the
// bus is idle, honouring the transports' payload contract: one reference per
// send, released when that copy has been consumed.
func (b *bus) pump() (delivered int64) {
	for b.head < len(b.queue) {
		m := b.queue[b.head]
		b.queue[b.head] = busMsg{}
		b.head++
		if node := b.nodes[m.to]; node != nil {
			node.OnMessage(m.from, m.msg)
			delivered++
		}
		if rc, ok := m.msg.(wire.Recyclable); ok {
			rc.Recycle()
		}
	}
	b.queue, b.head = b.queue[:0], 0
	return delivered
}

type busEnv struct {
	b  *bus
	id proc.ID
}

func (e *busEnv) ID() proc.ID        { return e.id }
func (e *busEnv) N() int             { return len(e.b.nodes) }
func (e *busEnv) Now() time.Duration { return e.b.now }

func (e *busEnv) Send(to proc.ID, msg any) {
	if rc, ok := msg.(wire.Recyclable); ok {
		rc.Retain()
	}
	e.b.queue = append(e.b.queue, busMsg{from: e.id, to: to, msg: msg})
}

func (e *busEnv) Multicast(dests *bitset.Set, msg any) {
	dests.ForEach(func(to int) { e.Send(to, msg) })
}

func (e *busEnv) SetTimer(proc.TimerKey, time.Duration) {}
func (e *busEnv) StopTimer(proc.TimerKey)               {}

var _ proc.Env = (*busEnv)(nil)
