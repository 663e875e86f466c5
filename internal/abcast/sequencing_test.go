package abcast

import (
	"testing"
	"time"

	"repro/internal/bitset"
	"repro/internal/consensus"
	"repro/internal/proc"
	"repro/internal/wire"
)

// bus is a synchronous loss-free FIFO router: the tests deliver queued
// messages one at a time or to quiescence and call OnTimer themselves, so a
// test decides exactly which arrivals a tick sees. It honours the transports'
// payload contract (one reference per send, released once consumed).
type bus struct {
	nodes []proc.Node
	queue []busMsg
}

type busMsg struct {
	from, to proc.ID
	msg      any
}

// step delivers the oldest queued message; false when the bus is idle.
func (b *bus) step() bool {
	if len(b.queue) == 0 {
		return false
	}
	m := b.queue[0]
	b.queue = b.queue[1:]
	b.nodes[m.to].OnMessage(m.from, m.msg)
	if rc, ok := m.msg.(wire.Recyclable); ok {
		rc.Recycle()
	}
	return true
}

func (b *bus) pump() {
	for b.step() {
	}
}

type busEnv struct {
	b  *bus
	id proc.ID
}

func (e *busEnv) ID() proc.ID        { return e.id }
func (e *busEnv) N() int             { return len(e.b.nodes) }
func (e *busEnv) Now() time.Duration { return 0 }

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

// lanes is five abcast+consensus pairs on one bus, all reading the leader
// from *oracle.
type lanes struct {
	bus    *bus
	ab     []*Node
	cons   []*consensus.Node
	oracle *proc.ID
}

func newLanes(t *testing.T) *lanes {
	t.Helper()
	const n = 5
	l := &lanes{bus: &bus{nodes: make([]proc.Node, n)}, oracle: new(proc.ID)}
	for id := 0; id < n; id++ {
		ab, cons, err := NewPair(Config{N: n, T: 2, Oracle: func() proc.ID { return *l.oracle }})
		if err != nil {
			t.Fatal(err)
		}
		mux := proc.NewMux()
		mux.AddLane(cons)
		mux.AddLane(ab)
		l.ab, l.cons = append(l.ab, ab), append(l.cons, cons)
		l.bus.nodes[id] = mux
		mux.Start(&busEnv{b: l.bus, id: id})
	}
	return l
}

// tickAll runs one propose tick on every member and settles the bus.
func (l *lanes) tickAll() {
	for _, ab := range l.ab {
		ab.OnTimer(timerPropose)
	}
	l.bus.pump()
}

// wantLogs fails unless every member delivered exactly payloads, in order.
func (l *lanes) wantLogs(t *testing.T, payloads ...int64) {
	t.Helper()
	for id, ab := range l.ab {
		if len(ab.log) != len(payloads) {
			t.Fatalf("member %d delivered %d messages, want %d", id, len(ab.log), len(payloads))
		}
		for i, d := range ab.log {
			if d.Payload != payloads[i] {
				t.Fatalf("member %d delivery %d = %+v, want payload %d", id, i, d, payloads[i])
			}
		}
	}
}

// TestStableLeaderProposesOnArrival: once a tick has confirmed leadership, a
// broadcast commits everywhere with no further OnTimer call.
func TestStableLeaderProposesOnArrival(t *testing.T) {
	l := newLanes(t)
	l.tickAll()
	l.ab[3].Broadcast(33)
	l.ab[0].Broadcast(30)
	l.bus.pump()
	l.wantLogs(t, 33, 30)
	if b, d := l.cons[0].Ballots, l.cons[0].Decide2B; b != 2 || d != 2 {
		t.Fatalf("leader ran %d ballots for %d decisions, want 2 and 2", b, d)
	}
}

// TestUnconfirmedLeaderWaitsForTick: a process the oracle names but whose
// last tick did not see it leader — a fresh incarnation, or an oracle that
// flipped since — leaves arrivals to the tick; the first tick after taking
// over sequences them.
func TestUnconfirmedLeaderWaitsForTick(t *testing.T) {
	for _, tc := range []struct {
		name  string
		setup func(l *lanes)
	}{
		{"fresh incarnation", func(l *lanes) {}},
		{"oracle flip", func(l *lanes) {
			*l.oracle = 1
			l.tickAll()
			*l.oracle = 0
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := newLanes(t)
			tc.setup(l)
			l.ab[2].Broadcast(7)
			l.bus.pump()
			for id, cons := range l.cons {
				if cons.Ballots != 0 {
					t.Fatalf("member %d started %d ballots on arrival", id, cons.Ballots)
				}
			}
			l.wantLogs(t)
			if got := len(l.ab[0].pending); got != 1 {
				t.Fatalf("leader holds %d pending keys, want 1", got)
			}
			l.ab[0].OnTimer(timerPropose)
			l.bus.pump()
			l.wantLogs(t, 7)
		})
	}
}

// TestTickSkipsBallotInFlight: the tick that follows a propose-on-arrival
// leaves that key alone (one slot, one ballot per commit); only a key still
// unsequenced a full tick later is retransmitted into a second slot, which
// delivery then skips.
func TestTickSkipsBallotInFlight(t *testing.T) {
	l := newLanes(t)
	l.tickAll()
	l.ab[0].Broadcast(5)
	l.bus.step() // the leader's own copy arrives: proposed into slot 0
	if b := l.cons[0].Ballots; b != 1 {
		t.Fatalf("leader started %d ballots on arrival, want 1", b)
	}
	l.ab[0].OnTimer(timerPropose)
	if b, next := l.cons[0].Ballots, l.ab[0].nextPropose; b != 1 || next != 1 {
		t.Fatalf("next tick re-proposed a key in flight: %d ballots, next slot %d", b, next)
	}
	l.ab[0].OnTimer(timerPropose)
	if b, next := l.cons[0].Ballots, l.ab[0].nextPropose; b != 2 || next != 2 {
		t.Fatalf("second tick did not retransmit: %d ballots, next slot %d", b, next)
	}
	l.bus.pump()
	l.wantLogs(t, 5)
	if got := l.ab[4].nextDeliver; got != 2 {
		t.Fatalf("follower's cursor at slot %d, want 2 (duplicate slot skipped)", got)
	}
}

// TestIdleTickAfterLongRun: the tick's cost follows the pending index, not
// the lane's history — after 30 000 delivered broadcasts the index is empty
// on every member and an idle tick allocates nothing.
func TestIdleTickAfterLongRun(t *testing.T) {
	const total = 30_000
	l := newLanes(t)
	l.tickAll()
	for i := 0; i < total; i++ {
		l.ab[i%5].Broadcast(int64(i))
		l.bus.pump()
	}
	for id, ab := range l.ab {
		if len(ab.log) != total {
			t.Fatalf("member %d delivered %d of %d", id, len(ab.log), total)
		}
	}
	if b, d := l.cons[0].Ballots, l.cons[0].Decide2B; b != d {
		t.Fatalf("leader ran %d ballots for %d decisions on a loss-free bus", b, d)
	}
	l.tickAll()
	for id, ab := range l.ab {
		if len(ab.pending) != 0 {
			t.Fatalf("member %d still holds %d pending keys", id, len(ab.pending))
		}
	}
	for _, id := range []int{0, 4} {
		ab := l.ab[id]
		if allocs := testing.AllocsPerRun(100, func() { ab.OnTimer(timerPropose) }); allocs != 0 {
			t.Errorf("idle tick on member %d allocates %.0f objects", id, allocs)
		}
	}
	if len(l.bus.queue) != 0 {
		t.Fatalf("idle ticks sent %d messages", len(l.bus.queue))
	}
}
