package netsim

import (
	"testing"
	"time"

	"repro/internal/proc"
	"repro/internal/sim"
	"repro/internal/wire"
)

// echoNode records everything it receives and can send on request.
type echoNode struct {
	env      proc.Env
	received []recv
	timers   []proc.TimerKey
	crashed  bool
}

type recv struct {
	from proc.ID
	msg  any
	at   time.Duration
}

func (e *echoNode) Start(env proc.Env) { e.env = env }
func (e *echoNode) OnMessage(from proc.ID, msg any) {
	e.received = append(e.received, recv{from, msg, e.env.Now()})
}
func (e *echoNode) OnTimer(key proc.TimerKey) { e.timers = append(e.timers, key) }
func (e *echoNode) OnCrash()                  { e.crashed = true }

func constDelay(d time.Duration) DelayPolicy {
	return DelayFunc(func(*Envelope, *sim.Rand) time.Duration { return d })
}

func newTestNet(t *testing.T, n int, policy DelayPolicy, gate Gate) (*Network, []*echoNode, *sim.Scheduler) {
	t.Helper()
	sched := sim.NewScheduler()
	net, err := New(sched, Config{N: n, Seed: 1, Policy: policy, Gate: gate})
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*echoNode, n)
	for i := range nodes {
		nodes[i] = &echoNode{}
		net.Register(i, nodes[i])
	}
	net.StartAll()
	return net, nodes, sched
}

func TestDeliveryWithDelay(t *testing.T) {
	net, nodes, sched := newTestNet(t, 2, constDelay(5*time.Millisecond), nil)
	sched.RunFor(time.Millisecond) // let Start run
	nodes[0].env.Send(1, &wire.Heartbeat{Seq: 1})
	sched.RunFor(time.Second)
	if len(nodes[1].received) != 1 {
		t.Fatalf("received %d messages, want 1", len(nodes[1].received))
	}
	r := nodes[1].received[0]
	if r.from != 0 {
		t.Errorf("from = %d", r.from)
	}
	if r.at != time.Millisecond+5*time.Millisecond {
		t.Errorf("delivered at %v, want 6ms", r.at)
	}
	st := net.Stats()
	if st.Sent != 1 || st.Delivered != 1 || st.Dropped != 0 {
		t.Errorf("stats = %+v", st)
	}
	if st.ByKind[wire.KindHeartbeat] != 1 {
		t.Errorf("ByKind = %v", st.ByKind)
	}
	if st.Bytes == 0 {
		t.Error("Bytes not accounted")
	}
}

func TestSendToSelf(t *testing.T) {
	_, nodes, sched := newTestNet(t, 1, constDelay(0), nil)
	sched.RunFor(time.Millisecond)
	nodes[0].env.Send(0, &wire.Heartbeat{Seq: 2})
	sched.RunFor(time.Second)
	if len(nodes[0].received) != 1 {
		t.Fatalf("self-delivery failed: %d messages", len(nodes[0].received))
	}
}

func TestCrashStopsDelivery(t *testing.T) {
	net, nodes, sched := newTestNet(t, 2, constDelay(10*time.Millisecond), nil)
	net.CrashAt(1, sim.Time(5*time.Millisecond))
	sched.RunFor(time.Millisecond)
	nodes[0].env.Send(1, &wire.Heartbeat{Seq: 1}) // in flight when 1 crashes
	sched.RunFor(time.Second)
	if len(nodes[1].received) != 0 {
		t.Fatalf("crashed process received %d messages", len(nodes[1].received))
	}
	st := net.Stats()
	if st.Dropped != 1 {
		t.Errorf("Dropped = %d, want 1", st.Dropped)
	}
	if !net.Crashed(1) || net.Crashed(0) {
		t.Error("Crashed flags wrong")
	}
	if !nodes[1].crashed {
		t.Error("OnCrash not called")
	}
}

func TestCrashedProcessSendsNothing(t *testing.T) {
	net, nodes, sched := newTestNet(t, 2, constDelay(0), nil)
	sched.RunFor(time.Millisecond)
	net.CrashAt(0, sim.Time(2*time.Millisecond))
	sched.RunFor(5 * time.Millisecond)
	nodes[0].env.Send(1, &wire.Heartbeat{Seq: 1}) // from a crashed process
	sched.RunFor(time.Second)
	if len(nodes[1].received) != 0 {
		t.Fatal("message from crashed process was delivered")
	}
	if net.Stats().Sent != 0 {
		t.Error("send from crashed process was counted")
	}
}

func TestCrashCancelsTimers(t *testing.T) {
	net, nodes, sched := newTestNet(t, 1, constDelay(0), nil)
	sched.RunFor(time.Millisecond)
	nodes[0].env.SetTimer(1, 10*time.Millisecond)
	net.CrashAt(0, sim.Time(5*time.Millisecond))
	sched.RunFor(time.Second)
	if len(nodes[0].timers) != 0 {
		t.Fatalf("timer fired on crashed process: %v", nodes[0].timers)
	}
}

func TestTimerRearmReplaces(t *testing.T) {
	_, nodes, sched := newTestNet(t, 1, constDelay(0), nil)
	sched.RunFor(time.Millisecond)
	nodes[0].env.SetTimer(7, 10*time.Millisecond)
	nodes[0].env.SetTimer(7, 50*time.Millisecond) // replaces
	sched.RunFor(20 * time.Millisecond)
	if len(nodes[0].timers) != 0 {
		t.Fatal("replaced timer fired early")
	}
	sched.RunFor(time.Second)
	if len(nodes[0].timers) != 1 || nodes[0].timers[0] != 7 {
		t.Fatalf("timers = %v", nodes[0].timers)
	}
}

func TestStopTimer(t *testing.T) {
	_, nodes, sched := newTestNet(t, 1, constDelay(0), nil)
	sched.RunFor(time.Millisecond)
	nodes[0].env.SetTimer(3, 10*time.Millisecond)
	nodes[0].env.StopTimer(3)
	sched.RunFor(time.Second)
	if len(nodes[0].timers) != 0 {
		t.Fatal("stopped timer fired")
	}
}

// holdGate holds the first arriving message until the second is delivered.
type holdGate struct {
	held  []*Envelope
	count int
}

func (g *holdGate) OnArrival(ev *Envelope, _ sim.Time) bool {
	g.count++
	if g.count == 1 && !ev.Released {
		g.held = append(g.held, ev)
		return false
	}
	return true
}

func (g *holdGate) OnDelivered(_ *Envelope, _ sim.Time) []*Envelope {
	out := g.held
	g.held = nil
	return out
}

func TestGateReordersDeliveries(t *testing.T) {
	gate := &holdGate{}
	_, nodes, sched := newTestNet(t, 3, constDelay(time.Millisecond), gate)
	sched.RunFor(time.Millisecond)
	nodes[0].env.Send(2, &wire.Heartbeat{Seq: 100}) // will be held
	nodes[1].env.Send(2, &wire.Heartbeat{Seq: 200}) // delivered first, releases held
	sched.RunFor(time.Second)
	got := nodes[2].received
	if len(got) != 2 {
		t.Fatalf("received %d, want 2", len(got))
	}
	if got[0].msg.(*wire.Heartbeat).Seq != 200 || got[1].msg.(*wire.Heartbeat).Seq != 100 {
		t.Fatalf("gate did not reorder: %v then %v", got[0].msg, got[1].msg)
	}
	// Both released at the same instant.
	if got[0].at != got[1].at {
		t.Errorf("release instants differ: %v vs %v", got[0].at, got[1].at)
	}
}

func TestStaggeredStartBuffersMessages(t *testing.T) {
	sched := sim.NewScheduler()
	net, err := New(sched, Config{N: 2, Seed: 1, Policy: constDelay(0)})
	if err != nil {
		t.Fatal(err)
	}
	a, b := &echoNode{}, &echoNode{}
	net.Register(0, a)
	net.Register(1, b)
	net.StartAt(0, 0)
	net.StartAt(1, sim.Time(50*time.Millisecond)) // late starter
	sched.RunFor(time.Millisecond)
	a.env.Send(1, &wire.Heartbeat{Seq: 9})
	sched.RunFor(time.Second)
	if len(b.received) != 1 {
		t.Fatalf("late starter received %d messages, want 1 (buffered)", len(b.received))
	}
	if b.received[0].at < 50*time.Millisecond {
		t.Fatalf("delivered before start: %v", b.received[0].at)
	}
}

func TestConfigValidation(t *testing.T) {
	sched := sim.NewScheduler()
	if _, err := New(sched, Config{N: 0, Policy: constDelay(0)}); err == nil {
		t.Error("N=0 accepted")
	}
	if _, err := New(sched, Config{N: maxN + 1, Policy: constDelay(0)}); err == nil {
		t.Errorf("N=%d accepted", maxN+1)
	}
	if _, err := New(sched, Config{N: 3}); err == nil {
		t.Error("nil policy accepted")
	}
}

func TestDeterministicDeliveryOrder(t *testing.T) {
	run := func() []recv {
		sched := sim.NewScheduler()
		net, err := New(sched, Config{N: 4, Seed: 42, Policy: DelayFunc(
			func(ev *Envelope, r *sim.Rand) time.Duration {
				return r.Duration(time.Millisecond, 20*time.Millisecond)
			})})
		if err != nil {
			t.Fatal(err)
		}
		nodes := make([]*echoNode, 4)
		for i := range nodes {
			nodes[i] = &echoNode{}
			net.Register(i, nodes[i])
		}
		net.StartAll()
		sched.RunFor(time.Millisecond)
		for i := 1; i < 4; i++ {
			nodes[i].env.Send(0, &wire.Heartbeat{Seq: int64(i)})
			nodes[i].env.Send(0, &wire.Heartbeat{Seq: int64(10 + i)})
		}
		sched.RunFor(time.Second)
		return nodes[0].received
	}
	a, b := run(), run()
	if len(a) != len(b) || len(a) != 6 {
		t.Fatalf("lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].from != b[i].from || a[i].at != b[i].at ||
			a[i].msg.(*wire.Heartbeat).Seq != b[i].msg.(*wire.Heartbeat).Seq {
			t.Fatalf("runs diverge at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestOnDeliverHook(t *testing.T) {
	net, nodes, sched := newTestNet(t, 2, constDelay(0), nil)
	// Envelopes are recycled after delivery; observers copy, not retain.
	var seen []Envelope
	net.OnDeliver = func(ev *Envelope) { seen = append(seen, *ev) }
	sched.RunFor(time.Millisecond)
	nodes[0].env.Send(1, &wire.Heartbeat{Seq: 1})
	sched.RunFor(time.Second)
	if len(seen) != 1 || seen[0].From != 0 || seen[0].To != 1 {
		t.Fatalf("hook saw %v", seen)
	}
}

func TestPreStartBufferOrderAndCounters(t *testing.T) {
	// Messages arriving before a late starter must be flushed at its start
	// time, in arrival order, with each counted Delivered exactly once.
	sched := sim.NewScheduler()
	// Per-envelope delay: earlier sends get longer delays, so arrival
	// order (by Seq) is the reverse of send order.
	net, err := New(sched, Config{N: 2, Seed: 1, Policy: DelayFunc(
		func(ev *Envelope, _ *sim.Rand) time.Duration {
			return 10*time.Millisecond - time.Duration(ev.Seq)*time.Millisecond
		})})
	if err != nil {
		t.Fatal(err)
	}
	a, b := &echoNode{}, &echoNode{}
	net.Register(0, a)
	net.Register(1, b)
	net.StartAt(0, 0)
	net.StartAt(1, sim.Time(50*time.Millisecond)) // after all arrivals
	sched.RunFor(time.Millisecond)
	for seq := int64(1); seq <= 3; seq++ {
		a.env.Send(1, &wire.Heartbeat{Seq: seq})
	}
	sched.RunFor(time.Second)
	if len(b.received) != 3 {
		t.Fatalf("received %d messages, want 3", len(b.received))
	}
	// Arrival order was seq 3 (delay 7ms), 2 (8ms), 1 (9ms).
	wantOrder := []int64{3, 2, 1}
	for i, want := range wantOrder {
		got := b.received[i].msg.(*wire.Heartbeat).Seq
		if got != want {
			t.Errorf("flush position %d: seq %d, want %d", i, got, want)
		}
		if b.received[i].at != 50*time.Millisecond {
			t.Errorf("flush position %d delivered at %v, want 50ms", i, b.received[i].at)
		}
	}
	st := net.Stats()
	if st.Sent != 3 || st.Delivered != 3 || st.Dropped != 0 {
		t.Errorf("stats = %+v, want Sent=3 Delivered=3 Dropped=0", st)
	}
}

func TestPreStartBufferDroppedOnCrash(t *testing.T) {
	// A process that crashes before it starts never receives its buffered
	// messages; they count as drops, not deliveries.
	sched := sim.NewScheduler()
	net, err := New(sched, Config{N: 2, Seed: 1, Policy: constDelay(0)})
	if err != nil {
		t.Fatal(err)
	}
	a, b := &echoNode{}, &echoNode{}
	net.Register(0, a)
	net.Register(1, b)
	net.StartAt(0, 0)
	net.StartAt(1, sim.Time(50*time.Millisecond))
	net.CrashAt(1, sim.Time(20*time.Millisecond)) // before its start
	sched.RunFor(time.Millisecond)
	a.env.Send(1, &wire.Heartbeat{Seq: 1})
	a.env.Send(1, &wire.Heartbeat{Seq: 2})
	sched.RunFor(time.Second)
	if len(b.received) != 0 {
		t.Fatalf("crashed-before-start process received %d messages", len(b.received))
	}
	st := net.Stats()
	if st.Sent != 2 || st.Delivered != 0 || st.Dropped != 2 {
		t.Errorf("stats = %+v, want Sent=2 Delivered=0 Dropped=2", st)
	}
}

func TestEnvelopePoolSteadyStateDoesNotGrow(t *testing.T) {
	// After a burst settles, subsequent traffic reuses pooled envelopes:
	// the free list stops growing once it covers the in-flight peak
	// (rounded up to the envBlock refill granularity).
	net, nodes, sched := newTestNet(t, 2, constDelay(time.Millisecond), nil)
	sched.RunFor(time.Millisecond)
	for round := 0; round < 5; round++ {
		for i := 0; i < 10; i++ {
			nodes[0].env.Send(1, &wire.Heartbeat{Seq: int64(round*10 + i)})
		}
		sched.RunFor(10 * time.Millisecond)
	}
	if got := len(net.envFree); got > envBlock {
		t.Errorf("free list grew to %d envelopes; want <= one refill block (%d)", got, envBlock)
	}
	if len(nodes[1].received) != 50 {
		t.Fatalf("received %d, want 50", len(nodes[1].received))
	}
}

// TestPooledPayloadRecycledAfterLastDelivery verifies the payload recycle
// point: a pooled message broadcast to several receivers returns to its pool
// only after the last copy is consumed, including drops at crashed receivers.
func TestPooledPayloadRecycledAfterLastDelivery(t *testing.T) {
	net, nodes, sched := newTestNet(t, 3, constDelay(time.Millisecond), nil)
	sched.RunFor(time.Millisecond)

	var pool wire.HeartbeatPool
	hb := pool.Get()
	hb.Seq = 9
	nodes[0].env.Send(1, hb)
	nodes[0].env.Send(2, hb)
	if got := pool.Get(); got == hb {
		t.Fatal("payload recycled while copies are in flight")
	}
	sched.RunFor(time.Second)
	if got := pool.Get(); got != hb {
		t.Fatal("payload not recycled after last delivery")
	}
	if len(nodes[1].received) != 1 || len(nodes[2].received) != 1 {
		t.Fatalf("deliveries = %d/%d", len(nodes[1].received), len(nodes[2].received))
	}

	// A copy dropped at a crashed receiver also releases its reference.
	hb2 := pool.Get()
	hb2.Seq = 10
	net.CrashAt(2, sched.Now())
	sched.RunFor(time.Millisecond / 2)
	nodes[0].env.Send(1, hb2)
	nodes[0].env.Send(2, hb2) // will be dropped
	sched.RunFor(time.Second)
	if got := pool.Get(); got != hb2 {
		t.Fatal("drop at crashed receiver did not release the payload")
	}
}

// TestRestartBringsFreshIncarnation covers the links across a churn: a
// message arriving while the receiver is down is dropped and counted, and
// one sent after the restart reaches the fresh incarnation. The restart
// itself is host.Process.Restart's (internal/host's contract suite).
func TestRestartBringsFreshIncarnation(t *testing.T) {
	net, nodes, sched := newTestNet(t, 2, constDelay(time.Millisecond), nil)
	sched.RunFor(time.Millisecond)

	net.CrashAt(1, sched.Now())
	sched.RunFor(time.Millisecond)
	nodes[0].env.Send(1, &wire.Heartbeat{Seq: 1}) // dropped: receiver down
	sched.RunFor(10 * time.Millisecond)
	if got := net.Stats().Dropped; got != 1 {
		t.Fatalf("Dropped = %d, want 1", got)
	}

	fresh := &echoNode{}
	net.Process(1).Restart(func() proc.Node { return fresh })
	if net.Crashed(1) {
		t.Fatal("process still down after restart")
	}
	nodes[0].env.Send(1, &wire.Heartbeat{Seq: 2})
	sched.RunFor(10 * time.Millisecond)
	if len(fresh.received) != 1 {
		t.Fatalf("fresh incarnation received %d messages, want 1", len(fresh.received))
	}
	if len(nodes[1].received) != 0 {
		t.Fatalf("crashed incarnation received %d messages", len(nodes[1].received))
	}
}
