package runtime

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/proc"
)

// pingNode counts messages and timers, for transport-level tests.
type pingNode struct {
	mu       sync.Mutex
	env      proc.Env
	received []any
	timers   int
	crashed  bool
}

func (p *pingNode) Start(env proc.Env) { p.mu.Lock(); p.env = env; p.mu.Unlock() }
func (p *pingNode) OnMessage(from proc.ID, msg any) {
	p.mu.Lock()
	p.received = append(p.received, msg)
	p.mu.Unlock()
}
func (p *pingNode) OnTimer(key proc.TimerKey) {
	p.mu.Lock()
	p.timers++
	p.mu.Unlock()
}
func (p *pingNode) OnCrash() { p.mu.Lock(); p.crashed = true; p.mu.Unlock() }

func (p *pingNode) counts() (int, int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.received), p.timers
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool) bool {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(2 * time.Millisecond)
	}
	return cond()
}

func TestDeliveryAndTimers(t *testing.T) {
	c, err := New(Config{N: 2})
	if err != nil {
		t.Fatal(err)
	}
	a, b := &pingNode{}, &pingNode{}
	c.Register(0, a)
	c.Register(1, b)
	c.Start()
	defer c.Stop()

	waitFor(t, time.Second, func() bool { a.mu.Lock(); defer a.mu.Unlock(); return a.env != nil })
	a.mu.Lock()
	env := a.env
	a.mu.Unlock()
	env.Send(1, "hello")
	c.Inspect(0, func() { env.SetTimer(1, 5*time.Millisecond) }) // timers are the node's: arm under its lock

	if !waitFor(t, time.Second, func() bool { n, _ := b.counts(); return n == 1 }) {
		t.Fatal("message not delivered")
	}
	if !waitFor(t, time.Second, func() bool { _, n := a.counts(); return n == 1 }) {
		t.Fatal("timer did not fire")
	}
}

func TestDelayFuncApplied(t *testing.T) {
	var delayed bool
	c, err := New(Config{N: 2, Delay: func(from, to proc.ID, msg any) time.Duration {
		delayed = true
		return 20 * time.Millisecond
	}})
	if err != nil {
		t.Fatal(err)
	}
	a, b := &pingNode{}, &pingNode{}
	c.Register(0, a)
	c.Register(1, b)
	c.Start()
	defer c.Stop()
	waitFor(t, time.Second, func() bool { a.mu.Lock(); defer a.mu.Unlock(); return a.env != nil })
	start := time.Now()
	a.mu.Lock()
	env := a.env
	a.mu.Unlock()
	env.Send(1, "x")
	if !waitFor(t, time.Second, func() bool { n, _ := b.counts(); return n == 1 }) {
		t.Fatal("not delivered")
	}
	if elapsed := time.Since(start); elapsed < 15*time.Millisecond {
		t.Fatalf("delivered after %v, want >= ~20ms", elapsed)
	}
	if !delayed {
		t.Fatal("delay func not consulted")
	}
}

// TestLiveLeaderElection runs the paper's Figure 3 algorithm over real
// goroutines and channels: all processes must converge on a common correct
// leader, and survive the leader crashing. Margins are generous; the test
// asserts eventual agreement, not timing.
func TestLiveLeaderElection(t *testing.T) {
	const n, tt = 4, 1
	var mu sync.Mutex
	rng := rand.New(rand.NewSource(1))
	cluster, err := New(Config{N: n, Delay: func(from, to proc.ID, msg any) time.Duration {
		mu.Lock()
		defer mu.Unlock()
		return time.Duration(rng.Intn(300)) * time.Microsecond
	}})
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*core.Node, n)
	for id := 0; id < n; id++ {
		node, err := core.NewNode(id, core.Config{
			N: n, T: tt,
			Variant:     core.VariantFig3,
			AlivePeriod: 4 * time.Millisecond,
			TimeoutUnit: time.Millisecond,
			Retention:   4096,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[id] = node
		cluster.Register(id, node)
	}
	cluster.Start()
	defer cluster.Stop()

	// leaderOf reads a node's estimate through Inspect, which serializes
	// the read against the node's own callbacks (the supported way to
	// observe live protocol state).
	leaderOf := func(id proc.ID) proc.ID {
		var l proc.ID
		cluster.Inspect(id, func() { l = nodes[id].Leader() })
		return l
	}
	agreeOnCorrect := func() bool {
		leader := proc.None
		for id := range nodes {
			if cluster.Process(id).Crashed() {
				continue
			}
			l := leaderOf(id)
			if cluster.Process(l).Crashed() {
				return false
			}
			if leader == proc.None {
				leader = l
			} else if l != leader {
				return false
			}
		}
		return leader != proc.None
	}
	if !waitFor(t, 10*time.Second, agreeOnCorrect) {
		t.Fatal("no common correct leader before crash")
	}

	// Crash the current leader; a new common correct leader must emerge.
	victim := leaderOf(0)
	cluster.Process(victim).Crash()
	if !waitFor(t, 20*time.Second, agreeOnCorrect) {
		t.Fatalf("no re-election after crashing leader %d", victim)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{N: 0}); err == nil {
		t.Fatal("N=0 accepted")
	}
}

func TestDoubleStartPanics(t *testing.T) {
	c, _ := New(Config{N: 1})
	c.Register(0, &pingNode{})
	c.Start()
	defer c.Stop()
	defer func() {
		if recover() == nil {
			t.Fatal("double Start did not panic")
		}
	}()
	c.Start()
}

// TestMailboxSteadyStateAllocs: a consumer that keeps up reuses one backing
// array, whether the queue drains between bursts or always holds an event.
func TestMailboxSteadyStateAllocs(t *testing.T) {
	m := &mailbox{signal: make(chan struct{}, 1)}
	stop := make(chan struct{})
	burst := func(n int) func() {
		return func() {
			for i := 0; i < n; i++ {
				m.push(event{from: i})
			}
			for i := 0; i < n; i++ {
				if ev, ok := m.pop(stop); !ok || ev.from != i {
					t.Fatalf("pop %d = %+v, %v", i, ev, ok)
				}
			}
		}
	}
	for _, n := range []int{1, 32} {
		burst(n)()
		if allocs := testing.AllocsPerRun(1000, burst(n)); allocs != 0 {
			t.Errorf("push/pop of a draining %d-event burst allocates %.1f objects", n, allocs)
		}
	}
	m.push(event{from: 0}) // from here the queue never drains: head walks the array
	walk := func() {
		m.push(event{})
		m.pop(stop)
	}
	for i := 0; i < 100; i++ {
		walk()
	}
	if allocs := testing.AllocsPerRun(1000, walk); allocs != 0 {
		t.Errorf("push/pop on a never-empty queue allocates %.1f objects per message", allocs)
	}
}
