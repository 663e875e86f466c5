package host_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bitset"
	"repro/internal/host"
	"repro/internal/proc"
	"repro/internal/sim"
	"repro/internal/wire"
)

// clock is one of the two settings every Process runs in, with what a test
// needs to let its time pass.
type clock struct {
	clock host.Clock
	lock  func() sync.Locker
	// advance lets d of the clock's time pass: a sleep on the wall clock, a
	// scheduler run on the simulator.
	advance func(d time.Duration)
	// spin is the busiest re-arm delay the clock can advance past: zero on
	// the wall clock, one microsecond on the simulator, where zero-delay
	// re-arms from every fire would keep virtual time from moving.
	spin time.Duration
	// concurrent: callbacks run on other goroutines than the test's.
	concurrent bool
}

func wallClock() *clock {
	return &clock{
		clock:      host.WallClock(),
		lock:       func() sync.Locker { return new(sync.Mutex) },
		advance:    time.Sleep,
		concurrent: true,
	}
}

func simClock() *clock {
	s := sim.NewScheduler()
	return &clock{
		clock:   host.SimClock(s),
		lock:    func() sync.Locker { return host.NoLock },
		advance: func(d time.Duration) { s.RunFor(d) },
		spin:    time.Microsecond,
	}
}

// onEachClock runs the contract f on the wall clock and on the simulator's.
func onEachClock(t *testing.T, f func(t *testing.T, c *clock)) {
	t.Run("wall", func(t *testing.T) { f(t, wallClock()) })
	t.Run("sim", func(t *testing.T) { f(t, simClock()) })
}

func (c *clock) settle() { c.advance(40 * time.Millisecond) }

func (c *clock) eventually(cond func() bool) bool {
	for i := 0; i < 2000; i++ {
		if cond() {
			return true
		}
		c.advance(time.Millisecond)
	}
	return cond()
}

// env is the smallest transport: a Process embedded by value, links that go
// nowhere, and the counting a transport does with what Deliver reports.
// Everything the suite checks is the Process's own contract, which netsim,
// runtime and tcpnet inherit by embedding it the same way.
type env struct {
	host.Process
	stats   host.Stats
	crashes atomic.Int32 // runs of the transport's crash hook
}

func (*env) Send(proc.ID, any)          {}
func (*env) Multicast(*bitset.Set, any) {}
func (e *env) snapshot() host.Stats     { return e.stats.Snapshot() }
func (c *clock) newEnv(onDeliver func(proc.ID)) *env {
	e := &env{}
	e.Init(e, 0, 1, c.clock, c.lock(), onDeliver, func(proc.ID) { e.crashes.Add(1) })
	return e
}

func (e *env) deliver(from proc.ID, msg any) bool {
	ok := e.Deliver(from, msg)
	e.tap(ok)
	return ok
}

func (e *env) deliverTo(inc uint64, from proc.ID, msg any) bool {
	ok := e.DeliverTo(inc, from, msg)
	e.tap(ok)
	return ok
}

func (e *env) tap(delivered bool) {
	if delivered {
		e.stats.TapDelivered()
	} else {
		e.stats.TapDropped()
	}
}

// arm sets a timer from outside the node's callbacks, under the callback
// lock as the contract asks.
func (e *env) arm(key proc.TimerKey, d time.Duration) {
	e.Lock()
	defer e.Unlock()
	e.SetTimer(key, d)
}

func (e *env) disarm(key proc.TimerKey) {
	e.Lock()
	defer e.Unlock()
	e.StopTimer(key)
}

var _ proc.Env = (*env)(nil)

// node records what the host calls, with atomics so the test goroutine can
// read while callbacks run.
type node struct {
	env     proc.Env
	started atomic.Int32
	msgs    atomic.Int32
	timers  atomic.Int32
	crashes atomic.Int32

	mu    sync.Mutex
	fired []proc.TimerKey
}

func (n *node) Start(env proc.Env)     { n.env = env; n.started.Add(1) }
func (n *node) OnMessage(proc.ID, any) { n.msgs.Add(1) }
func (n *node) OnTimer(k proc.TimerKey) {
	n.timers.Add(1)
	n.mu.Lock()
	n.fired = append(n.fired, k)
	n.mu.Unlock()
}
func (n *node) OnCrash()             { n.crashes.Add(1) }
func start(e *env, n proc.Node) *env { e.Register(n); e.Process.Start(); return e }

func TestStartHandsTheEmbeddingEnv(t *testing.T) {
	onEachClock(t, func(t *testing.T, c *clock) {
		n := &node{}
		e := start(c.newEnv(nil), n)
		if n.started.Load() != 1 || n.env != proc.Env(e) {
			t.Fatalf("Start ran %d times with env %v, want once with the embedding env", n.started.Load(), n.env)
		}
		if e.ID() != 0 || e.N() != 1 || e.Now() < 0 {
			t.Fatalf("identity: ID %d N %d Now %v", e.ID(), e.N(), e.Now())
		}
		if e.Start() || n.started.Load() != 1 {
			t.Fatal("a second Start ran the node again")
		}
	})
}

func TestDoubleRegisterPanics(t *testing.T) {
	for name, second := range map[string]proc.Node{"twice": &node{}, "nil node": nil} {
		e := wallClock().newEnv(nil)
		if name == "twice" {
			e.Register(&node{})
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Register %s did not panic", name)
				}
			}()
			e.Register(second)
		}()
	}
}

func TestTimerFiresOnce(t *testing.T) {
	onEachClock(t, func(t *testing.T, c *clock) {
		n := &node{}
		e := start(c.newEnv(nil), n)
		e.arm(1, time.Millisecond)
		if !c.eventually(func() bool { return n.timers.Load() == 1 }) {
			t.Fatal("timer did not fire")
		}
		c.settle()
		if got := n.timers.Load(); got != 1 {
			t.Fatalf("one-shot timer fired %d times", got)
		}
	})
}

func TestZeroTimerFiresImmediately(t *testing.T) {
	onEachClock(t, func(t *testing.T, c *clock) {
		n := &node{}
		e := start(c.newEnv(nil), n)
		e.arm(1, 0)
		e.arm(2, -time.Second) // a deadline in the past is due now
		if !c.eventually(func() bool { return n.timers.Load() == 2 }) {
			t.Fatalf("zero timers fired %d times, want 2", n.timers.Load())
		}
	})
}

func TestTimerRearmReplaces(t *testing.T) {
	onEachClock(t, func(t *testing.T, c *clock) {
		n := &node{}
		e := start(c.newEnv(nil), n)
		e.arm(1, 5*time.Millisecond)
		e.arm(1, 300*time.Millisecond) // replaces; the old deadline must not fire
		c.settle()
		if got := n.timers.Load(); got != 0 {
			t.Fatalf("stale timer fired (%d)", got)
		}
		if !c.eventually(func() bool { return n.timers.Load() == 1 }) {
			t.Fatal("the replacing deadline never fired")
		}
	})
}

func TestMultipleTimerKeys(t *testing.T) {
	onEachClock(t, func(t *testing.T, c *clock) {
		n := &node{}
		e := start(c.newEnv(nil), n)
		e.arm(1, 100*time.Millisecond)
		e.arm(2, 20*time.Millisecond)
		if !c.eventually(func() bool { return n.timers.Load() == 2 }) {
			t.Fatalf("%d of 2 keys fired", n.timers.Load())
		}
		n.mu.Lock()
		defer n.mu.Unlock()
		if len(n.fired) != 2 || n.fired[0] != 2 || n.fired[1] != 1 {
			t.Fatalf("keys fired in order %v, want [2 1]", n.fired)
		}
	})
}

func TestStopTimer(t *testing.T) {
	onEachClock(t, func(t *testing.T, c *clock) {
		n := &node{}
		e := start(c.newEnv(nil), n)
		e.arm(2, 10*time.Millisecond)
		e.disarm(2)
		e.disarm(3) // never armed: a no-op
		c.settle()
		if n.timers.Load() != 0 {
			t.Fatal("stopped timer fired")
		}
	})
}

// TestStopTimerInvalidatesInFlightFire: the timer has expired and its
// goroutine is parked on the callback lock when StopTimer (and, for a second
// key, a re-arm) arrives; neither parked fire may reach OnTimer. Only the
// wall clock has fires in flight: the simulator cancels exactly.
func TestStopTimerInvalidatesInFlightFire(t *testing.T) {
	c := wallClock()
	n := &node{}
	e := start(c.newEnv(nil), n)
	e.Lock()
	e.SetTimer(1, 0)
	e.SetTimer(2, 0)
	c.settle() // both fires are now waiting for the lock
	e.StopTimer(1)
	e.SetTimer(2, time.Hour)
	e.Unlock()
	c.settle()
	if got := n.timers.Load(); got != 0 {
		t.Fatalf("%d invalidated fires reached OnTimer", got)
	}
}

// busyNode re-arms its timer from every fire at the clock's spin delay, so a
// fire is pending at almost every instant, and flags any callback that runs
// once its OnCrash has.
type busyNode struct {
	node
	spin       time.Duration
	dead       atomic.Bool
	violations atomic.Int32
}

func (n *busyNode) Start(env proc.Env) { n.node.Start(env); env.SetTimer(1, n.spin) }
func (n *busyNode) OnTimer(k proc.TimerKey) {
	if n.dead.Load() {
		n.violations.Add(1)
	}
	n.timers.Add(1)
	n.env.SetTimer(1, n.spin)
}
func (n *busyNode) OnMessage(proc.ID, any) {
	if n.dead.Load() {
		n.violations.Add(1)
	}
}
func (n *busyNode) OnCrash() { n.node.OnCrash(); n.dead.Store(true) }

func TestCrashStopsProcess(t *testing.T) {
	onEachClock(t, func(t *testing.T, c *clock) {
		for round := 0; round < 50; round++ {
			n := &busyNode{spin: c.spin}
			e := start(c.newEnv(nil), n)
			if !c.eventually(func() bool { return n.timers.Load() > 3 }) {
				t.Fatal("busy timer never ran")
			}
			if !e.Crash() {
				t.Fatal("Crash of a live process reported it down already")
			}
			// Synchronous: down, OnCrash done, and nothing arms or fires now.
			if !e.Crashed() || n.crashes.Load() != 1 || e.crashes.Load() != 1 {
				t.Fatalf("after Crash: Crashed %v, OnCrash ran %d times, crash hook %d times",
					e.Crashed(), n.crashes.Load(), e.crashes.Load())
			}
			fired := n.timers.Load()
			e.SetTimer(1, 0)
			if e.deliver(0, "late") {
				t.Fatal("crashed process accepted a message")
			}
			if e.Crash() { // idempotent
				t.Fatal("second Crash reported the process up")
			}
			c.advance(2 * time.Millisecond)
			if n.crashes.Load() != 1 || e.crashes.Load() != 1 {
				t.Fatalf("OnCrash ran %d times, crash hook %d times", n.crashes.Load(), e.crashes.Load())
			}
			if n.timers.Load() != fired || n.violations.Load() != 0 {
				t.Fatalf("round %d: %d fires and %d callbacks after OnCrash", round, n.timers.Load()-fired, n.violations.Load())
			}
			if st := e.snapshot(); st.Dropped != 1 || st.Delivered != 0 {
				t.Fatalf("late message not counted dropped: %+v", st)
			}
		}
	})
}

// TestCrashBeforeStart pins the rule for a member crashed before its
// (staggered) start: no OnCrash, the transport's crash hook runs, the member
// never starts and receives nothing, and only Restart brings it up.
func TestCrashBeforeStart(t *testing.T) {
	onEachClock(t, func(t *testing.T, c *clock) {
		n := &node{}
		e := c.newEnv(nil)
		e.Register(n)
		if e.deliver(0, "early") {
			t.Fatal("a process that has not started accepted a message")
		}
		if !e.Crash() || !e.Crashed() {
			t.Fatal("Crash before Start did not take the process down")
		}
		if n.crashes.Load() != 0 || e.crashes.Load() != 1 {
			t.Fatalf("OnCrash ran %d times (want 0), crash hook %d times (want 1)", n.crashes.Load(), e.crashes.Load())
		}
		if e.Start() || n.started.Load() != 0 || e.Started() {
			t.Fatal("a process crashed before its start started")
		}
		fresh := &node{}
		if !e.Restart(func() proc.Node { return fresh }) || !e.Started() || fresh.started.Load() != 1 {
			t.Fatal("Restart did not start a process crashed before its start")
		}
		if e.Start() || fresh.started.Load() != 1 || n.started.Load() != 0 {
			t.Fatal("the original start ran after the restart")
		}
	})
}

func TestRestart(t *testing.T) {
	onEachClock(t, func(t *testing.T, c *clock) {
		old := &node{}
		e := start(c.newEnv(nil), old)
		if e.Restart(func() proc.Node { t.Error("build ran for a live process"); return &node{} }) {
			t.Fatal("Restart swapped a live process")
		}
		if e.Node() != old {
			t.Fatal("live process replaced by Restart")
		}
		if inc, up := e.Incarnation(); inc != 0 || !up {
			t.Fatalf("Incarnation = %d, %v before any crash", inc, up)
		}
		e.arm(5, 10*time.Millisecond) // armed by the old incarnation: dies with it
		e.Crash()
		if _, up := e.Incarnation(); up {
			t.Fatal("Incarnation reports a crashed process up")
		}

		fresh := &node{}
		if !e.Restart(func() proc.Node {
			// build runs under the callback lock: a Lock holder would wait.
			if !e.Crashed() {
				t.Error("process up before its build returned")
			}
			return fresh
		}) {
			t.Fatal("Restart refused a crashed process")
		}
		if e.Crashed() || fresh.started.Load() != 1 || fresh.env != proc.Env(e) || e.Node() != fresh {
			t.Fatalf("after Restart: Crashed %v, fresh started %d", e.Crashed(), fresh.started.Load())
		}
		if inc, up := e.Incarnation(); inc != 1 || !up {
			t.Fatalf("Incarnation = %d, %v after one restart", inc, up)
		}

		// A copy stamped for the old incarnation dies; an unstamped or
		// current one reaches the new node only.
		if e.deliverTo(0, 0, "stale") {
			t.Fatal("stale-incarnation copy delivered")
		}
		if !e.deliverTo(1, 0, "current") || !e.deliver(0, "unstamped") {
			t.Fatal("live incarnation refused a message")
		}
		if old.msgs.Load() != 0 || fresh.msgs.Load() != 2 {
			t.Fatalf("deliveries: old %d fresh %d, want 0 and 2", old.msgs.Load(), fresh.msgs.Load())
		}
		if st := e.snapshot(); st.Dropped != 1 || st.Delivered != 2 {
			t.Fatalf("stats %+v, want Dropped 1 Delivered 2", st)
		}

		// Timers armed by the old incarnation stay dead; the new one's work.
		e.arm(1, time.Millisecond)
		if !c.eventually(func() bool { return fresh.timers.Load() == 1 }) {
			t.Fatal("restarted process's timer did not fire")
		}
		c.settle()
		if old.timers.Load() != 0 || fresh.timers.Load() != 1 {
			t.Fatalf("the crashed incarnation's timer fired: old %d fresh %d", old.timers.Load(), fresh.timers.Load())
		}
	})
}

func TestRestartPanics(t *testing.T) {
	onEachClock(t, func(t *testing.T, c *clock) {
		e := start(c.newEnv(nil), &node{})
		e.Crash()
		for name, build := range map[string]func() proc.Node{
			"nil build": nil,
			"nil node":  func() proc.Node { return nil },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("Restart with %s did not panic", name)
					}
				}()
				e.Restart(build)
			}()
		}
		// The failed attempts left the lock free and the process down.
		if !e.Crashed() || !e.Restart(func() proc.Node { return &node{} }) {
			t.Fatal("process unusable after a panicking Restart")
		}
	})
}

func TestDeliverHookRunsUnderTheLock(t *testing.T) {
	onEachClock(t, func(t *testing.T, c *clock) {
		var hooked, inside int
		n := &node{}
		e := c.newEnv(func(to proc.ID) {
			hooked++ // plain int: -race flags it if two deliveries overlap
			if to != 0 || n.msgs.Load() != int32(hooked) {
				inside++
			}
		})
		start(e, n)
		goroutines := 1
		if c.concurrent {
			goroutines = 4
		}
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 2000/goroutines; i++ {
					e.Deliver(0, i)
				}
			}()
		}
		wg.Wait()
		e.Lock()
		defer e.Unlock()
		if hooked != 2000 || inside != 0 {
			t.Fatalf("hook ran %d times, %d of them not right after its own OnMessage", hooked, inside)
		}
	})
}

// plainNode keeps unsynchronised state, the way protocol nodes do.
type plainNode struct {
	env   proc.Env
	calls int
}

func (n *plainNode) Start(env proc.Env)      { n.env = env; env.SetTimer(1, 0) }
func (n *plainNode) OnMessage(proc.ID, any)  { n.calls++ }
func (n *plainNode) OnTimer(k proc.TimerKey) { n.calls++; n.env.SetTimer(k, 50*time.Microsecond) }

// TestLockExcludesCallbacks hammers deliveries, timers and crash/restart
// cycles against Lock sections that read and write the node's plain fields:
// under -race any callback running inside a section is a reported race, and
// without it a changed counter is. Wall clock only: on the simulator one
// goroutine runs everything.
func TestLockExcludesCallbacks(t *testing.T) {
	cur := &plainNode{}
	e := start(wallClock().newEnv(nil), cur)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					e.Deliver(0, "x")
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				e.Crash()
				e.Restart(func() proc.Node { cur = &plainNode{}; return cur })
				time.Sleep(200 * time.Microsecond)
			}
		}
	}()
	for i := 0; i < 300; i++ {
		e.Lock()
		n := cur // swapped only inside Restart's build, i.e. under this lock
		before := n.calls
		n.calls++
		time.Sleep(20 * time.Microsecond)
		if n.calls != before+1 {
			t.Errorf("section %d: a callback ran between Lock and Unlock", i)
		}
		e.Unlock()
	}
	close(stop)
	wg.Wait()
	e.Stop()
}

func TestStopDisarmsForGood(t *testing.T) {
	onEachClock(t, func(t *testing.T, c *clock) {
		n := &busyNode{spin: c.spin}
		e := start(c.newEnv(nil), n)
		if !c.eventually(func() bool { return n.timers.Load() > 3 }) {
			t.Fatal("busy timer never ran")
		}
		e.Stop()
		fired := n.timers.Load()
		e.SetTimer(2, 0) // ignored: the cluster is gone
		c.settle()
		if got := n.timers.Load(); got != fired {
			t.Fatalf("%d timer callbacks after Stop returned", got-fired)
		}
		if e.Crashed() {
			t.Fatal("Stop reads as a crash")
		}
	})
}

// echoTimer re-arms its timer on every message and counts fires, with no
// allocation of its own.
type echoTimer struct {
	env         proc.Env
	msgs, fires int
}

func (n *echoTimer) Start(env proc.Env)     { n.env = env }
func (n *echoTimer) OnMessage(proc.ID, any) { n.msgs++; n.env.SetTimer(1, 500*time.Microsecond) }
func (n *echoTimer) OnTimer(proc.TimerKey)  { n.fires++ }

// TestSimClockAllocatesNothing pins the simulator's zero-allocation steady
// state for a member: a delivery, the timer re-arm it causes (cancelling the
// pending deadline) and the fire cost no allocation.
func TestSimClockAllocatesNothing(t *testing.T) {
	c := simClock()
	n := &echoTimer{}
	e := start(c.newEnv(nil), n)
	var msg any = &wire.Heartbeat{Seq: 1}
	step := func() {
		e.Deliver(0, msg)
		e.Deliver(0, msg) // re-arms over a pending deadline
		c.advance(time.Millisecond)
	}
	step() // warm up the timer table and the scheduler's arena
	if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
		t.Errorf("deliver + re-arm + fire allocates %v per round", allocs)
	}
	if n.msgs != 2*202 || n.fires != 202 { // one warm-up round each: ours and AllocsPerRun's
		t.Fatalf("%d messages and %d fires, want %d and %d", n.msgs, n.fires, 2*202, 202)
	}
}

func TestStatsTaps(t *testing.T) {
	var s host.Stats
	hb := &wire.Heartbeat{Seq: 1}
	s.TapSent(hb.Kind(), hb.Size())
	s.TapSent(hb.Kind(), hb.Size()+7)
	s.TapSent(0, 7) // not a wire message: sent, but no size or kind
	s.TapDelivered()
	s.TapDropped()
	s.TapBreakerOpen()
	sz := uint64(hb.Size())
	want := host.Stats{Sent: 3, Delivered: 1, Dropped: 1, Bytes: 2*sz + 7, BreakerOpens: 1}
	want.ByKind[wire.KindHeartbeat] = 2
	want.BytesKind[wire.KindHeartbeat] = 2*sz + 7
	if got := s.Snapshot(); got != want {
		t.Fatalf("snapshot\n got %+v\nwant %+v", got, want)
	}
	if allocs := testing.AllocsPerRun(100, func() { s.TapSent(wire.KindAlive, 52) }); allocs != 0 {
		t.Errorf("TapSent allocates %v per call", allocs)
	}
}
