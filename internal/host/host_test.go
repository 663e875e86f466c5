package host_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bitset"
	"repro/internal/host"
	"repro/internal/proc"
	"repro/internal/wire"
)

// env is the smallest transport: a Process embedded by value, links that go
// nowhere. Everything the suite checks is the Process's own contract, which
// runtime and tcpnet inherit by embedding it the same way.
type env struct {
	host.Process
	stats host.Stats
}

func (*env) Send(proc.ID, any)          {}
func (*env) Multicast(*bitset.Set, any) {}
func (e *env) snapshot() host.Stats     { return e.stats.Snapshot() }
func newEnv(onDeliver func(proc.ID)) *env {
	e := &env{}
	e.Init(e, 0, 1, &e.stats, onDeliver)
	return e
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
}

func (n *node) Start(env proc.Env)     { n.env = env; n.started.Add(1) }
func (n *node) OnMessage(proc.ID, any) { n.msgs.Add(1) }
func (n *node) OnTimer(proc.TimerKey)  { n.timers.Add(1) }
func (n *node) OnCrash()               { n.crashes.Add(1) }
func start(e *env, n proc.Node) *env   { e.Register(n); e.Process.Start(); return e }
func settle()                          { time.Sleep(40 * time.Millisecond) }
func eventually(cond func() bool) bool {
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if cond() {
			return true
		}
	}
	return cond()
}

func TestStartHandsTheEmbeddingEnv(t *testing.T) {
	n := &node{}
	e := start(newEnv(nil), n)
	if n.started.Load() != 1 || n.env != proc.Env(e) {
		t.Fatalf("Start ran %d times with env %v, want once with the embedding env", n.started.Load(), n.env)
	}
	if e.ID() != 0 || e.N() != 1 || e.Now() < 0 {
		t.Fatalf("identity: ID %d N %d Now %v", e.ID(), e.N(), e.Now())
	}
}

func TestTimerFiresOnce(t *testing.T) {
	n := &node{}
	e := start(newEnv(nil), n)
	e.SetTimer(1, time.Millisecond)
	if !eventually(func() bool { return n.timers.Load() == 1 }) {
		t.Fatal("timer did not fire")
	}
	settle()
	if got := n.timers.Load(); got != 1 {
		t.Fatalf("one-shot timer fired %d times", got)
	}
}

func TestTimerRearmReplaces(t *testing.T) {
	n := &node{}
	e := start(newEnv(nil), n)
	e.SetTimer(1, 5*time.Millisecond)
	e.SetTimer(1, 300*time.Millisecond) // replaces; the old deadline must not fire
	settle()
	if got := n.timers.Load(); got != 0 {
		t.Fatalf("stale timer fired (%d)", got)
	}
}

func TestStopTimer(t *testing.T) {
	n := &node{}
	e := start(newEnv(nil), n)
	e.SetTimer(2, 10*time.Millisecond)
	e.StopTimer(2)
	e.StopTimer(3) // never armed: a no-op
	settle()
	if n.timers.Load() != 0 {
		t.Fatal("stopped timer fired")
	}
}

// TestStopTimerInvalidatesInFlightFire: the timer has expired and its
// goroutine is parked on the callback lock when StopTimer (and, for a second
// key, a re-arm) arrives; neither parked fire may reach OnTimer.
func TestStopTimerInvalidatesInFlightFire(t *testing.T) {
	n := &node{}
	e := start(newEnv(nil), n)
	e.Lock()
	e.SetTimer(1, 0)
	e.SetTimer(2, 0)
	settle() // both fires are now waiting for the lock
	e.StopTimer(1)
	e.SetTimer(2, time.Hour)
	e.Unlock()
	settle()
	if got := n.timers.Load(); got != 0 {
		t.Fatalf("%d invalidated fires reached OnTimer", got)
	}
}

// busyNode re-arms a zero-delay timer from every fire, so a fire is in
// flight at almost every instant, and flags any callback that runs once its
// OnCrash has.
type busyNode struct {
	node
	dead       atomic.Bool
	violations atomic.Int32
}

func (n *busyNode) Start(env proc.Env) { n.node.Start(env); env.SetTimer(1, 0) }
func (n *busyNode) OnTimer(k proc.TimerKey) {
	if n.dead.Load() {
		n.violations.Add(1)
	}
	n.timers.Add(1)
	n.env.SetTimer(1, 0)
}
func (n *busyNode) OnMessage(proc.ID, any) {
	if n.dead.Load() {
		n.violations.Add(1)
	}
}
func (n *busyNode) OnCrash() { n.node.OnCrash(); n.dead.Store(true) }

func TestCrashStopsProcess(t *testing.T) {
	for round := 0; round < 50; round++ {
		n := &busyNode{}
		e := start(newEnv(nil), n)
		if !eventually(func() bool { return n.timers.Load() > 3 }) {
			t.Fatal("busy timer never ran")
		}
		e.Crash()
		// Synchronous: down, OnCrash done, and nothing arms or fires now.
		if !e.Crashed() || n.crashes.Load() != 1 {
			t.Fatalf("after Crash: Crashed %v, OnCrash ran %d times", e.Crashed(), n.crashes.Load())
		}
		fired := n.timers.Load()
		e.SetTimer(1, 0)
		if e.Deliver(0, "late") {
			t.Fatal("crashed process accepted a message")
		}
		e.Crash() // idempotent
		time.Sleep(2 * time.Millisecond)
		if n.crashes.Load() != 1 {
			t.Fatalf("OnCrash ran %d times", n.crashes.Load())
		}
		if n.timers.Load() != fired || n.violations.Load() != 0 {
			t.Fatalf("round %d: %d fires and %d callbacks after OnCrash", round, n.timers.Load()-fired, n.violations.Load())
		}
		if st := e.snapshot(); st.Dropped != 1 || st.Delivered != 0 {
			t.Fatalf("late message not counted dropped: %+v", st)
		}
	}
}

func TestRestart(t *testing.T) {
	old := &node{}
	e := start(newEnv(nil), old)
	if e.Restart(func() proc.Node { t.Error("build ran for a live process"); return &node{} }) {
		t.Fatal("Restart swapped a live process")
	}
	if inc, up := e.Incarnation(); inc != 0 || !up {
		t.Fatalf("Incarnation = %d, %v before any crash", inc, up)
	}
	e.SetTimer(5, 10*time.Millisecond) // armed by the old incarnation: dies with it
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
	if e.Crashed() || fresh.started.Load() != 1 || fresh.env != proc.Env(e) {
		t.Fatalf("after Restart: Crashed %v, fresh started %d", e.Crashed(), fresh.started.Load())
	}
	if inc, up := e.Incarnation(); inc != 1 || !up {
		t.Fatalf("Incarnation = %d, %v after one restart", inc, up)
	}

	// A copy stamped for the old incarnation dies; an unstamped or current
	// one reaches the new node only.
	if e.DeliverTo(0, 0, "stale") {
		t.Fatal("stale-incarnation copy delivered")
	}
	if !e.DeliverTo(1, 0, "current") || !e.Deliver(0, "unstamped") {
		t.Fatal("live incarnation refused a message")
	}
	if old.msgs.Load() != 0 || fresh.msgs.Load() != 2 {
		t.Fatalf("deliveries: old %d fresh %d, want 0 and 2", old.msgs.Load(), fresh.msgs.Load())
	}
	if st := e.snapshot(); st.Dropped != 1 || st.Delivered != 2 {
		t.Fatalf("stats %+v, want Dropped 1 Delivered 2", st)
	}

	// Timers armed by the old incarnation stay dead; the new one's work.
	e.SetTimer(1, time.Millisecond)
	if !eventually(func() bool { return fresh.timers.Load() == 1 }) {
		t.Fatal("restarted process's timer did not fire")
	}
	settle()
	if old.timers.Load() != 0 || fresh.timers.Load() != 1 {
		t.Fatalf("the crashed incarnation's timer fired: old %d fresh %d", old.timers.Load(), fresh.timers.Load())
	}
}

func TestRestartPanics(t *testing.T) {
	e := start(newEnv(nil), &node{})
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
}

func TestDeliverHookRunsUnderTheLock(t *testing.T) {
	var hooked, inside int
	n := &node{}
	var e *env
	e = newEnv(func(to proc.ID) {
		hooked++ // plain int: -race flags it if two deliveries overlap
		if to != 0 || n.msgs.Load() != int32(hooked) {
			inside++
		}
	})
	start(e, n)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
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
// without it a changed counter is.
func TestLockExcludesCallbacks(t *testing.T) {
	cur := &plainNode{}
	e := start(newEnv(nil), cur)
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
	n := &busyNode{}
	e := start(newEnv(nil), n)
	if !eventually(func() bool { return n.timers.Load() > 3 }) {
		t.Fatal("busy timer never ran")
	}
	e.Stop()
	fired := n.timers.Load()
	e.SetTimer(2, 0) // ignored: the cluster is gone
	settle()
	if got := n.timers.Load(); got != fired {
		t.Fatalf("%d timer callbacks after Stop returned", got-fired)
	}
	if e.Crashed() {
		t.Fatal("Stop reads as a crash")
	}
}

func TestStatsTaps(t *testing.T) {
	var s host.Stats
	hb := &wire.Heartbeat{Seq: 1}
	s.TapSent(hb, 0)
	s.TapSent(hb, 7)
	s.TapSent(nil, 7) // not a wire message: sent, but no size or kind
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
}
