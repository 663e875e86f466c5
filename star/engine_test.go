package star_test

import (
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/star"
)

// TestEngineParity pins what the cluster guarantees identically on every
// transport — the simulator, Live, Network with every member hosted, Network
// hosting members 0 and 1 of 3 — around its one crash and restart path, its
// schedules and its shutdown.
func TestEngineParity(t *testing.T) {
	const n = 3
	for _, tr := range []struct {
		name      string
		transport func(t *testing.T) star.Transport
		hosts2    bool
		wall      bool
	}{
		{"sim", func(*testing.T) star.Transport { return star.Simulated() }, true, false},
		{"live", func(*testing.T) star.Transport { return star.Live() }, true, true},
		{"net", func(*testing.T) star.Transport { return star.Network(loopbackAddrs(n)) }, true, true},
		{"net-partial", func(t *testing.T) star.Transport {
			return star.Network(freeLoopbackAddrs(t, n), star.HostMembers(0, 1))
		}, false, true},
	} {
		t.Run(tr.name, func(t *testing.T) {
			goroutines := runtime.NumGoroutine()
			build := func(opts ...star.Option) *star.Cluster {
				t.Helper()
				c, err := star.New(append([]star.Option{
					star.N(n), star.Seed(9), tr.transport(t),
					star.AlivePeriod(2 * time.Millisecond), star.SampleEvery(2 * time.Millisecond),
				}, opts...)...)
				if err != nil {
					t.Fatal(err)
				}
				return c
			}

			// A scheduled crash executes where the member is hosted and is
			// a no-op where it is not (its own process runs that share).
			var crashes atomic.Int32
			c := build(
				star.Scenario(star.Combined(star.CrashAt(2, 10*time.Millisecond))),
				star.Observe(star.EventCrash, func(star.Event) { crashes.Add(1) }),
			)
			if err := c.Run(80 * time.Millisecond); err != nil {
				t.Fatal(err)
			}
			want := int32(0)
			if tr.hosts2 {
				want = 1
			}
			if c.Crashed(2) != tr.hosts2 || c.EverCrashed(2) != tr.hosts2 || crashes.Load() != want {
				t.Fatalf("scheduled crash of member 2 (hosted here: %v): Crashed %v EverCrashed %v events %d",
					tr.hosts2, c.Crashed(2), c.EverCrashed(2), crashes.Load())
			}

			// Crashing a member that is already down announces nothing.
			for i := 0; i < 2; i++ {
				if err := c.Crash(1); err != nil {
					t.Fatal(err)
				}
			}
			if !c.Crashed(1) || crashes.Load() != want+1 {
				t.Fatalf("two Crash(1) calls: Crashed %v, %d crash events, want %d", c.Crashed(1), crashes.Load(), want+1)
			}

			// Close interrupts a sleeping wall-clock Run, is idempotent,
			// and Run afterwards is refused.
			var running chan error
			if tr.wall {
				running = make(chan error, 1)
				go func() { running <- c.Run(time.Hour) }()
				time.Sleep(5 * time.Millisecond)
			}
			for i := 0; i < 2; i++ {
				if err := c.Close(); err != nil {
					t.Fatalf("Close #%d: %v", i+1, err)
				}
			}
			if tr.wall {
				select {
				case err := <-running:
					if !errors.Is(err, star.ErrClosed) {
						t.Fatalf("Run interrupted by Close returned %v, want ErrClosed", err)
					}
				case <-time.After(5 * time.Second):
					t.Fatal("Close left Run sleeping")
				}
			}
			if err := c.Run(time.Millisecond); !errors.Is(err, star.ErrClosed) {
				t.Fatalf("Run after Close returned %v, want ErrClosed", err)
			}

			// One crash and one restart, each announced once, though the
			// schedules also crash the member while it is down (the chaos
			// kill at 40ms) and restart it while it is up (the chaos
			// restart at 120ms). The scheduled restart announces its
			// recovery before the restart itself.
			var mu sync.Mutex
			var kinds []star.EventKind
			c = build(
				star.Scenario(star.Combined(star.CrashAt(1, 20*time.Millisecond), star.RestartAt(1, 80*time.Millisecond))),
				star.WithChaos(star.NewChaosSchedule().Kill(40*time.Millisecond, 1).Restart(120*time.Millisecond, 1)),
				star.WithRecovery(star.MemJournal()),
				star.Observe(star.EventCrash|star.EventRecovery|star.EventRestart, func(ev star.Event) {
					if ev.Proc == 1 {
						mu.Lock()
						kinds = append(kinds, ev.Kind)
						mu.Unlock()
					}
				}),
			)
			if err := c.Run(200 * time.Millisecond); err != nil {
				t.Fatal(err)
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			mu.Lock()
			got := slices.Clone(kinds)
			mu.Unlock()
			if wantKinds := []star.EventKind{star.EventCrash, star.EventRecovery, star.EventRestart}; !slices.Equal(got, wantKinds) {
				t.Fatalf("member 1 events %v, want %v", got, wantKinds)
			}
			if c.Crashed(1) || !c.EverCrashed(1) {
				t.Fatalf("after the restart: Crashed %v EverCrashed %v, want false true", c.Crashed(1), c.EverCrashed(1))
			}

			// Close at every phase of a dense churn rotation: crash and
			// restart timers fire every millisecond, so some Close lands
			// while one is rebuilding a process. Nothing may panic, and
			// (below) nothing may outlive its cluster.
			for i := 0; i < 8; i++ {
				c := build(star.Churn(time.Millisecond, 2*time.Millisecond, time.Millisecond, time.Second))
				time.Sleep(time.Duration(i) * 700 * time.Microsecond)
				if err := c.Close(); err != nil {
					t.Fatal(err)
				}
			}

			if !tr.wall {
				return
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
			}
			if now := runtime.NumGoroutine(); now > goroutines {
				buf := make([]byte, 1<<16)
				t.Fatalf("%d goroutines outlive their closed clusters:\n%s", now-goroutines, buf[:runtime.Stack(buf, true)])
			}
		})
	}
}

// TestSimAttachesAdversaryProbes pins that the simulator hands the scenario
// its view of the cluster: without it the lose adversary reads every round
// as unknown and holds nothing, with no error anywhere. The Intermittent
// family must lose-hold against the core algorithms; Combined has no lose
// adversary, and Stable has no receiving round for it to read.
func TestSimAttachesAdversaryProbes(t *testing.T) {
	for _, tc := range []struct {
		name     string
		algo     star.Algo
		spec     star.ScenarioSpec
		wantLose bool
	}{
		{"intermittent/fig1", star.Fig1, star.Intermittent(star.Gap(4)), true},
		{"intermittent/fig3", star.Fig3, star.Intermittent(star.Gap(4)), true},
		{"combined/fig3", star.Fig3, star.Combined(), false},
		{"intermittent/stable", star.Stable, star.Intermittent(star.Gap(4)), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := star.New(star.N(5), star.Seed(1), star.Algorithm(tc.algo), star.Scenario(tc.spec))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if err := c.Run(2 * time.Second); err != nil {
				t.Fatal(err)
			}
			lose := c.Metrics().GateHeldLose
			t.Logf("GateHeldLose = %d", lose)
			if (lose > 0) != tc.wantLose {
				t.Fatalf("GateHeldLose = %d, want > 0: %v", lose, tc.wantLose)
			}
		})
	}
}
