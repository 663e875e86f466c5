package baseline

import (
	"testing"
	"time"

	"repro/internal/bitset"
	"repro/internal/proc"
	"repro/internal/rounds"
	"repro/internal/wire"
)

// fakeEnv mirrors the one in internal/core's tests.
type fakeEnv struct {
	id, n  int
	now    time.Duration
	sent   []fakeSend
	timers map[proc.TimerKey]time.Duration
}

type fakeSend struct {
	to  proc.ID
	msg any
}

func newFakeEnv(id, n int) *fakeEnv {
	return &fakeEnv{id: id, n: n, timers: make(map[proc.TimerKey]time.Duration)}
}

func (e *fakeEnv) ID() proc.ID              { return e.id }
func (e *fakeEnv) N() int                   { return e.n }
func (e *fakeEnv) Now() time.Duration       { return e.now }
func (e *fakeEnv) Send(to proc.ID, msg any) { e.sent = append(e.sent, fakeSend{to, msg}) }
func (e *fakeEnv) Multicast(dests *bitset.Set, msg any) {
	dests.ForEach(func(to int) { e.Send(to, msg) })
}
func (e *fakeEnv) SetTimer(k proc.TimerKey, d time.Duration) { e.timers[k] = d }
func (e *fakeEnv) StopTimer(k proc.TimerKey)                 { delete(e.timers, k) }
func (e *fakeEnv) take() []fakeSend                          { out := e.sent; e.sent = nil; return out }

func TestStableInitialLeaderIsSmallestID(t *testing.T) {
	s, err := NewStable(StableConfig{N: 4})
	if err != nil {
		t.Fatal(err)
	}
	env := newFakeEnv(2, 4)
	s.Start(env)
	if s.Leader() != 0 {
		t.Fatalf("leader = %d, want 0", s.Leader())
	}
}

func TestStableSuspectsSilentProcess(t *testing.T) {
	s, _ := NewStable(StableConfig{N: 3, Period: 10 * time.Millisecond})
	env := newFakeEnv(2, 3)
	s.Start(env)
	// Heartbeats from 1 but not from 0; 1's is fresh at sweep time
	// (40-25=15ms <= 20ms timeout) while 0's silence (40ms) is not.
	env.now = 25 * time.Millisecond
	s.OnMessage(1, &wire.Heartbeat{Seq: 1})
	env.now = 40 * time.Millisecond
	s.OnTimer(timerSweep)
	if s.Leader() != 1 {
		t.Fatalf("leader = %d, want 1 (0 timed out)", s.Leader())
	}
}

func TestStableTimeoutGrowsOnFalseSuspicion(t *testing.T) {
	s, _ := NewStable(StableConfig{N: 3, Period: 10 * time.Millisecond})
	env := newFakeEnv(2, 3)
	s.Start(env)
	before := s.timeout[0]
	env.now = 40 * time.Millisecond
	s.OnTimer(timerSweep) // suspect 0
	if s.Leader() == 0 {
		t.Fatal("0 still trusted")
	}
	s.OnMessage(0, &wire.Heartbeat{Seq: 1}) // 0 was alive after all
	if s.Leader() != 0 {
		t.Fatal("0 not re-trusted")
	}
	if s.timeout[0] <= before {
		t.Fatalf("timeout did not grow: %v -> %v", before, s.timeout[0])
	}
}

func TestStableBeaconPeriodic(t *testing.T) {
	s, _ := NewStable(StableConfig{N: 3})
	env := newFakeEnv(0, 3)
	s.Start(env)
	first := env.take()
	hb := 0
	for _, m := range first {
		if _, ok := m.msg.(*wire.Heartbeat); ok {
			hb++
		}
	}
	if hb != 2 {
		t.Fatalf("initial heartbeats = %d, want 2 (peers only)", hb)
	}
	s.OnTimer(timerBeacon)
	if len(env.take()) != 2 {
		t.Fatal("beacon timer did not rebroadcast")
	}
}

func TestStableCrashSilences(t *testing.T) {
	s, _ := NewStable(StableConfig{N: 3})
	env := newFakeEnv(0, 3)
	s.Start(env)
	env.take()
	s.OnCrash()
	s.OnTimer(timerBeacon)
	s.OnTimer(timerSweep)
	if len(env.take()) != 0 {
		t.Fatal("crashed stable node sent messages")
	}
}

func TestStableValidation(t *testing.T) {
	if _, err := NewStable(StableConfig{N: 1}); err == nil {
		t.Fatal("N=1 accepted")
	}
}

func TestTimeFreeRoundClosesOnAlphaAlone(t *testing.T) {
	// N=4, T=1 -> alpha=3. No timer involvement at all.
	n, err := NewTimeFree(TimeFreeConfig{N: 4, T: 1})
	if err != nil {
		t.Fatal(err)
	}
	env := newFakeEnv(0, 4)
	n.Start(env)
	env.take()
	n.OnMessage(1, &wire.Alive{RN: 1, SuspLevel: make([]int64, 4)})
	if len(env.take()) != 0 {
		t.Fatal("round closed below alpha")
	}
	n.OnMessage(2, &wire.Alive{RN: 1, SuspLevel: make([]int64, 4)})
	sends := env.take()
	var sus *wire.Suspicion
	for _, s := range sends {
		if m, ok := s.msg.(*wire.Suspicion); ok {
			sus = m
			break
		}
	}
	if sus == nil || sus.RN != 1 {
		t.Fatalf("no suspicion after alpha receptions: %v", sends)
	}
	if want := bitset.FromMembers(4, 3); !sus.Suspects.Equal(want) {
		t.Fatalf("suspects = %v, want %v", sus.Suspects, want)
	}
}

func TestTimeFreeCounterQuorum(t *testing.T) {
	n, _ := NewTimeFree(TimeFreeConfig{N: 4, T: 1})
	env := newFakeEnv(0, 4)
	n.Start(env)
	sus := func(from int, rn int64, k int) {
		n.OnMessage(from, &wire.Suspicion{RN: rn, Suspects: bitset.FromMembers(4, k)})
	}
	sus(0, 1, 3)
	sus(1, 1, 3)
	if n.Counters()[3] != 0 {
		t.Fatal("counter rose below quorum")
	}
	sus(2, 1, 3)
	if n.Counters()[3] != 1 {
		t.Fatalf("counter = %d, want 1", n.Counters()[3])
	}
	// Duplicate sender ignored.
	sus(2, 1, 3)
	if n.Counters()[3] != 1 {
		t.Fatal("duplicate suspicion counted")
	}
}

func TestTimeFreeGossipMerge(t *testing.T) {
	n, _ := NewTimeFree(TimeFreeConfig{N: 3, T: 1})
	env := newFakeEnv(0, 3)
	n.Start(env)
	n.OnMessage(1, &wire.Alive{RN: 1, SuspLevel: []int64{0, 0, 9}})
	if n.Counters()[2] != 9 {
		t.Fatalf("gossip merge failed: %v", n.Counters())
	}
	if n.Leader() != 0 {
		t.Fatalf("leader = %d", n.Leader())
	}
}

func TestTimeFreeCatchesUpMultipleRounds(t *testing.T) {
	n, _ := NewTimeFree(TimeFreeConfig{N: 3, T: 1})
	env := newFakeEnv(0, 3)
	n.Start(env)
	env.take()
	// Rounds 2 and 3 fill up before round 1.
	for _, rn := range []int64{2, 3} {
		n.OnMessage(1, &wire.Alive{RN: rn, SuspLevel: make([]int64, 3)})
	}
	if len(env.take()) != 0 {
		t.Fatal("closed out of order")
	}
	// Round 1 closes, and rounds 2, 3 cascade.
	n.OnMessage(1, &wire.Alive{RN: 1, SuspLevel: make([]int64, 3)})
	rounds := map[int64]bool{}
	for _, s := range env.take() {
		if m, ok := s.msg.(*wire.Suspicion); ok {
			rounds[m.RN] = true
		}
	}
	for _, rn := range []int64{1, 2, 3} {
		if !rounds[rn] {
			t.Fatalf("round %d did not close (closed: %v)", rn, rounds)
		}
	}
}

func TestTimeFreeRetention(t *testing.T) {
	n, _ := NewTimeFree(TimeFreeConfig{N: 4, T: 1, Retention: 5})
	env := newFakeEnv(0, 4)
	n.Start(env)
	for rn := int64(1); rn <= 60; rn++ {
		n.OnMessage(1, &wire.Suspicion{RN: rn, Suspects: bitset.FromMembers(4, 3)})
	}
	if got := n.win.SuspRounds(); got > 7 {
		t.Fatalf("suspicion rounds tracked = %d with retention 5", got)
	}
}

func TestTimeFreeValidation(t *testing.T) {
	if _, err := NewTimeFree(TimeFreeConfig{N: 1, T: 0}); err == nil {
		t.Fatal("N=1 accepted")
	}
	if _, err := NewTimeFree(TimeFreeConfig{N: 3, T: 2}); err == nil {
		t.Fatal("alpha=1 accepted (Zeno)")
	}
}

func TestTimeFreeCrashSilences(t *testing.T) {
	n, _ := NewTimeFree(TimeFreeConfig{N: 3, T: 1})
	env := newFakeEnv(0, 3)
	n.Start(env)
	env.take()
	n.OnCrash()
	n.OnTimer(timerBeacon)
	n.OnMessage(1, &wire.Alive{RN: 1, SuspLevel: make([]int64, 3)})
	if len(env.take()) != 0 {
		t.Fatal("crashed timefree node sent messages")
	}
}

// TestTimeFreeBoundsN: NewTimeFree accepts N up to rounds.MaxN, the
// largest universe the round window and the wire codec serve, and rejects
// one more.
func TestTimeFreeBoundsN(t *testing.T) {
	if _, err := NewTimeFree(TimeFreeConfig{N: rounds.MaxN, T: 1}); err != nil {
		t.Fatalf("N = %d rejected: %v", rounds.MaxN, err)
	}
	if _, err := NewTimeFree(TimeFreeConfig{N: rounds.MaxN + 1, T: 1}); err == nil {
		t.Fatalf("N = %d accepted", rounds.MaxN+1)
	}
}
