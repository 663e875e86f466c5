package baseline

import (
	"testing"
	"time"

	"repro/internal/bitset"
	"repro/internal/proc"
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
