package core

import (
	"strings"
	"testing"
	"time"

	"repro/internal/bitset"
	"repro/internal/journal"
	"repro/internal/proc"
	"repro/internal/rounds"
	"repro/internal/wire"
)

// fakeEnv drives a Node by hand so tests can check exact line semantics.
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

func (e *fakeEnv) take() []fakeSend {
	out := e.sent
	e.sent = nil
	return out
}

// lastByKind returns the messages of one kind from a batch of sends,
// deduplicated per broadcast (one representative per distinct message value).
func suspicionsIn(sends []fakeSend) []*wire.Suspicion {
	var out []*wire.Suspicion
	seen := map[*wire.Suspicion]bool{}
	for _, s := range sends {
		if m, ok := s.msg.(*wire.Suspicion); ok && !seen[m] {
			seen[m] = true
			out = append(out, m)
		}
	}
	return out
}

func alivesIn(sends []fakeSend) []*wire.Alive {
	var out []*wire.Alive
	seen := map[*wire.Alive]bool{}
	for _, s := range sends {
		if m, ok := s.msg.(*wire.Alive); ok && !seen[m] {
			seen[m] = true
			out = append(out, m)
		}
	}
	return out
}

func newStartedNode(t *testing.T, id int, cfg Config) (*Node, *fakeEnv) {
	t.Helper()
	n, err := NewNode(id, cfg)
	if err != nil {
		t.Fatal(err)
	}
	env := newFakeEnv(id, cfg.N)
	n.Start(env)
	return n, env
}

// feedSuspicion delivers SUSPICION(rn, suspects...) from the given senders.
func feedSuspicion(n *Node, rn int64, suspect int, senders ...int) {
	for _, from := range senders {
		n.OnMessage(from, &wire.Suspicion{
			RN:       rn,
			Suspects: bitset.FromMembers(n.cfg.N, suspect),
		})
	}
}

func TestStartBroadcastsFirstAlive(t *testing.T) {
	_, env := newStartedNode(t, 0, Config{N: 4, T: 1})
	sends := env.take()
	al := alivesIn(sends)
	if len(al) != 1 || al[0].RN != 1 {
		t.Fatalf("first ALIVE = %v", al)
	}
	// Broadcast goes to the 3 peers, not to self.
	count := 0
	for _, s := range sends {
		if _, ok := s.msg.(*wire.Alive); ok {
			if s.to == 0 {
				t.Error("ALIVE sent to self")
			}
			count++
		}
	}
	if count != 3 {
		t.Fatalf("ALIVE sent to %d peers, want 3", count)
	}
	// Both timers armed.
	if _, ok := env.timers[TimerAlive]; !ok {
		t.Error("TimerAlive not armed")
	}
	if _, ok := env.timers[TimerRound]; !ok {
		t.Error("TimerRound not armed")
	}
}

func TestAliveTickIncrementsRound(t *testing.T) {
	n, env := newStartedNode(t, 0, Config{N: 3, T: 1})
	env.take()
	n.OnTimer(TimerAlive)
	al := alivesIn(env.take())
	if len(al) != 1 || al[0].RN != 2 {
		t.Fatalf("second ALIVE = %+v", al)
	}
	if s, _ := n.Rounds(); s != 2 {
		t.Fatalf("sRN = %d", s)
	}
}

func TestAliveCarriesSuspLevelSnapshot(t *testing.T) {
	n, env := newStartedNode(t, 0, Config{N: 3, T: 1})
	env.take()
	// Merge in some levels via gossip.
	n.OnMessage(1, &wire.Alive{RN: 1, SuspLevel: []int64{0, 0, 4}})
	n.OnTimer(TimerAlive)
	al := alivesIn(env.take())
	if len(al) != 1 || al[0].SuspLevel[2] != 4 {
		t.Fatalf("gossiped levels = %+v", al)
	}
	// Mutating the node afterwards must not alter the sent message.
	n.OnMessage(1, &wire.Alive{RN: 1, SuspLevel: []int64{0, 0, 9}})
	if al[0].SuspLevel[2] != 4 {
		t.Fatal("sent ALIVE aliases live susp_level array")
	}
}

func TestSuspLevelMergeIsPointwiseMax(t *testing.T) {
	n, env := newStartedNode(t, 0, Config{N: 3, T: 1})
	env.take()
	n.OnMessage(1, &wire.Alive{RN: 1, SuspLevel: []int64{5, 0, 2}})
	n.OnMessage(2, &wire.Alive{RN: 1, SuspLevel: []int64{3, 7, 1}})
	got := n.SuspLevel()
	want := []int64{5, 7, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("suspLevel = %v, want %v", got, want)
		}
	}
}

func TestGuardRequiresTimerAndQuorum(t *testing.T) {
	// N=4, T=1 -> alpha = 3 (self + 2 peers).
	n, env := newStartedNode(t, 0, Config{N: 4, T: 1})
	env.take()

	// Timer expires first: guard must wait for alpha receptions.
	n.OnTimer(TimerRound)
	if got := suspicionsIn(env.take()); len(got) != 0 {
		t.Fatalf("guard fired with only self in rec_from: %v", got)
	}
	n.OnMessage(1, &wire.Alive{RN: 1, SuspLevel: make([]int64, 4)})
	if got := suspicionsIn(env.take()); len(got) != 0 {
		t.Fatal("guard fired below quorum")
	}
	n.OnMessage(2, &wire.Alive{RN: 1, SuspLevel: make([]int64, 4)})
	sus := suspicionsIn(env.take())
	if len(sus) != 1 {
		t.Fatalf("guard did not fire at quorum: %v", sus)
	}
	if sus[0].RN != 1 {
		t.Errorf("SUSPICION round = %d", sus[0].RN)
	}
	// p3 was not heard from: it is the only suspect.
	if want := bitset.FromMembers(4, 3); !sus[0].Suspects.Equal(want) {
		t.Errorf("suspects = %v, want %v", sus[0].Suspects, want)
	}
	if _, r := n.Rounds(); r != 2 {
		t.Errorf("rRN = %d, want 2", r)
	}
}

func TestGuardQuorumThenTimer(t *testing.T) {
	n, env := newStartedNode(t, 0, Config{N: 4, T: 1})
	env.take()
	// All three peers answer before the timer: guard still waits.
	for _, from := range []int{1, 2, 3} {
		n.OnMessage(from, &wire.Alive{RN: 1, SuspLevel: make([]int64, 4)})
	}
	if got := suspicionsIn(env.take()); len(got) != 0 {
		t.Fatal("guard fired before timer expiry")
	}
	n.OnTimer(TimerRound)
	sus := suspicionsIn(env.take())
	if len(sus) != 1 {
		t.Fatal("guard did not fire after timer")
	}
	if !sus[0].Suspects.Empty() {
		t.Errorf("suspects = %v, want empty", sus[0].Suspects)
	}
}

func TestSuspicionBroadcastIncludesSelf(t *testing.T) {
	n, env := newStartedNode(t, 0, Config{N: 3, T: 1})
	env.take()
	n.OnTimer(TimerRound)
	n.OnMessage(1, &wire.Alive{RN: 1, SuspLevel: make([]int64, 3)})
	sends := env.take()
	toSelf := false
	for _, s := range sends {
		if _, ok := s.msg.(*wire.Suspicion); ok && s.to == 0 {
			toSelf = true
		}
	}
	if !toSelf {
		t.Fatal("SUSPICION not sent to self (line 10 sends to every process)")
	}
}

func TestLateAliveDiscarded(t *testing.T) {
	n, env := newStartedNode(t, 0, Config{N: 3, T: 1})
	env.take()
	// Finish round 1.
	n.OnTimer(TimerRound)
	n.OnMessage(1, &wire.Alive{RN: 1, SuspLevel: make([]int64, 3)})
	env.take()
	// rRN is now 2; an ALIVE(1) is late. Its gossip still merges.
	n.OnMessage(2, &wire.Alive{RN: 1, SuspLevel: []int64{0, 0, 3}})
	if n.Metrics().LateAlive != 1 {
		t.Fatalf("LateAlive = %d", n.Metrics().LateAlive)
	}
	if n.SuspLevel()[2] != 3 {
		t.Fatal("line 5 merge must apply even to late ALIVEs")
	}
	// The late sender must not count toward round 2.
	n.OnTimer(TimerRound)
	if got := suspicionsIn(env.take()); len(got) != 0 {
		t.Fatal("late ALIVE counted toward current round")
	}
}

func TestFutureAliveCountsLater(t *testing.T) {
	n, env := newStartedNode(t, 0, Config{N: 3, T: 1})
	env.take()
	// ALIVE for round 2 arrives while still in round 1.
	n.OnMessage(1, &wire.Alive{RN: 2, SuspLevel: make([]int64, 3)})
	n.OnMessage(2, &wire.Alive{RN: 2, SuspLevel: make([]int64, 3)})
	// Round 1 completes via p1.
	n.OnTimer(TimerRound)
	n.OnMessage(1, &wire.Alive{RN: 1, SuspLevel: make([]int64, 3)})
	sus := suspicionsIn(env.take())
	if len(sus) != 1 || sus[0].RN != 1 {
		t.Fatalf("round 1 suspicion = %v", sus)
	}
	// Round 2's quorum is already there; only the timer is missing.
	n.OnTimer(TimerRound)
	sus = suspicionsIn(env.take())
	if len(sus) != 1 || sus[0].RN != 2 {
		t.Fatalf("round 2 suspicion = %v", sus)
	}
	if !sus[0].Suspects.Empty() {
		t.Errorf("round 2 suspects = %v", sus[0].Suspects)
	}
}

func TestSuspicionThresholdIncrementsFig1(t *testing.T) {
	n, _ := newStartedNode(t, 0, Config{N: 4, T: 1, Variant: VariantFig1})
	feedSuspicion(n, 5, 3, 0, 1)
	if n.SuspLevel()[3] != 0 {
		t.Fatal("incremented below threshold")
	}
	feedSuspicion(n, 5, 3, 2)
	if n.SuspLevel()[3] != 1 {
		t.Fatalf("susp_level[3] = %d, want 1", n.SuspLevel()[3])
	}
	// A fourth report for the same round must not increment again
	// (counts pass through the threshold exactly once... they exceed it).
	feedSuspicion(n, 5, 3, 3)
	if n.SuspLevel()[3] != 2 {
		// With count now 4 >= alpha the paper's line 16 fires again:
		// each report above threshold re-satisfies the condition.
		t.Fatalf("susp_level[3] = %d after 4th report", n.SuspLevel()[3])
	}
}

func TestSuspicionDeduplicated(t *testing.T) {
	n, _ := newStartedNode(t, 0, Config{N: 4, T: 1, Variant: VariantFig1})
	feedSuspicion(n, 5, 3, 1, 1, 1) // same sender three times
	if n.SuspLevel()[3] != 0 {
		t.Fatal("duplicate SUSPICION counted")
	}
	if n.Metrics().DupSuspicion != 2 {
		t.Fatalf("DupSuspicion = %d", n.Metrics().DupSuspicion)
	}
}

func TestWindowTestBlocksGapsFig2(t *testing.T) {
	n, _ := newStartedNode(t, 0, Config{N: 4, T: 1, Variant: VariantFig2})
	// Round 5: level 0, window empty -> increment to 1.
	feedSuspicion(n, 5, 3, 0, 1, 2)
	if n.SuspLevel()[3] != 1 {
		t.Fatalf("level after round 5 = %d, want 1", n.SuspLevel()[3])
	}
	// Round 7: window [6,7) has no quorum -> blocked.
	feedSuspicion(n, 7, 3, 0, 1, 2)
	if n.SuspLevel()[3] != 1 {
		t.Fatalf("level after gap = %d, want 1 (window test)", n.SuspLevel()[3])
	}
	// Round 6: window [5,6) has quorum -> increment to 2.
	feedSuspicion(n, 6, 3, 0, 1, 2)
	if n.SuspLevel()[3] != 2 {
		t.Fatalf("level after round 6 = %d, want 2", n.SuspLevel()[3])
	}
}

func TestFig1IgnoresWindow(t *testing.T) {
	n, _ := newStartedNode(t, 0, Config{N: 4, T: 1, Variant: VariantFig1})
	feedSuspicion(n, 5, 3, 0, 1, 2)
	feedSuspicion(n, 7, 3, 0, 1, 2) // gap at 6; Figure 1 does not care
	if n.SuspLevel()[3] != 2 {
		t.Fatalf("level = %d, want 2 (no window test in Figure 1)", n.SuspLevel()[3])
	}
}

func TestWindowClampedAtRoundOne(t *testing.T) {
	n, _ := newStartedNode(t, 0, Config{N: 4, T: 1, Variant: VariantFig2})
	// Raise the level so the window would extend below round 1. The
	// window is clamped to existing rounds (suspicions is only defined
	// for rn >= 1), so each early round has a fully-quorate window:
	//   rn=1: [max(1,1-5),1) = [1,1) empty        -> level 6
	//   rn=2: [max(1,2-6),2) = [1,2) quorate      -> level 7
	//   rn=3: [max(1,3-7),3) = [1,3) quorate      -> level 8
	n.OnMessage(1, &wire.Alive{RN: 1, SuspLevel: []int64{0, 0, 0, 5}})
	feedSuspicion(n, 1, 3, 0, 1, 2)
	feedSuspicion(n, 2, 3, 0, 1, 2)
	feedSuspicion(n, 3, 3, 0, 1, 2)
	if n.SuspLevel()[3] != 8 {
		t.Fatalf("level = %d, want 8 (window clamp at round 1)", n.SuspLevel()[3])
	}
}

func TestMinTestBlocksNonMinimalFig3(t *testing.T) {
	n, _ := newStartedNode(t, 0, Config{N: 4, T: 1, Variant: VariantFig3})
	// Gossip makes p3's level 1 while everyone else is 0.
	n.OnMessage(1, &wire.Alive{RN: 1, SuspLevel: []int64{0, 0, 0, 1}})
	// Continuous quorums in rounds 5 and 6.
	feedSuspicion(n, 5, 3, 0, 1, 2)
	feedSuspicion(n, 6, 3, 0, 1, 2)
	if n.SuspLevel()[3] != 1 {
		t.Fatalf("level = %d, want 1 (min test must block)", n.SuspLevel()[3])
	}
	// Once everyone reaches level 1, p3 may be raised again.
	n.OnMessage(1, &wire.Alive{RN: 2, SuspLevel: []int64{1, 1, 1, 1}})
	feedSuspicion(n, 7, 3, 0, 1, 2)
	if n.SuspLevel()[3] != 2 {
		t.Fatalf("level = %d, want 2 (min test passes at minimum)", n.SuspLevel()[3])
	}
}

func TestFig2IgnoresMinTest(t *testing.T) {
	n, _ := newStartedNode(t, 0, Config{N: 4, T: 1, Variant: VariantFig2})
	n.OnMessage(1, &wire.Alive{RN: 1, SuspLevel: []int64{0, 0, 0, 1}})
	feedSuspicion(n, 5, 3, 0, 1, 2)
	feedSuspicion(n, 6, 3, 0, 1, 2)
	// Window for 6 is [5,6): quorum present, so Figure 2 increments even
	// though 3 is not minimal.
	if n.SuspLevel()[3] != 2 {
		t.Fatalf("level = %d, want 2 (no min test in Figure 2)", n.SuspLevel()[3])
	}
}

func TestFGWindowExtension(t *testing.T) {
	// F(rn) = 2 widens the window test by two extra rounds: an increment
	// at rn needs a quorum in every round of [rn-level-2, rn).
	n, _ := newStartedNode(t, 0, Config{
		N: 4, T: 1, Variant: VariantFG,
		F: func(int64) int64 { return 2 },
	})
	// VariantFG also applies the Figure-3 min test, so between steps we
	// gossip every other level up to keep p3 at the minimum; that lets
	// this test isolate the F-window behaviour.
	levelAll := func(v int64) {
		n.OnMessage(1, &wire.Alive{RN: 1, SuspLevel: []int64{v, v, v, 0}})
	}
	// rn=1: window [max(1,1-0-2),1) = [1,1) empty -> level 1.
	feedSuspicion(n, 1, 3, 0, 1, 2)
	if n.SuspLevel()[3] != 1 {
		t.Fatalf("level = %d, want 1", n.SuspLevel()[3])
	}
	levelAll(1)
	// rn=2: window [max(1,2-1-2),2) = [1,2) quorate -> level 2.
	feedSuspicion(n, 2, 3, 0, 1, 2)
	if n.SuspLevel()[3] != 2 {
		t.Fatalf("level = %d, want 2", n.SuspLevel()[3])
	}
	levelAll(2)
	// Skip round 3; rn=4: window [max(1,4-2-2),4) = [1,4) misses round 3
	// -> blocked. Plain Figure 2 (window [2,4)) would also block here,
	// but rn=5 below distinguishes F=2 from F=0.
	feedSuspicion(n, 4, 3, 0, 1, 2)
	if n.SuspLevel()[3] != 2 {
		t.Fatal("FG window blocked increment expected at rn=4")
	}
	// rn=5: F=2 window [max(1,5-2-2),5) = [1,5) misses round 3 ->
	// blocked. Under Figure 2 the window would be [3,5), where round 4
	// IS quorate but 3 is not, so both block; the distinguishing case:
	feedSuspicion(n, 5, 3, 0, 1, 2)
	if n.SuspLevel()[3] != 2 {
		t.Fatal("FG window blocked increment expected at rn=5")
	}
	// Fill round 3: its own window [1,3) is quorate -> level 3.
	feedSuspicion(n, 3, 3, 0, 1, 2)
	if n.SuspLevel()[3] != 3 {
		t.Fatalf("level = %d, want 3", n.SuspLevel()[3])
	}
	levelAll(3)
	// rn=6: window [max(1,6-3-2),6) = [1,6) now fully quorate -> 4.
	feedSuspicion(n, 6, 3, 0, 1, 2)
	if n.SuspLevel()[3] != 4 {
		t.Fatalf("level = %d, want 4", n.SuspLevel()[3])
	}
}

func TestFGTimeoutExtension(t *testing.T) {
	n, env := newStartedNode(t, 0, Config{
		N: 3, T: 1, Variant: VariantFG,
		TimeoutUnit: time.Millisecond,
		G:           func(rn int64) time.Duration { return time.Duration(rn) * time.Second },
	})
	env.take()
	n.OnTimer(TimerRound)
	n.OnMessage(1, &wire.Alive{RN: 1, SuspLevel: make([]int64, 3)})
	// Round 1 completed; timer re-armed for round 2 with G(2)=2s.
	if got := env.timers[TimerRound]; got != 2*time.Second {
		t.Fatalf("timeout = %v, want 2s (G extension)", got)
	}
}

func TestRoundTimeoutScalesWithMaxLevel(t *testing.T) {
	n, env := newStartedNode(t, 0, Config{N: 3, T: 1, TimeoutUnit: 2 * time.Millisecond})
	env.take()
	n.OnMessage(1, &wire.Alive{RN: 1, SuspLevel: []int64{0, 0, 7}})
	n.OnTimer(TimerRound)
	if got := env.timers[TimerRound]; got != 14*time.Millisecond {
		t.Fatalf("timeout = %v, want 14ms (max level 7 * 2ms)", got)
	}
	if n.CurrentTimeout() != 14*time.Millisecond {
		t.Fatalf("CurrentTimeout = %v", n.CurrentTimeout())
	}
}

// TestTimeoutFloor: "set timer_i to 0" arms the 1µs Zeno floor, and a round
// closed with every level zero re-arms it.
func TestTimeoutFloor(t *testing.T) {
	n, env := newStartedNode(t, 0, Config{N: 3, T: 1})
	if got := env.timers[TimerRound]; got != time.Microsecond {
		t.Fatalf("initial timeout = %v, want the 1µs floor", got)
	}
	n.OnTimer(TimerRound)
	n.OnMessage(1, &wire.Alive{RN: 1, SuspLevel: make([]int64, 3)})
	if _, r := n.Rounds(); r != 2 {
		t.Fatalf("r_rn = %d, want 2", r)
	}
	if got := env.timers[TimerRound]; got != time.Microsecond {
		t.Fatalf("timeout = %v, want the 1µs floor (all levels zero)", got)
	}
}

func TestLeaderSelection(t *testing.T) {
	n, _ := newStartedNode(t, 0, Config{N: 4, T: 1})
	if n.Leader() != 0 {
		t.Fatalf("initial leader = %d, want 0 (all-zero tie broken by id)", n.Leader())
	}
	n.OnMessage(1, &wire.Alive{RN: 1, SuspLevel: []int64{3, 1, 4, 1}})
	if n.Leader() != 1 {
		t.Fatalf("leader = %d, want 1 (lowest level, lowest id tie-break)", n.Leader())
	}
}

func TestCrashedNodeDoesNothing(t *testing.T) {
	n, env := newStartedNode(t, 0, Config{N: 3, T: 1})
	env.take()
	n.OnCrash()
	n.OnTimer(TimerAlive)
	n.OnTimer(TimerRound)
	n.OnMessage(1, &wire.Alive{RN: 1, SuspLevel: make([]int64, 3)})
	if len(env.take()) != 0 {
		t.Fatal("crashed node sent messages")
	}
}

// advanceTo completes receiving rounds until r_rn reaches rn: every other
// process's ALIVE for the round arrives, then the round timer expires.
func advanceTo(n *Node, rn int64) {
	for _, r := n.Rounds(); r < rn; _, r = n.Rounds() {
		for from := range n.cfg.N {
			if from != n.env.ID() {
				n.OnMessage(from, &wire.Alive{RN: r, SuspLevel: make([]int64, n.cfg.N)})
			}
		}
		n.OnTimer(TimerRound)
	}
}

func TestRetentionPrunes(t *testing.T) {
	n, _ := newStartedNode(t, 0, Config{N: 4, T: 1, Variant: VariantFig1, Retention: 10})
	for rn := int64(1); rn <= 100; rn++ {
		advanceTo(n, rn)
		feedSuspicion(n, rn, 3, 0, 1, 2)
	}
	if got := n.win.SuspRounds(); got > 12 {
		t.Fatalf("suspicion rounds tracked = %d, want <= 12 with Retention=10", got)
	}
	if got := n.Metrics().BelowHorizon; got != 0 {
		t.Fatalf("BelowHorizon = %d, want 0 (no SUSPICION lagged r_rn)", got)
	}
}

// TestStalledReceivingRoundKeepsRows pins where bounded retention stops
// bounding memory: the horizon trails r_rn, so while r_rn stalls every
// SUSPICION row at or ahead of it is kept, and a higher max susp_level moves
// the horizon further back. Rows go once r_rn advances past them.
func TestStalledReceivingRoundKeepsRows(t *testing.T) {
	n, _ := newStartedNode(t, 0, Config{N: 4, T: 1, Variant: VariantFig1, Retention: 10})
	for rn := int64(1); rn <= 100; rn++ {
		feedSuspicion(n, rn, 3, 0, 1, 2)
	}
	if _, r := n.Rounds(); r != 1 {
		t.Fatalf("r_rn = %d, want 1 (stalled)", r)
	}
	if got := n.win.SuspRounds(); got != 100 {
		t.Fatalf("suspicion rounds tracked = %d with r_rn stalled, want 100", got)
	}
	advanceTo(n, 101)
	feedSuspicion(n, 101, 3, 0, 1, 2)
	if got := n.win.SuspRounds(); got != 11 {
		t.Fatalf("suspicion rounds tracked = %d at r_rn 101, want 11 (rounds 91-101)", got)
	}

	// Figure 3: the window test reads max susp_level rounds further back,
	// so a level of 50 keeps 50 more rows at the same r_rn.
	n, _ = newStartedNode(t, 0, Config{N: 4, T: 1, Variant: VariantFig3, Retention: 10})
	n.OnMessage(1, &wire.Alive{RN: 1, SuspLevel: []int64{0, 0, 50, 0}})
	advanceTo(n, 101)
	for rn := int64(1); rn <= 101; rn++ {
		feedSuspicion(n, rn, 3, 0, 1, 2)
	}
	if got := n.win.SuspRounds(); got != 61 {
		t.Fatalf("suspicion rounds tracked = %d at r_rn 101, max level 50, want 61 (rounds 41-101)", got)
	}
	if got := n.Metrics().BelowHorizon; got != 3*40 {
		t.Fatalf("BelowHorizon = %d, want %d (rounds 1-40's reports)", got, 3*40)
	}
}

// TestRestoredHorizonFromReceivingRound: a restored node measures its
// retention horizon from the snapshot's RRN less the window test's reach
// (susp_level max, plus F under §7), never from MaxRoundSeen.
func TestRestoredHorizonFromReceivingRound(t *testing.T) {
	levels := []int64{0, 2, 7, 1}
	cases := []struct {
		variant Variant
		want    int64
	}{
		{VariantFig1, 100 - 5},
		{VariantTimeFree, 100 - 5},
		{VariantFig2, 100 - 5 - 7},
		{VariantFig3, 100 - 5 - 7},
		{VariantFG, 100 - 5 - 7 - 10}, // F(100) = 10
	}
	for _, tc := range cases {
		t.Run(tc.variant.String(), func(t *testing.T) {
			cfg := Config{N: 4, T: 1, Variant: tc.variant, Retention: 5,
				F: func(rn int64) int64 { return rn / 10 }}
			n, err := NewNode(0, cfg)
			if err != nil {
				t.Fatal(err)
			}
			snap := &journal.Snapshot{SRN: 100, RRN: 100, MaxRoundSeen: 1000, Levels: levels}
			if err := n.RestoreSnapshot(snap); err != nil {
				t.Fatal(err)
			}
			n.Start(newFakeEnv(0, 4))
			if n.prunedBelow != tc.want {
				t.Fatalf("horizon = %d, want %d", n.prunedBelow, tc.want)
			}
		})
	}
	// Observable under Figure 1: a round just above the restored horizon
	// still counts, one below it never accumulates.
	n, err := NewNode(0, Config{N: 4, T: 1, Variant: VariantFig1, Retention: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.RestoreSnapshot(&journal.Snapshot{SRN: 100, RRN: 100, MaxRoundSeen: 1000, Levels: make([]int64, 4)}); err != nil {
		t.Fatal(err)
	}
	n.Start(newFakeEnv(0, 4))
	feedSuspicion(n, 94, 3, 0, 1, 2)
	if got := n.SuspLevel()[3]; got != 0 {
		t.Fatalf("susp_level[3] = %d after round 94, want 0 (below the horizon)", got)
	}
	feedSuspicion(n, 96, 3, 0, 1, 2)
	if got := n.SuspLevel()[3]; got != 1 {
		t.Fatalf("susp_level[3] = %d after round 96, want 1", got)
	}
	if got := n.Metrics().BelowHorizon; got != 3 {
		t.Fatalf("BelowHorizon = %d, want 3 (round 94's reports)", got)
	}
}

func TestNoRetentionKeepsAll(t *testing.T) {
	n, _ := newStartedNode(t, 0, Config{N: 4, T: 1, Variant: VariantFig1})
	for rn := int64(1); rn <= 50; rn++ {
		feedSuspicion(n, rn, 3, 0)
	}
	if got := n.win.SuspRounds(); got != 50 {
		t.Fatalf("suspicion rounds tracked = %d, want 50", got)
	}
}

func TestMetricsCounters(t *testing.T) {
	n, env := newStartedNode(t, 0, Config{N: 3, T: 1, Variant: VariantFig1})
	env.take()
	n.OnTimer(TimerAlive)
	n.OnTimer(TimerRound)
	n.OnMessage(1, &wire.Alive{RN: 1, SuspLevel: make([]int64, 3)})
	feedSuspicion(n, 1, 2, 0, 1)
	m := n.Metrics()
	if m.AliveSent != 2 {
		t.Errorf("AliveSent = %d, want 2", m.AliveSent)
	}
	if m.SuspicionsSent != 1 {
		t.Errorf("SuspicionsSent = %d, want 1", m.SuspicionsSent)
	}
	if m.RoundsDone != 1 {
		t.Errorf("RoundsDone = %d, want 1", m.RoundsDone)
	}
	if m.Increments != 1 {
		t.Errorf("Increments = %d, want 1", m.Increments)
	}
	if m.MaxSuspLevel != 1 {
		t.Errorf("MaxSuspLevel = %d", m.MaxSuspLevel)
	}
}

func TestOnIncrementHook(t *testing.T) {
	var events []int64
	cfg := Config{N: 4, T: 1, Variant: VariantFig1,
		OnIncrement: func(k int, lvl int64) { events = append(events, int64(k)<<32|lvl) }}
	n, _ := newStartedNode(t, 0, cfg)
	feedSuspicion(n, 1, 3, 0, 1, 2)
	if len(events) != 1 || events[0] != int64(3)<<32|1 {
		t.Fatalf("hook events = %v", events)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{N: 1, T: 0},
		{N: 4, T: 4},
		{N: 4, T: -1},
		{N: 4, T: 1, Alpha: 5},
		{N: 4, T: 1, AlivePeriod: -time.Second},
		{N: 4, T: 1, Variant: Variant(99)},
		{N: 4, T: 1, Retention: -1},
	}
	for i, cfg := range bad {
		if _, err := NewNode(0, cfg); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, cfg)
		}
	}
	if _, err := NewNode(5, Config{N: 4, T: 1}); err == nil {
		t.Error("out-of-range id accepted")
	}
	if _, err := NewNode(0, Config{N: 4, T: 1}); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

// TestWindowSlotsDefault: a zero WindowSlots sizes the ring at twice
// Retention, capped, or at rounds.DefaultSlots with unbounded history; an
// explicit WindowSlots wins.
func TestWindowSlotsDefault(t *testing.T) {
	cases := []struct {
		retention int64
		slots     int
		want      int
	}{
		{64, 0, 128},
		{0, 0, rounds.DefaultSlots},
		{1 << 20, 0, 8192},
		{64, 8, 8},
		{0, 1000, 1000},
	}
	for _, tc := range cases {
		cfg := Config{N: 4, T: 1, Retention: tc.retention, WindowSlots: tc.slots}.withDefaults()
		if cfg.WindowSlots != tc.want {
			t.Errorf("Retention %d, WindowSlots %d: got %d slots, want %d",
				tc.retention, tc.slots, cfg.WindowSlots, tc.want)
		}
	}
}

func TestParseVariant(t *testing.T) {
	for s, want := range map[string]Variant{
		"fig1": VariantFig1, "fig2": VariantFig2, "fig3": VariantFig3, "fg": VariantFG,
		"timefree": VariantTimeFree,
	} {
		got, err := ParseVariant(s)
		if err != nil || got != want {
			t.Errorf("ParseVariant(%q) = %v, %v", s, got, err)
		}
		if got.String() != s {
			t.Errorf("String() = %q, want %q", got.String(), s)
		}
	}
	if _, err := ParseVariant("nope"); err == nil {
		t.Error("ParseVariant accepted garbage")
	} else if !strings.Contains(err.Error(), "timefree") {
		t.Errorf("ParseVariant error %q does not list timefree", err)
	}
}

func TestAlphaOverride(t *testing.T) {
	// Footnote 5: alpha may be any lower bound on #correct.
	n, env := newStartedNode(t, 0, Config{N: 5, T: 2, Alpha: 4})
	env.take()
	n.OnTimer(TimerRound)
	for _, from := range []int{1, 2} {
		n.OnMessage(from, &wire.Alive{RN: 1, SuspLevel: make([]int64, 5)})
	}
	if got := suspicionsIn(env.take()); len(got) != 0 {
		t.Fatal("guard fired below overridden alpha")
	}
	n.OnMessage(3, &wire.Alive{RN: 1, SuspLevel: make([]int64, 5)})
	if got := suspicionsIn(env.take()); len(got) != 1 {
		t.Fatal("guard did not fire at overridden alpha")
	}
}

// TestValidateBoundsN: a suspicion count is a uint16 and the wire codec
// encodes no vector above 65 535 entries, so Validate accepts N up to
// rounds.MaxN and rejects one more.
func TestValidateBoundsN(t *testing.T) {
	if err := (Config{N: rounds.MaxN, T: 1}).withDefaults().Validate(); err != nil {
		t.Fatalf("N = %d rejected: %v", rounds.MaxN, err)
	}
	if err := (Config{N: rounds.MaxN + 1, T: 1}).withDefaults().Validate(); err == nil {
		t.Fatalf("N = %d accepted", rounds.MaxN+1)
	}
}

// TestNewNodeAllocs: a node is four allocations at any n — itself (with its
// round window held by value), susp_level, the window's slot array, and one
// words array behind the hits and atMin sets. Node construction is on the
// restart path of every churn and failover run.
func TestNewNodeAllocs(t *testing.T) {
	for _, n := range []int{5, 251} {
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := NewNode(0, Config{N: n, T: n / 2}); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 4 {
			t.Errorf("NewNode at n=%d: %v allocations, want <= 4", n, allocs)
		}
	}
}
