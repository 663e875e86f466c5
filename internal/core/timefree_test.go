package core

import (
	"testing"

	"repro/internal/bitset"
	"repro/internal/rounds"
	"repro/internal/wire"
)

// timeFree is the time-free variant's config for n processes of which t may
// crash.
func timeFree(n, t int) Config { return Config{N: n, T: t, Variant: VariantTimeFree} }

func TestTimeFreeRoundClosesOnAlphaAlone(t *testing.T) {
	// N=4, T=1 -> alpha=3. No timer involvement at all.
	n, env := newStartedNode(t, 0, timeFree(4, 1))
	env.take()
	n.OnMessage(1, &wire.Alive{RN: 1, SuspLevel: make([]int64, 4)})
	if len(env.take()) != 0 {
		t.Fatal("round closed below alpha")
	}
	n.OnMessage(2, &wire.Alive{RN: 1, SuspLevel: make([]int64, 4)})
	sends := env.take()
	sus := suspicionsIn(sends)
	if len(sus) == 0 || sus[0].RN != 1 {
		t.Fatalf("no suspicion after alpha receptions: %v", sends)
	}
	if want := bitset.FromMembers(4, 3); !sus[0].Suspects.Equal(want) {
		t.Fatalf("suspects = %v, want %v", sus[0].Suspects, want)
	}
	if d, armed := env.timers[TimerRound]; armed {
		t.Fatalf("round timer armed (%v)", d)
	}
	if to := n.CurrentTimeout(); to != 0 {
		t.Fatalf("CurrentTimeout = %v, want 0", to)
	}
}

func TestTimeFreeCounterQuorum(t *testing.T) {
	n, _ := newStartedNode(t, 0, timeFree(4, 1))
	sus := func(from int, rn int64, k int) {
		n.OnMessage(from, &wire.Suspicion{RN: rn, Suspects: bitset.FromMembers(4, k)})
	}
	sus(0, 1, 3)
	sus(1, 1, 3)
	if n.SuspLevel()[3] != 0 {
		t.Fatal("counter rose below quorum")
	}
	sus(2, 1, 3)
	if n.SuspLevel()[3] != 1 {
		t.Fatalf("counter = %d, want 1", n.SuspLevel()[3])
	}
	// Duplicate sender ignored.
	sus(2, 1, 3)
	if n.SuspLevel()[3] != 1 {
		t.Fatal("duplicate suspicion counted")
	}
}

func TestTimeFreeGossipMerge(t *testing.T) {
	n, _ := newStartedNode(t, 0, timeFree(3, 1))
	n.OnMessage(1, &wire.Alive{RN: 1, SuspLevel: []int64{0, 0, 9}})
	if n.SuspLevel()[2] != 9 {
		t.Fatalf("gossip merge failed: %v", n.SuspLevel())
	}
	if n.Leader() != 0 {
		t.Fatalf("leader = %d", n.Leader())
	}
}

func TestTimeFreeCatchesUpMultipleRounds(t *testing.T) {
	n, env := newStartedNode(t, 0, timeFree(3, 1))
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
	closed := map[int64]bool{}
	for _, m := range suspicionsIn(env.take()) {
		closed[m.RN] = true
	}
	for _, rn := range []int64{1, 2, 3} {
		if !closed[rn] {
			t.Fatalf("round %d did not close (closed: %v)", rn, closed)
		}
	}
}

func TestTimeFreeRetention(t *testing.T) {
	cfg := timeFree(4, 1)
	cfg.Retention = 5
	n, _ := newStartedNode(t, 0, cfg)
	for rn := int64(1); rn <= 60; rn++ {
		advanceTo(n, rn)
		n.OnMessage(1, &wire.Suspicion{RN: rn, Suspects: bitset.FromMembers(4, 3)})
	}
	if got := n.win.SuspRounds(); got > 7 {
		t.Fatalf("suspicion rounds tracked = %d with retention 5", got)
	}
}

func TestTimeFreeValidation(t *testing.T) {
	if _, err := NewNode(0, timeFree(1, 0)); err == nil {
		t.Fatal("N=1 accepted")
	}
	if _, err := NewNode(0, timeFree(3, 2)); err == nil {
		t.Fatal("alpha=1 accepted (Zeno)")
	}
}

func TestTimeFreeCrashSilences(t *testing.T) {
	n, env := newStartedNode(t, 0, timeFree(3, 1))
	env.take()
	n.OnCrash()
	n.OnTimer(TimerAlive)
	n.OnMessage(1, &wire.Alive{RN: 1, SuspLevel: make([]int64, 3)})
	if len(env.take()) != 0 {
		t.Fatal("crashed timefree node sent messages")
	}
}

// TestTimeFreeBoundsN: the time-free variant accepts N up to rounds.MaxN,
// the largest universe the round window and the wire codec serve, and
// rejects one more.
func TestTimeFreeBoundsN(t *testing.T) {
	if _, err := NewNode(0, timeFree(rounds.MaxN, 1)); err != nil {
		t.Fatalf("N = %d rejected: %v", rounds.MaxN, err)
	}
	if _, err := NewNode(0, timeFree(rounds.MaxN+1, 1)); err == nil {
		t.Fatalf("N = %d accepted", rounds.MaxN+1)
	}
}
