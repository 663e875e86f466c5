package core

import (
	"testing"

	"repro/internal/wire"
)

// The ring-window tests pin the store's contract: keeping rows in a fixed
// ring plus an overflow map must not change the paper's counting behaviour
// for any message timing — including rounds far enough apart to collide in
// the ring. A tiny WindowSlots forces the collision paths that real runs
// only hit under adversarial round skew.

// TestRingWrapPreservesSuspicionCounts drives two rounds that share a ring
// slot (rn and rn+W) and checks both keep independent counts and dedup
// state, with the displaced round served from the overflow map.
func TestRingWrapPreservesSuspicionCounts(t *testing.T) {
	n, _ := newStartedNode(t, 0, Config{N: 4, T: 1, Variant: VariantFig1, WindowSlots: 4})

	// Two of three reports for round 3: threshold (alpha=3) not reached.
	feedSuspicion(n, 3, 3, 0, 1)
	// Round 7 collides with 3 (mod 4) and evicts it to overflow.
	feedSuspicion(n, 7, 3, 0, 1)
	if got := n.Metrics().WindowEvictions; got == 0 {
		t.Fatal("expected an eviction from the 4-slot ring")
	}
	// The third distinct report for round 3 must still reach the
	// threshold: its counts survived eviction.
	feedSuspicion(n, 3, 3, 2)
	if got := n.SuspLevel()[3]; got != 1 {
		t.Fatalf("susp_level[3] = %d, want 1 (counts lost across ring wrap)", got)
	}
	// Dedup also survived: a repeat sender for round 3 is ignored.
	feedSuspicion(n, 3, 3, 2)
	if got := n.Metrics().DupSuspicion; got != 1 {
		t.Fatalf("DupSuspicion = %d, want 1 (dedup lost across ring wrap)", got)
	}
	if got := n.Metrics().WindowOverflow; got == 0 {
		t.Fatal("overflow hits not counted")
	}
	// Round 7 completes independently.
	feedSuspicion(n, 7, 3, 2)
	if got := n.SuspLevel()[3]; got != 2 {
		t.Fatalf("susp_level[3] = %d, want 2", got)
	}
}

// TestWindowTestReadsEvictedRounds checks line "*" across a ring wrap: the
// window test consults rounds that were evicted to overflow and still sees
// their quorums.
func TestWindowTestReadsEvictedRounds(t *testing.T) {
	n, _ := newStartedNode(t, 0, Config{N: 4, T: 1, Variant: VariantFig2, WindowSlots: 4})
	// Quorums in rounds 5 and 6; level reaches 2 (window [5,6) quorate).
	feedSuspicion(n, 5, 3, 0, 1, 2)
	feedSuspicion(n, 6, 3, 0, 1, 2)
	if got := n.SuspLevel()[3]; got != 2 {
		t.Fatalf("level = %d, want 2", got)
	}
	// Rounds 9 and 10 evict 5 and 6 from the 4-slot ring.
	feedSuspicion(n, 9, 3, 0, 1)
	feedSuspicion(n, 10, 3, 0, 1)
	// Round 7's window is [5,7): both rounds now live in overflow, and
	// the test must still pass.
	feedSuspicion(n, 7, 3, 0, 1, 2)
	if got := n.SuspLevel()[3]; got != 3 {
		t.Fatalf("level = %d, want 3 (window test lost evicted rounds)", got)
	}
}

// TestFutureAliveAcrossRingWrap checks line 6 under skew: receptions
// recorded for a far-future round survive until the receiving round catches
// up, even when newer rounds displaced them from the ring.
func TestFutureAliveAcrossRingWrap(t *testing.T) {
	n, env := newStartedNode(t, 0, Config{N: 3, T: 1, WindowSlots: 4})
	env.take()
	// ALIVE for round 2 arrives during round 1 (alpha = 2: self + 1).
	n.OnMessage(1, &wire.Alive{RN: 2, SuspLevel: make([]int64, 3)})
	// ALIVEs for rounds 6 and 10 collide with round 2 in the ring.
	n.OnMessage(1, &wire.Alive{RN: 6, SuspLevel: make([]int64, 3)})
	n.OnMessage(1, &wire.Alive{RN: 10, SuspLevel: make([]int64, 3)})
	// Complete round 1.
	n.OnTimer(TimerRound)
	n.OnMessage(2, &wire.Alive{RN: 1, SuspLevel: make([]int64, 3)})
	sus := suspicionsIn(env.take())
	if len(sus) != 1 || sus[0].RN != 1 {
		t.Fatalf("round 1 suspicion = %v", sus)
	}
	// Round 2's quorum was banked before the wrap; the timer alone must
	// complete it.
	n.OnTimer(TimerRound)
	sus = suspicionsIn(env.take())
	if len(sus) != 1 || sus[0].RN != 2 {
		t.Fatalf("round 2 suspicion = %v (banked reception lost)", sus)
	}
	// Only p1's round-2 ALIVE was banked, so p2 is the suspect.
	if sus[0].Suspects.Count() != 1 || !sus[0].Suspects.Contains(2) {
		t.Fatalf("round 2 suspects = %v, want {2}", sus[0].Suspects)
	}
}

// TestLateSuspicionBehindRetentionHorizon pins the Retention interplay: a
// SUSPICION far behind the horizon is counted from scratch on every
// delivery (its row is recreated and pruned again at once), so repeated
// reports from the same sender never accumulate.
func TestLateSuspicionBehindRetentionHorizon(t *testing.T) {
	n, _ := newStartedNode(t, 0, Config{N: 4, T: 1, Variant: VariantFig1, Retention: 5})
	// Advance the receiving round far ahead; the next SUSPICION prunes to
	// horizon = 100-5 = 95.
	advanceTo(n, 100)
	feedSuspicion(n, 100, 3, 0)
	// Three distinct senders report round 2, one message each: each row
	// is recreated fresh, so the count never reaches alpha=3.
	feedSuspicion(n, 2, 3, 0)
	feedSuspicion(n, 2, 3, 1)
	feedSuspicion(n, 2, 3, 2)
	if got := n.SuspLevel()[3]; got != 0 {
		t.Fatalf("susp_level[3] = %d, want 0 (stale round must not accumulate)", got)
	}
	// And the same sender twice is NOT a duplicate (the row was swept).
	feedSuspicion(n, 2, 3, 0)
	if got := n.Metrics().DupSuspicion; got != 0 {
		t.Fatalf("DupSuspicion = %d, want 0", got)
	}
	if got := n.Metrics().BelowHorizon; got != 4 {
		t.Fatalf("BelowHorizon = %d, want 4 (every round-2 report)", got)
	}
}

// TestWindowTestBelowHorizonCounted: a window test (line "*") whose window
// starts below the applied horizon is counted in BelowHorizon, since rows
// bounded retention dropped may hold what unbounded history would read.
func TestWindowTestBelowHorizonCounted(t *testing.T) {
	n, _ := newStartedNode(t, 0, Config{N: 4, T: 1, Variant: VariantFig2, Retention: 5})
	advanceTo(n, 100)
	feedSuspicion(n, 100, 3, 0) // prunes to 100-5-0 = 95
	// susp_level[3] = 10 now makes round 100's window [90, 100).
	n.OnMessage(1, &wire.Alive{RN: 100, SuspLevel: []int64{0, 0, 0, 10}})
	feedSuspicion(n, 100, 3, 1, 2)
	if got := n.Metrics().BelowHorizon; got != 1 {
		t.Fatalf("BelowHorizon = %d, want 1", got)
	}
	if got := n.SuspLevel()[3]; got != 10 {
		t.Fatalf("susp_level[3] = %d, want 10 (rounds 90-99 hold no suspicions)", got)
	}
}

// TestSuspLevelInto covers the allocation-free checker read path.
func TestSuspLevelInto(t *testing.T) {
	n, _ := newStartedNode(t, 0, Config{N: 3, T: 1})
	n.OnMessage(1, &wire.Alive{RN: 1, SuspLevel: []int64{0, 2, 5}})
	buf := make([]int64, 0, 8)
	got := n.SuspLevelInto(buf[:0])
	want := n.SuspLevel()
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SuspLevelInto = %v, want %v", got, want)
		}
	}
	if &got[0] != &buf[:1][0] {
		t.Fatal("SuspLevelInto reallocated despite sufficient capacity")
	}
	// Undersized destination grows.
	grown := n.SuspLevelInto(nil)
	for i := range want {
		if grown[i] != want[i] {
			t.Fatalf("grown = %v, want %v", grown, want)
		}
	}
}

// TestPooledSendsAreSnapshots re-checks the snapshot property through the
// pooled path: with no transport recycling (fakeEnv), consecutive ALIVEs
// are distinct messages and never alias the live susp_level array.
func TestPooledSendsAreSnapshots(t *testing.T) {
	n, env := newStartedNode(t, 0, Config{N: 3, T: 1})
	first := alivesIn(env.take())[0]
	n.OnMessage(1, &wire.Alive{RN: 1, SuspLevel: []int64{0, 0, 4}})
	n.OnTimer(TimerAlive)
	second := alivesIn(env.take())[0]
	if first == second {
		t.Fatal("un-recycled payload reused")
	}
	if first.SuspLevel[2] != 0 || second.SuspLevel[2] != 4 {
		t.Fatalf("snapshots = %v / %v", first.SuspLevel, second.SuspLevel)
	}
}
