package rounds

import (
	"testing"

	"repro/internal/bitset"
)

// suspect counts reporter from's SUSPICION naming targets in r's tally, over
// n processes with threshold alpha, and reports whether it was counted (a
// repeat reporter is not).
func suspect(r *Row, n, alpha, from int, targets ...int) bool {
	return r.Susp.Add(from, alpha, bitset.FromMembers(n, targets...), bitset.New(n))
}

func TestClaimAndGetRoundTrip(t *testing.T) {
	w := New(4, 8)
	r := w.Claim(5, 1, 1)
	if r.RN != 5 || r.RecLive || r.SuspLive {
		t.Fatalf("fresh row = %+v", r)
	}
	r.BeginRec(0)
	r.Rec.Add(2)
	if got := w.Get(5); got != r {
		t.Fatalf("Get(5) = %p, want %p", got, r)
	}
	if w.Get(6) != nil {
		t.Fatal("Get of unclaimed round not nil")
	}
	// Same slot (5+8=13) is a different round.
	if w.Get(13) != nil {
		t.Fatal("slot alias leaked across rounds")
	}
}

func TestEvictionMovesLiveDataToOverflow(t *testing.T) {
	w := New(4, 8)
	r := w.Claim(3, 1, 1)
	r.BeginSusp()
	suspect(r, 4, 2, 1, 2) // target 2 at count 1 of 2, reporter 1
	r.BeginRec(0)

	// Round 11 collides with 3 (mod 8); rec is dead below 12 but the
	// suspicion horizon keeps everything.
	r2 := w.Claim(11, 12, 1)
	if r2.RN != 11 || r2.RecLive || r2.SuspLive {
		t.Fatalf("claimed row = %+v", r2)
	}
	old := w.Get(3)
	if old == nil || !old.SuspLive || old.Susp.Reached(2) {
		t.Fatalf("evicted suspicion data lost: %+v", old)
	}
	if suspect(old, 4, 2, 1, 2) || !suspect(old, 4, 2, 3, 2) || !old.Susp.Reached(2) {
		t.Fatal("evicted tally lost its reporter or its count")
	}
	if old.RecLive {
		t.Fatal("dead rec row survived eviction")
	}
	if st := w.Stats(); st.Evictions != 1 || st.OverflowHits == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestEvictionDropsDeadData(t *testing.T) {
	w := New(4, 8)
	r := w.Claim(3, 1, 1)
	r.BeginSusp()
	r.BeginRec(0)
	// Both horizons are past round 3: nothing to keep.
	w.Claim(11, 4, 4)
	if w.Get(3) != nil {
		t.Fatal("dead row kept")
	}
	if st := w.Stats(); st.Evictions != 0 {
		t.Fatalf("eviction counted for dead row: %+v", st)
	}
}

func TestOldRoundServedFromOverflow(t *testing.T) {
	w := New(4, 8)
	w.Claim(11, 1, 1).BeginSusp()
	// Round 3 collides but is older: the resident keeps the slot.
	r := w.Claim(3, 1, 1)
	r.BeginSusp()
	suspect(r, 4, 1, 0, 1)
	if got := w.Get(11); got == nil || got.RN != 11 || !got.SuspLive {
		t.Fatalf("resident displaced by older round: %+v", got)
	}
	if got := w.Get(3); got == nil || !got.Susp.Reached(1) {
		t.Fatalf("old round lost: %+v", got)
	}
	// Claiming 3 again keeps serving the same overflow row.
	if again := w.Claim(3, 1, 1); again != r {
		t.Fatal("overflow row not stable across claims")
	}
}

func TestEvictedRoundStaysInOverflowAfterSlotFrees(t *testing.T) {
	w := New(4, 8)
	w.Claim(3, 1, 1).BeginSusp()
	w.Claim(11, 1, 1) // evicts 3 to overflow
	// 19 claims the slot; 3 must still resolve to its overflow row, not
	// recreate fresh ring state.
	w.Claim(19, 1, 1)
	r := w.Claim(3, 1, 1)
	if !r.SuspLive {
		t.Fatal("overflow row forgotten")
	}
}

func TestCompleteRec(t *testing.T) {
	w := New(4, 8)
	r := w.Claim(2, 1, 1)
	r.BeginRec(0)
	w.CompleteRec(2)
	if w.Get(2).RecLive {
		t.Fatal("completed rec row still live")
	}
	// Overflow path: evict a live rec row, then complete it there.
	r = w.Claim(5, 1, 1)
	r.BeginRec(0)
	w.Claim(13, 1, 1) // rec still >= recDeadBelow=1: evicted live
	if got := w.Get(5); got == nil || !got.RecLive {
		t.Fatalf("rec row not in overflow: %+v", got)
	}
	w.CompleteRec(5)
	if w.Get(5) != nil {
		t.Fatal("overflow row with no live parts not released")
	}
}

func TestPrune(t *testing.T) {
	w := New(4, 4)
	for rn := int64(1); rn <= 10; rn++ {
		w.Claim(rn, 1, 1).BeginSusp()
	}
	if got := w.SuspRounds(); got != 10 {
		t.Fatalf("SuspRounds = %d, want 10", got)
	}
	// Horizon 8: suspicion data for rounds < 8 goes away everywhere.
	w.Prune(8, 8)
	if got := w.SuspRounds(); got != 3 {
		t.Fatalf("SuspRounds after prune = %d, want 3 (rounds 8..10)", got)
	}
	for rn := int64(1); rn < 8; rn++ {
		if r := w.Get(rn); r != nil && r.SuspLive {
			t.Fatalf("round %d survived prune", rn)
		}
	}
}

func TestPruneKeepsFutureRecRows(t *testing.T) {
	w := New(4, 4)
	r := w.Claim(9, 1, 1)
	r.BeginRec(0)
	// Receiving round is 3; round 9's rec row is ahead of it and must
	// survive any suspicion horizon (matching the map prune's
	// "rn < horizon && rn < rRN" condition).
	w.Prune(3, 100)
	if got := w.Get(9); got == nil || !got.RecLive {
		t.Fatalf("future rec row pruned: %+v", got)
	}
}

func TestRoundsCounters(t *testing.T) {
	w := New(4, 8)
	w.Claim(1, 1, 1).BeginRec(0)
	w.Claim(2, 1, 1).BeginSusp()
	r := w.Claim(3, 1, 1)
	r.BeginRec(0)
	r.BeginSusp()
	if w.RecRounds() != 2 || w.SuspRounds() != 2 {
		t.Fatalf("RecRounds=%d SuspRounds=%d", w.RecRounds(), w.SuspRounds())
	}
	if w.OverflowLen() != 0 {
		t.Fatalf("OverflowLen = %d", w.OverflowLen())
	}
}

func TestDefaultSlotsAndPowerOfTwo(t *testing.T) {
	w := New(4, 0)
	if len(w.slots) != DefaultSlots {
		t.Fatalf("default slots = %d", len(w.slots))
	}
	w = New(4, 5)
	if len(w.slots) != 8 {
		t.Fatalf("slots rounded to %d, want 8", len(w.slots))
	}
}

// TestNewBoundsUniverse: New serves the wire codec's universes [1, MaxN]
// and panics outside them.
func TestNewBoundsUniverse(t *testing.T) {
	New(MaxN, 0)
	for _, n := range []int{0, MaxN + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d, 0) did not panic", n)
				}
			}()
			New(n, 0)
		}()
	}
}
