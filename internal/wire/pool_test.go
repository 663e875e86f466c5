package wire

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/bitset"
)

func TestAlivePoolRoundTrip(t *testing.T) {
	var p AlivePool
	a := p.Get(3)
	if len(a.SuspLevel) != 3 {
		t.Fatalf("SuspLevel len = %d", len(a.SuspLevel))
	}
	a.RN = 7
	a.Retain()
	a.Retain()
	a.Recycle()
	if b := p.Get(3); b == a {
		t.Fatal("message recycled while references remain")
	}
	a.Recycle()
	if b := p.Get(3); b != a {
		t.Fatal("message not recycled after last reference")
	}
}

func TestSuspicionPoolKeepsBitset(t *testing.T) {
	var p SuspicionPool
	s := p.Get(5)
	s.Suspects.Add(2)
	set := s.Suspects
	s.Retain()
	s.Recycle()
	s2 := p.Get(5)
	if s2 != s || s2.Suspects != set {
		t.Fatal("bitset not recycled with its message")
	}
}

func TestLiteralMessagesIgnoreRecycle(t *testing.T) {
	// Hand-built messages (tests, Unmarshal) have no home pool; the
	// transport's Retain/Recycle must be harmless no-ops on them.
	m := &Alive{RN: 1, SuspLevel: []int64{0}}
	m.Retain()
	m.Recycle()
	m.Recycle() // over-release must not panic either
	s := &Suspicion{RN: 1, Suspects: bitset.New(2)}
	s.Retain()
	s.Recycle()
}

func TestMuxPoolPropagatesToInner(t *testing.T) {
	var mp MuxPool
	var ap AlivePool
	inner := ap.Get(2)
	// Two envelopes wrap the same inner message (a 2-recipient broadcast
	// through a lane).
	m1 := mp.Get()
	m1.Lane, m1.Inner = 1, inner
	m1.Retain()
	m2 := mp.Get()
	m2.Lane, m2.Inner = 1, inner
	m2.Retain()

	m1.Recycle()
	if got := ap.Get(2); got == inner {
		t.Fatal("inner recycled before last envelope")
	}
	m2.Recycle()
	if got := ap.Get(2); got != inner {
		t.Fatal("inner not recycled with last envelope")
	}
	// Both envelopes are back in the mux pool with Inner cleared.
	e1, e2 := mp.Get(), mp.Get()
	if e1.Inner != nil || e2.Inner != nil {
		t.Fatal("recycled envelope retains inner")
	}
	if (e1 != m1 && e1 != m2) || (e2 != m1 && e2 != m2) || e1 == e2 {
		t.Fatal("envelopes not recycled")
	}
}

// TestMulticastRefsMatchPopcount is the multicast transport contract as a
// property check: a transport carrying one envelope for a whole destination
// set calls Retain once per destination-set BIT and Recycle once per
// consumed delivery, so for every popcount k the payload must survive the
// first k-1 recycles and return to its pool exactly on the k-th. Checked
// for a bare pooled payload and for a Mux-wrapped one (where every envelope
// reference must propagate to the inner message symmetrically).
func TestMulticastRefsMatchPopcount(t *testing.T) {
	for _, n := range []int{1, 2, 13, 101} {
		dests := bitset.New(n)
		dests.Fill()
		dests.Remove(n / 2) // a Broadcast-shaped set: self excluded
		k := dests.Count()

		// Bare payload: one Retain per bit.
		var ap AlivePool
		a := ap.Get(n)
		for i := 0; i < k; i++ {
			a.Retain()
		}
		for i := 0; i < k-1; i++ {
			a.Recycle()
			if got := ap.Get(n); got == a {
				t.Fatalf("n=%d: payload recycled after %d of %d recycles", n, i+1, k)
			}
		}
		a.Recycle()
		if got := ap.Get(n); got != a {
			t.Fatalf("n=%d: payload not recycled at last delivery", n)
		}

		// Mux-wrapped: envelope refs = popcount, inner follows exactly.
		var mp MuxPool
		var sp SuspicionPool
		inner := sp.Get(n)
		m := mp.Get()
		m.Lane, m.Inner = 0, inner
		for i := 0; i < k; i++ {
			m.Retain()
		}
		for i := 0; i < k-1; i++ {
			m.Recycle()
			if got := mp.Get(); got == m {
				t.Fatalf("n=%d: mux envelope recycled early", n)
			}
			if got := sp.Get(n); got == inner {
				t.Fatalf("n=%d: inner recycled after %d of %d envelope recycles", n, i+1, k)
			}
		}
		m.Recycle()
		if got := sp.Get(n); got != inner {
			t.Fatalf("n=%d: inner not recycled with last envelope reference", n)
		}
		if got := mp.Get(); got != m || got.Inner != nil {
			t.Fatalf("n=%d: mux envelope not recycled clean", n)
		}
	}
}

func TestConsensusPools(t *testing.T) {
	var pp PromisePool
	m := pp.Get()
	m.NACK = true
	m.Retain()
	m.Recycle()
	m2 := pp.Get()
	if m2 != m {
		t.Fatal("promise not recycled")
	}
	// Contents are stale by contract; callers must overwrite every field.
	if !m2.NACK {
		t.Fatal("pool unexpectedly cleared fields (contract says stale)")
	}
}

// TestAliveSummaryRoundTrip: SetNarrow's set comes back from Narrow bit for
// bit, with the valid bit n set, and leaves the vector alone, at universe
// sizes on both sides of a word boundary (at n=64 the valid bit takes a
// word of its own). The summary fits SuspLevel's slack, so Get allocates
// no more than the vector's own size class at n=5 and n=251. A payload
// recycled through Get, at the same n or another, carries none, and a
// hand-built one never does.
func TestAliveSummaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, n := range []int{1, 5, 63, 64, 65, 251} {
		var p AlivePool
		a := p.Get(n)
		if want := n + bitset.WordsFor(n+1); cap(a.SuspLevel) != want {
			t.Fatalf("n=%d: SuspLevel capacity %d, want %d", n, cap(a.SuspLevel), want)
		}
		if a.Narrow() != nil {
			t.Fatalf("n=%d: a fresh Alive reports a summary", n)
		}
		set := bitset.New(n)
		for k := range a.SuspLevel {
			a.SuspLevel[k] = 8
			if rng.Intn(2) == 0 || k == n-1 {
				a.SuspLevel[k] = 7
				set.Add(k)
			}
		}
		levels := slices.Clone(a.SuspLevel)
		a.SetNarrow(set)
		got := a.Narrow()
		if got == nil {
			t.Fatalf("n=%d: summary lost", n)
		}
		for k := range n + 1 {
			if bit := got[k/64]>>(k%64)&1 != 0; bit != (k == n || set.Contains(k)) {
				t.Fatalf("n=%d: summary bit %d is %v; set %v", n, k, bit, set)
			}
		}
		if !slices.Equal(a.SuspLevel, levels) {
			t.Fatalf("n=%d: SetNarrow changed the vector to %v", n, a.SuspLevel)
		}
		a.Retain()
		a.Recycle()
		if b := p.Get(n); b != a || b.Narrow() != nil {
			t.Fatalf("n=%d: a recycled Alive kept its summary", n)
		}
		a.SetNarrow(set)
		a.Retain()
		a.Recycle()
		if b := p.Get(n + 1); b != a || b.Narrow() != nil {
			t.Fatalf("n=%d: an Alive recycled at n=%d kept its summary", n, n+1)
		}
		hand := &Alive{SuspLevel: make([]int64, n, n+bitset.WordsFor(n+1))}
		hand.SuspLevel[:cap(hand.SuspLevel)][n+n/64] = 1 << (n % 64)
		if hand.Narrow() != nil {
			t.Fatalf("n=%d: a hand-built Alive reports a summary", n)
		}
	}
	// The Alive is 64 B and its vector, slack included, rounds to the size
	// class n entries alone take: 48 B at n=5, 2 KiB at n=251.
	for _, c := range []struct{ n, bytes int }{{5, 64 + 48}, {251, 64 + 2048}} {
		var p AlivePool
		const gets = 10000
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range gets {
			p.Get(c.n)
		}
		runtime.ReadMemStats(&after)
		if got := (after.TotalAlloc - before.TotalAlloc) / gets; got != uint64(c.bytes) {
			t.Errorf("n=%d: Get allocates %d B, want %d", c.n, got, c.bytes)
		}
	}
}
