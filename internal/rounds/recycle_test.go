package rounds

import (
	"fmt"
	"runtime"
	"testing"
	"unsafe"
)

// TestEvictSwapPreservesData: an evicted row's live parts must read back
// from overflow exactly, and the slot must re-enter service with working
// storage (it swaps the evicted row for a provisioned one).
func TestEvictSwapPreservesData(t *testing.T) {
	w := New(5, 4) // tiny ring: rounds 1 and 5 share a slot
	r1 := w.Claim(1, 1, 1)
	r1.BeginRec(0)
	r1.Rec.Add(2)
	r1.BeginSusp()
	suspect(r1, 5, 2, 4, 3) // target 3 at count 1 of 2, reporter 4

	r5 := w.Claim(5, 1, 1) // evicts round 1 (rec and susp both live)
	if r5.RecLive || r5.SuspLive {
		t.Fatal("fresh resident inherited live flags")
	}
	r5.BeginRec(1) // the slot's swapped-in storage must work
	if !r5.Rec.Contains(1) || r5.Rec.Contains(2) {
		t.Fatalf("slot storage dirty after swap: %v", &r5.Rec)
	}

	o := w.Get(1)
	if o == nil || !o.RecLive || !o.SuspLive {
		t.Fatal("evicted round lost its live parts")
	}
	if !o.Rec.Contains(0) || !o.Rec.Contains(2) || o.Susp.Reached(3) ||
		suspect(o, 5, 2, 4, 3) || !suspect(o, 5, 2, 0, 3) || !o.Susp.Reached(3) {
		t.Fatal("evicted data corrupted by the storage swap")
	}
	if w.Stats().Evictions != 1 {
		t.Fatalf("Evictions = %d", w.Stats().Evictions)
	}
}

// TestOverflowRowsRecycle: released overflow rows return through the free
// list, so a sustained evict/release cycle reuses storage instead of
// allocating — the large-n steady state.
func TestOverflowRowsRecycle(t *testing.T) {
	w := New(3, 4)
	// Drive many wrap-around claims with live rec rows, completing old
	// rounds as the frontier advances (releases feed the free list).
	for rn := int64(1); rn <= 200; rn++ {
		row := w.Claim(rn, 1, 1)
		if !row.RecLive {
			row.BeginRec(0)
		}
		if rn > 8 {
			w.CompleteRec(rn - 8) // releases the overflow copy
		}
	}
	if w.OverflowLen() > 16 {
		t.Fatalf("overflow retains %d rows; releases are not draining it", w.OverflowLen())
	}
	if len(w.free) == 0 {
		t.Fatal("released overflow rows never reached the free list")
	}
	// Every freed row is fully provisioned (ready to serve without
	// allocating) and flagged dead.
	for _, r := range w.free {
		if r.Rec.Len() != 3 || r.Susp.Len() != 3 {
			t.Fatal("free-list row missing provisioned parts")
		}
		if r.RecLive || r.SuspLive || r.RN != 0 {
			t.Fatalf("free-list row not retired: %+v", r)
		}
	}
}

// TestNewFootprint: a window prepays one pointer per slot and no rows, so
// the 1 024-slot ring a cluster gives every process under the default
// retention costs about 8 KiB at n=251, not 1 024 rows.
func TestNewFootprint(t *testing.T) {
	const runs = 16
	ws := make([]*Window, runs)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range ws {
		ws[i] = New(251, 1024)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 16<<10 {
		t.Fatalf("New(251, 1024) allocates %d B, want <= 16 KiB", per)
	}
}

// TestRefillAllocs: a refill carves its rows from at most three allocations
// (it takes two: rows, and the words behind every bitset and tally), however
// many rows a block holds.
func TestRefillAllocs(t *testing.T) {
	w := New(251, 0)
	allocs := testing.AllocsPerRun(50, func() {
		w.refill()
		w.free = w.free[:0]
	})
	if allocs > 3 {
		t.Fatalf("refill = %v allocations, want <= 3", allocs)
	}
}

// TestCountsHoldEveryReporter: a count is a number of distinct reporters,
// up to n; at n=300 with alpha=300 the target is reached exactly at the
// 300th distinct reporter, not before (a uint8 count would wrap at 256 and
// reach it at reporter 44 of the second lap, or never).
func TestCountsHoldEveryReporter(t *testing.T) {
	const n = 300
	w := New(n, 0)
	r := w.Claim(1, 1, 1)
	r.BeginSusp()
	for p := 0; p < n; p++ {
		if !suspect(r, n, n, p, 7) {
			t.Fatalf("reporter %d not counted", p)
		}
		if got, want := w.Get(1).Susp.Reached(7), p == n-1; got != want {
			t.Fatalf("after %d reporters: reached = %v, want %v", p+1, got, want)
		}
		if suspect(r, n, n, p, 7) {
			t.Fatalf("reporter %d counted twice", p)
		}
	}
}

// TestRowBytes pins what one row costs: its struct plus the words carved for
// its bitset and tally. 130 B at n=5 is the row a []uint16 count array gave;
// the bit-sliced tally must not exceed it there, and must cut the n=251 row
// (670 B with counts) to at most 460 B.
func TestRowBytes(t *testing.T) {
	for _, c := range []struct{ n, max int }{{5, 130}, {251, 460}} {
		got := int(unsafe.Sizeof(Row{})) + 8*rowWords(c.n)
		t.Logf("n=%d: %d B per row", c.n, got)
		if got > c.max {
			t.Errorf("n=%d: row is %d B, want <= %d", c.n, got, c.max)
		}
	}
}

// BenchmarkWindowFill is a process's round window from birth: New with the
// 1 024 slots a cluster uses under the default retention, then 128 rounds
// claimed at the frontier with both parts begun and the round completed.
// Its B/op is what a fresh node pays for rows.
func BenchmarkWindowFill(b *testing.B) {
	for _, n := range []int{5, 251} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				w := New(n, 1024)
				for rn := int64(1); rn <= 128; rn++ {
					row := w.Claim(rn, rn, 1)
					row.BeginRec(0)
					row.BeginSusp()
					w.CompleteRec(rn)
				}
			}
		})
	}
}
