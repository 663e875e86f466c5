package rounds

import (
	"fmt"
	"runtime"
	"testing"
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
	r1.Counts[3] = 7
	r1.Reported.Add(4)

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
	if !o.Rec.Contains(0) || !o.Rec.Contains(2) || o.Counts[3] != 7 || !o.Reported.Contains(4) {
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
		if r.Rec.Len() != 3 || len(r.Counts) != 3 || r.Reported.Len() != 3 {
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
// (rows, bitset words, counts), however many rows a block holds.
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
// up to n; at n=300 every process reporting one target must read back 300
// (a uint8 count would wrap to 44).
func TestCountsHoldEveryReporter(t *testing.T) {
	const n = 300
	w := New(n, 0)
	r := w.Claim(1, 1, 1)
	r.BeginSusp()
	for p := 0; p < n; p++ {
		if !r.Reported.Contains(p) {
			r.Reported.Add(p)
			r.Counts[7]++
		}
	}
	if got := w.Get(1).Counts[7]; got != n {
		t.Fatalf("count = %d, want %d", got, n)
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
