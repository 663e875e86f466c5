package hier

import (
	"testing"
	"time"
)

func TestHandoffCodecRoundTrip(t *testing.T) {
	cases := []struct {
		shard, leader int
		inc           uint64
	}{
		{0, 0, 1},
		{7, 3, 42},
		{31, 1023, 9999},
		{maxShardIndex, maxLeaderID, incMask},
	}
	for _, c := range cases {
		v, err := EncodeHandoff(c.shard, c.leader, c.inc)
		if err != nil {
			t.Fatalf("encode(%v): %v", c, err)
		}
		if v < 0 {
			t.Fatalf("encode(%v): negative payload %d", c, v)
		}
		shard, leader, inc, ok := DecodeHandoff(v)
		if !ok || shard != c.shard || leader != c.leader || inc != c.inc&incMask {
			t.Fatalf("roundtrip(%v) = (%d,%d,%d,%v)", c, shard, leader, inc, ok)
		}
	}
}

func TestHandoffCodecRejectsForeignPayloads(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 123456, 1 << 62} {
		if _, _, _, ok := DecodeHandoff(v); ok {
			t.Fatalf("DecodeHandoff(%d) accepted a non-handoff payload", v)
		}
	}
}

func TestHandoffCodecRange(t *testing.T) {
	if _, err := EncodeHandoff(-1, 0, 1); err == nil {
		t.Fatal("negative shard accepted")
	}
	if _, err := EncodeHandoff(0, maxLeaderID+1, 1); err == nil {
		t.Fatal("oversized leader accepted")
	}
}

// TestTableSupersededRejected is the unit-level half of the deposed-delegate
// guarantee: once a newer handoff has been issued for a shard, records
// stamped with any older incarnation are rejected no matter when they are
// delivered.
func TestTableSupersededRejected(t *testing.T) {
	tab := NewTable(4)
	if l := tab.Leader(2); l != None {
		t.Fatalf("vacant slot leader = %d, want None", l)
	}

	inc1 := tab.Handoff(2, 5) // shard 2 elects 5
	inc2 := tab.Handoff(2, 7) // ...then 7, deposing 5's delegate
	if inc2 != inc1+1 {
		t.Fatalf("incarnations did not advance: %d then %d", inc1, inc2)
	}

	// The deposed delegate's frame arrives late: rejected.
	if tab.Deliver(2, 5, inc1) {
		t.Fatal("superseded incarnation admitted")
	}
	if got, _ := tab.Committed(2); got != None {
		t.Fatalf("committed view moved on a rejected record: %d", got)
	}

	// The current incarnation's frame: admitted.
	if !tab.Deliver(2, 7, inc2) {
		t.Fatal("current incarnation rejected")
	}
	if got, inc := tab.Committed(2); got != 7 || inc != inc2 {
		t.Fatalf("committed = (%d,%d), want (7,%d)", got, inc, inc2)
	}

	// Replays of the old frame stay dead forever.
	if tab.Deliver(2, 5, inc1) {
		t.Fatal("superseded incarnation admitted on replay")
	}
	if tab.Handoffs() != 2 || tab.Rejected() != 2 {
		t.Fatalf("counters = (%d,%d), want (2,2)", tab.Handoffs(), tab.Rejected())
	}

	// Out-of-range shards are rejected, not a panic.
	if tab.Deliver(99, 0, 1) {
		t.Fatal("out-of-range shard admitted")
	}
}

func TestTrackerStabilization(t *testing.T) {
	tr := NewTracker()
	if _, ok := tr.Stabilization(); ok {
		t.Fatal("empty tracker claims stabilization")
	}
	tr.Sample(10*time.Millisecond, None)
	tr.Sample(20*time.Millisecond, 3)
	tr.Sample(40*time.Millisecond, 3)
	tr.Sample(60*time.Millisecond, 9) // global leader moved
	tr.Sample(80*time.Millisecond, 9)
	at, ok := tr.Stabilization()
	if !ok || at != 60*time.Millisecond {
		t.Fatalf("stabilization = (%v,%v), want (60ms,true)", at, ok)
	}
	if tr.Changes() != 2 || tr.Samples() != 5 || tr.Current() != 9 {
		t.Fatalf("changes=%d samples=%d current=%d", tr.Changes(), tr.Samples(), tr.Current())
	}

	// Losing the leader un-stabilizes.
	tr.Sample(100*time.Millisecond, None)
	if _, ok := tr.Stabilization(); ok {
		t.Fatal("tracker claims stabilization with no leader")
	}
}
