package wire

import (
	"fmt"
	"math"
	"testing"
)

func TestBallotOrdering(t *testing.T) {
	cases := []struct {
		a, b Ballot
		less bool
	}{
		{Ballot{1, 0}, Ballot{2, 0}, true},
		{Ballot{2, 0}, Ballot{1, 5}, false},
		{Ballot{1, 1}, Ballot{1, 2}, true},
		{Ballot{1, 2}, Ballot{1, 2}, false},
	}
	for _, c := range cases {
		if got := c.a.Less(c.b); got != c.less {
			t.Errorf("%v.Less(%v) = %v, want %v", c.a, c.b, got, c.less)
		}
	}
	if !(Ballot{}).IsZero() {
		t.Error("zero ballot not IsZero")
	}
	if (Ballot{1, 0}).IsZero() {
		t.Error("nonzero ballot IsZero")
	}
}

func TestKindString(t *testing.T) {
	if KindAlive.String() != "ALIVE" {
		t.Errorf("KindAlive = %q", KindAlive.String())
	}
	if Kind(200).String() != "Kind(200)" {
		t.Errorf("unknown kind = %q", Kind(200).String())
	}
}

// TestKindWireBytes: the kind byte is the wire format, so the retired bytes
// 4-6 stay reserved and every live kind keeps its value.
func TestKindWireBytes(t *testing.T) {
	for k, want := range map[Kind]uint8{
		KindAlive: 1, KindSuspicion: 2, KindHeartbeat: 3, KindPrepare: 7, KindPromise: 8,
		KindAccept: 9, KindAccepted: 10, KindDecide: 11, KindMux: 12, KindABCast: 13, KindCount: 14,
	} {
		if uint8(k) != want {
			t.Errorf("%v is byte %d, want %d", k, uint8(k), want)
		}
	}
	for b := uint8(4); b <= 6; b++ {
		if got, want := Kind(b).String(), fmt.Sprintf("Kind(%d)", b); got != want {
			t.Errorf("reserved byte %d names %q, want %q", b, got, want)
		}
	}
}

// TestSpan: the frame of reference is (min, bit width of max−min), with the
// subtraction wrapping so that the full int64 range is width 64.
func TestSpan(t *testing.T) {
	cases := []struct {
		xs   []int64
		base int64
		w    int
	}{
		{nil, 0, 0},
		{[]int64{}, 0, 0},
		{[]int64{-7}, -7, 0},
		{[]int64{4, 4, 4}, 4, 0},
		{[]int64{3, 4, 3, 4}, 3, 1},
		{[]int64{9, 2, 5}, 2, 3},
		{[]int64{-1, 1}, -1, 2},
		{[]int64{0, math.MaxInt64}, 0, 63},
		{[]int64{math.MaxInt64, math.MinInt64}, math.MinInt64, 64},
	}
	for _, c := range cases {
		base, w := Span(c.xs)
		if base != c.base || w != c.w {
			t.Errorf("Span(%v) = (%d, %d), want (%d, %d)", c.xs, base, w, c.base, c.w)
		}
		if got, want := packedSize(c.xs), 11+(len(c.xs)*c.w+7)/8; got != want {
			t.Errorf("packedSize(%v) = %d, want %d", c.xs, got, want)
		}
	}
}
