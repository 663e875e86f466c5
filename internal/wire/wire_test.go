package wire

import (
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
