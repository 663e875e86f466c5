package scenario

import "repro/internal/proc"

// fixedStar is a star with a constant point set and a constant mode.
type fixedStar struct {
	center proc.ID
	points map[proc.ID]bool
	mode   Mode
}

func (s *fixedStar) Center() proc.ID { return s.center }

func (s *fixedStar) Mode(rn int64, q proc.ID) Mode {
	if rn < startRN || !s.points[q] {
		return ModeNone
	}
	return s.mode
}

// newFixedStar builds a star centered at center whose points are the t
// lowest-id processes other than the center.
func newFixedStar(p Params, mode Mode) *fixedStar {
	points := make(map[proc.ID]bool, p.T)
	for id, n := 0, 0; id < p.N && n < p.T; id++ {
		if id != p.Center {
			points[id] = true
			n++
		}
	}
	return &fixedStar{center: p.Center, points: points, mode: mode}
}

// rotatingStar changes its point set every round: Q(rn) is a window of t
// processes over the non-center processes, advancing by one per round. When
// mixed is set, each (rn, q) point independently gets ModeTimely or
// ModeWinning from a deterministic hash; otherwise all points use mode.
type rotatingStar struct {
	center proc.ID
	n      int // processes; Q(rn) rotates over the n-1 besides the center
	t      int
	mode   Mode
	mixed  bool
	seed   uint64
}

func newRotatingStar(p Params, mode Mode, mixed bool) *rotatingStar {
	return &rotatingStar{
		center: p.Center,
		n:      p.N,
		t:      p.T,
		mode:   mode,
		mixed:  mixed,
		seed:   p.Seed,
	}
}

func (s *rotatingStar) Center() proc.ID { return s.center }

// inQ reports whether q belongs to Q(rn): the t-size window starting at
// position rn mod (n-1) of the processes other than the center, in
// ascending id order. That order puts q at position q below the center and
// q-1 above it, so membership is O(1).
func (s *rotatingStar) inQ(rn int64, q proc.ID) bool {
	if s.t == 0 || q == s.center || q < 0 || q >= s.n {
		return false
	}
	idx := int64(q)
	if q > s.center {
		idx--
	}
	m := int64(s.n - 1)
	start := rn % m
	// The window wraps: positions start, start+1, ..., start+t-1 mod m.
	off := (idx - start + m) % m
	return off < int64(s.t)
}

func (s *rotatingStar) Mode(rn int64, q proc.ID) Mode {
	if rn < startRN || !s.inQ(rn, q) {
		return ModeNone
	}
	if !s.mixed {
		return s.mode
	}
	// Deterministic per-(rn,q) coin: splitmix of (seed, rn, q).
	x := s.seed ^ uint64(rn)*0x9e3779b97f4a7c15 ^ uint64(q)*0xbf58476d1ce4e5b9
	x ^= x >> 29
	x *= 0x94d049bb133111eb
	x ^= x >> 32
	if x&1 == 0 {
		return ModeTimely
	}
	return ModeWinning
}

// intermittentStar restricts an inner schedule to a round subsequence S and
// attacks (ModeLose) the center's messages outside S.
type intermittentStar struct {
	inner  StarSchedule
	member func(rn int64) bool
}

func (s *intermittentStar) Center() proc.ID { return s.inner.Center() }

func (s *intermittentStar) Mode(rn int64, q proc.ID) Mode {
	if s.member(rn) {
		return s.inner.Mode(rn, q)
	}
	return ModeLose
}

// fixedGapMembership returns the membership test of S = {start, start+D,
// start+2D, ...}.
func fixedGapMembership(start, d int64) func(int64) bool {
	if d < 1 {
		d = 1
	}
	return func(rn int64) bool {
		return rn >= start && (rn-start)%d == 0
	}
}

// growingGapMembership returns the membership test of the §7 sequence
// s_{k+1} = s_k + D + f(s_k), s_0 = start. Members are computed lazily and
// memoized; the sequence is strictly increasing because D >= 1.
func growingGapMembership(start, d int64, f func(int64) int64) func(int64) bool {
	if d < 1 {
		d = 1
	}
	if f == nil {
		f = func(int64) int64 { return 0 }
	}
	members := []int64{start}
	set := map[int64]bool{start: true}
	return func(rn int64) bool {
		for members[len(members)-1] < rn {
			last := members[len(members)-1]
			step := d + f(last)
			if step < 1 {
				step = 1
			}
			next := last + step
			members = append(members, next)
			set[next] = true
		}
		return set[rn]
	}
}
