package bitset

import (
	"fmt"
	"math/bits"
)

// Tally counts, for every target k in [0, n), how many distinct reporters
// named k, and answers one question of each count: has it reached the
// threshold alpha? It is the suspicions[rn] row of the paper's lines 13-18
// together with that row's reporter set (a reporter counts once).
//
// The counts are bit-sliced and saturate at alpha. Lane 0 is the "reached"
// lane: bit k is set once k's count equals alpha, and the count then stops.
// Lanes 1..bits.Len(n) hold the count's binary digits, lowest first. Every
// lane is n bits wide, so one Add is a ripple carry over a few words instead
// of one increment per suspect:
//
//   - up to 12 processes every lane fits one word, n bits apart (n=5's
//     whole tally), counted in place with shifts;
//   - above that each lane starts on a word boundary, and the carry works
//     on whole words in place.
//
// Lane 0 starts at bit 0 in both layouts, so Reached reads one word either
// way. Like a Set, a Tally is single-owner state.
type Tally struct {
	reporters Set
	lanes     []uint64
}

// TallyWords returns how many words a tally over [0, n) occupies: the
// length of the backing slice CarveTally takes per tally.
func TallyWords(n int) int {
	return WordsFor(n) + laneWords(n)
}

// laneWords is the size of the lane area alone.
func laneWords(n int) int {
	lanes := 1 + bits.Len(uint(n))
	if oneWord(n) {
		return WordsFor(lanes * n)
	}
	return lanes * WordsFor(n)
}

// oneWord reports whether all of a tally's lanes over [0, n) fit in one
// word.
func oneWord(n int) bool { return (1+bits.Len(uint(n)))*n <= wordBits }

// CarveTally returns an empty tally over [0, n) backed by the first
// TallyWords(n) words of words, and the words left after it. words must be
// zero.
func CarveTally(n int, words []uint64) (Tally, []uint64) {
	var t Tally
	t.reporters, words = Carve(n, words)
	lw := laneWords(n)
	t.lanes, words = words[:lw:lw], words[lw:]
	return t, words
}

// Len returns the size of the universe (not the number of reporters).
func (t *Tally) Len() int { return t.reporters.n }

// Reset empties the tally: no reporter, every count zero.
func (t *Tally) Reset() {
	clear(t.reporters.words)
	clear(t.lanes)
}

// Reached reports whether k's count has reached the threshold. Targets
// outside [0, n) never have.
func (t *Tally) Reached(k int) bool {
	if uint(k) >= uint(t.reporters.n) {
		return false
	}
	return t.lanes[k/wordBits]&(1<<(uint(k)%wordBits)) != 0
}

// Add counts reporter from's suspect set s with threshold alpha (1 <= alpha
// <= n, the same on every call) and writes s ∩ reached into hits, a set over
// [0, n). A reporter counts once: Add returns false, changing nothing, if
// from was already counted. Members of s at or beyond n are ignored; s may
// be over a smaller universe than the tally.
func (t *Tally) Add(from, alpha int, s, hits *Set) bool {
	n := t.reporters.n
	if alpha < 1 || alpha > n {
		panic(fmt.Sprintf("bitset: tally threshold %d outside [1,%d]", alpha, n))
	}
	t.reporters.mustMatch(hits)
	t.reporters.check(from)
	rw, rb := &t.reporters.words[from/wordBits], uint64(1)<<(uint(from)%wordBits)
	if *rw&rb != 0 {
		return false
	}
	*rw |= rb
	sw := s.words
	if oneWord(n) {
		var s0 uint64
		if len(sw) > 0 {
			s0 = sw[0] & (1<<uint(n) - 1)
		}
		hits.words[0] = s0 & addShifted(&t.lanes[0], n, 1+bits.Len(uint(n)), alpha, s0)
		return true
	}
	stride := len(hits.words)
	lastMask := ^uint64(0)
	if rem := uint(n % wordBits); rem != 0 {
		lastMask = 1<<rem - 1
	}
	for wi := range hits.words {
		var x uint64
		if wi < len(sw) {
			x = sw[wi]
		}
		if wi == stride-1 {
			x &= lastMask
		}
		if r := t.lanes[wi]; x&^r == 0 {
			hits.words[wi] = x & r // nothing left to count in this word
			continue
		}
		hits.words[wi] = addWord(t.lanes, wi, stride, alpha, x)
	}
	return true
}

// addWord adds one word's worth of suspects s to the saturating counters
// whose lanes sit at v[i], v[i+stride], ... (lane 0 is reached) and returns
// s ∩ reached for that word. Suspects already at alpha are not counted; the
// others' counts rise by one, and reached gains those now equal to alpha.
func addWord(v []uint64, i, stride, alpha int, s uint64) uint64 {
	carry := s &^ v[i]
	eq := carry
	for j := i + stride; j < len(v); j += stride {
		c := v[j]
		d := c ^ carry
		v[j] = d
		carry &= c
		// eq keeps the bits whose new digit matches alpha's.
		eq &^= d ^ -uint64(alpha&1)
		alpha >>= 1
	}
	v[i] |= eq
	return s & v[i]
}

// addShifted is addWord for a tally whose nl lanes of n bits all sit in
// the word *w, lane j at bit j*n. It returns the reached lane (and bits of
// the counter lanes, which the caller masks off with s).
func addShifted(w *uint64, n, nl, alpha int, s uint64) uint64 {
	x := *w
	carry := s &^ x
	if carry == 0 {
		return x
	}
	eq := carry
	m := uint64(1)<<uint(n) - 1
	for sh := uint(n); sh < uint(nl*n); sh += uint(n) {
		c := x >> sh & m
		x ^= carry << sh
		carry &= c
		// eq keeps the bits whose new digit matches alpha's.
		eq &^= x>>sh&m ^ -uint64(alpha&1)
		alpha >>= 1
	}
	x |= eq
	*w = x
	return x
}
