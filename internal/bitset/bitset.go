// Package bitset provides a compact, fixed-capacity bit set used throughout
// the repository to represent sets of process identifiers (suspect sets,
// quorum membership, delivery tracking).
//
// A Set is created for a fixed universe size n (the number of processes) and
// stores membership of integers in [0, n). The zero value is an empty set of
// capacity zero; use New to create a set with a given capacity.
//
// Sets are not safe for concurrent use; callers synchronize externally (in
// this repository every set is owned by a single simulated process).
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a fixed-capacity bit set over the universe [0, Len()).
type Set struct {
	n     int
	words []uint64
}

// New returns an empty set over the universe [0, n). n must be >= 0.
func New(n int) *Set {
	if n < 0 {
		panic(fmt.Sprintf("bitset: negative capacity %d", n))
	}
	return &Set{n: n, words: make([]uint64, WordsFor(n))}
}

// WordsFor returns how many words a set over [0, n) occupies: the length of
// the backing slice Carve takes per set.
func WordsFor(n int) int { return (n + wordBits - 1) / wordBits }

// Carve returns an empty set over [0, n) backed by the first WordsFor(n)
// words of words, and the words left after it. Pool refills use it to carve
// many sets, held by value, from one backing allocation. The set is
// full-capacity (a three-index subslice), so it never grows into a
// neighbour; words must be zero.
func Carve(n int, words []uint64) (Set, []uint64) {
	if n < 0 {
		panic(fmt.Sprintf("bitset: negative capacity %d", n))
	}
	per := WordsFor(n)
	return Set{n: n, words: words[:per:per]}, words[per:]
}

// FromMembers returns a set over [0, n) containing exactly the given members.
// Members outside [0, n) cause a panic, as they indicate a programming error
// (an out-of-range process id).
func FromMembers(n int, members ...int) *Set {
	s := New(n)
	for _, m := range members {
		s.Add(m)
	}
	return s
}

// Len returns the size of the universe (not the number of members).
func (s *Set) Len() int { return s.n }

// check panics if i is outside the universe.
func (s *Set) check(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitset: index %d out of range [0,%d)", i, s.n))
	}
}

// Add inserts i into the set.
func (s *Set) Add(i int) {
	s.check(i)
	s.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Remove deletes i from the set.
func (s *Set) Remove(i int) {
	s.check(i)
	s.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
}

// Contains reports whether i is a member.
func (s *Set) Contains(i int) bool {
	if i < 0 || i >= s.n {
		return false
	}
	return s.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// Count returns the number of members.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Empty reports whether the set has no members.
func (s *Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clear removes all members, keeping the capacity.
func (s *Set) Clear() { clear(s.words) }

// Fill adds every element of the universe to the set.
func (s *Set) Fill() {
	if len(s.words) == 0 {
		return
	}
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	// Mask off the bits beyond n in the last word.
	if rem := uint(s.n % wordBits); rem != 0 {
		s.words[len(s.words)-1] &= (1 << rem) - 1
	}
}

// Clone returns an independent copy of the set.
func (s *Set) Clone() *Set {
	c := &Set{n: s.n, words: make([]uint64, len(s.words))}
	copy(c.words, s.words)
	return c
}

// CopyFrom overwrites s with the contents of o. Both sets must have the same
// universe size.
func (s *Set) CopyFrom(o *Set) {
	s.mustMatch(o)
	copy(s.words, o.words)
}

func (s *Set) mustMatch(o *Set) {
	if s.n != o.n {
		panic(fmt.Sprintf("bitset: universe mismatch %d vs %d", s.n, o.n))
	}
}

// UnionWith adds every member of o to s.
func (s *Set) UnionWith(o *Set) {
	s.mustMatch(o)
	for i, w := range o.words {
		s.words[i] |= w
	}
}

// IntersectWith removes from s every element not in o.
func (s *Set) IntersectWith(o *Set) {
	s.mustMatch(o)
	for i, w := range o.words {
		s.words[i] &= w
	}
}

// DifferenceWith removes from s every member of o.
func (s *Set) DifferenceWith(o *Set) {
	s.mustMatch(o)
	for i, w := range o.words {
		s.words[i] &^= w
	}
}

// Complement returns the set of universe elements not in s.
func (s *Set) Complement() *Set {
	c := s.Clone()
	for i := range c.words {
		c.words[i] = ^c.words[i]
	}
	if rem := uint(c.n % wordBits); rem != 0 && len(c.words) > 0 {
		c.words[len(c.words)-1] &= (1 << rem) - 1
	}
	return c
}

// ComplementFrom overwrites s with the complement of o (the universe
// elements not in o). Both sets must have the same universe size. Unlike
// Complement it allocates nothing; protocol hot paths compute suspect sets
// into pooled destinations with it.
func (s *Set) ComplementFrom(o *Set) {
	s.mustMatch(o)
	for i, w := range o.words {
		s.words[i] = ^w
	}
	if rem := uint(s.n % wordBits); rem != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] &= (1 << rem) - 1
	}
}

// Equal reports whether s and o have the same universe and the same members.
func (s *Set) Equal(o *Set) bool {
	if s.n != o.n {
		return false
	}
	for i, w := range s.words {
		if w != o.words[i] {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every member of s is a member of o.
func (s *Set) SubsetOf(o *Set) bool {
	s.mustMatch(o)
	for i, w := range s.words {
		if w&^o.words[i] != 0 {
			return false
		}
	}
	return true
}

// Members returns the members in increasing order.
func (s *Set) Members() []int {
	out := make([]int, 0, s.Count())
	s.ForEach(func(i int) {
		out = append(out, i)
	})
	return out
}

// ForEach calls fn for each member in increasing order.
func (s *Set) ForEach(fn func(i int)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi*wordBits + b)
			w &= w - 1
		}
	}
}

// NextAnd returns the smallest member of s ∩ o that is >= i, or -1 when
// there is none. Both sets must have the same universe size. o is read
// afresh on every call, so a caller walking s ∩ o may change o between
// calls and the walk sees the change from its current position on.
func (s *Set) NextAnd(o *Set, i int) int {
	s.mustMatch(o)
	i = max(i, 0)
	wi := i / wordBits
	if wi >= len(s.words) {
		return -1
	}
	w := s.words[wi] & o.words[wi] &^ (1<<(uint(i)%wordBits) - 1)
	for w == 0 {
		if wi++; wi == len(s.words) {
			return -1
		}
		w = s.words[wi] & o.words[wi]
	}
	return wi*wordBits + bits.TrailingZeros64(w)
}

// Min returns the smallest member, or -1 when the set is empty.
func (s *Set) Min() int { return s.NextAnd(s, 0) }

// Words returns a copy of the underlying word representation. The final word
// has any bits beyond the universe size cleared. Used by the wire codec.
func (s *Set) Words() []uint64 {
	out := make([]uint64, len(s.words))
	copy(out, s.words)
	return out
}

// WordCount returns the number of underlying words without copying them.
// Size accounting runs once per send, so it must not allocate.
func (s *Set) WordCount() int { return len(s.words) }

// Word returns word i of the set without copying: bit b of it is member
// 64·i+b, and bits beyond the universe are clear. Word-wise merges read a
// set against a foreign bitmap with it, one word per 64 members.
func (s *Set) Word(i int) uint64 { return s.words[i] }

// SetWords overwrites the set contents from a word slice previously obtained
// via Words (same universe size). Extra bits beyond the universe are cleared.
func (s *Set) SetWords(words []uint64) {
	for i := range s.words {
		if i < len(words) {
			s.words[i] = words[i]
		} else {
			s.words[i] = 0
		}
	}
	if rem := uint(s.n % wordBits); rem != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] &= (1 << rem) - 1
	}
}

// String renders the set like "{0,3,7}" for debugging and traces.
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) {
		if !first {
			b.WriteByte(',')
		}
		first = false
		fmt.Fprintf(&b, "%d", i)
	})
	b.WriteByte('}')
	return b.String()
}
