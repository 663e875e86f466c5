package sim

import "math/bits"

// entry is one queue entry: the ordering key (at, seq), the arena slot the
// entry fires, and arg, the argument of a fan-out leg (unused by single
// events). 24 bytes.
type entry struct {
	at   Time
	seq  uint64
	slot int32
	arg  uint32
}

// before orders entries by (at, seq): virtual time, ties broken by seq.
func (e *entry) before(f *entry) bool {
	return e.at < f.at || e.at == f.at && e.seq < f.seq
}

const (
	// nearMax is how many entries a refill moves into the near heap when
	// the far buckets hold more: enough that a small queue lives in the
	// heap alone, few enough that a big one keeps the heap shallow and
	// cache resident.
	nearMax = 64
	// chunkLen is how many entries one far-bucket chunk holds.
	chunkLen = 20
)

// chunk is a piece of one far bucket's storage. Chunks come from, and
// return to, one free list shared by every bucket, so what the buckets
// retain is bounded by the peak number of far entries, not by the sum of
// each bucket's own peak.
type chunk struct {
	e    [chunkLen]entry
	n    int
	next *chunk
}

// queue is a monotone bucket queue that pops in exact (at, seq) order. It
// is a radix heap (Ahuja, Mehlhorn, Orlin and Tarjan, JACM 37(2), 1990)
// whose lowest buckets are drained into a small binary heap:
//
//   - near is a binary min-heap on (at, seq) of every entry whose at is
//     below split. Pops come from near only.
//   - Every other entry sits unordered in a far bucket: bucket b holds the
//     entries whose at differs from base in bit b-1 and above it in no bit
//     (bits.Len64(at^base) == b). All far entries are at or after split,
//     and split is above base.
//   - When near runs empty, refill takes the lowest non-empty buckets, as
//     many as fit in nearMax entries, into near and raises split to the
//     first time above them. A lowest bucket holding more than nearMax is
//     first split around its minimum, the radix heap's step: base becomes
//     that minimum and its entries fall into lower buckets.
//
// A queue with at most about nearMax entries therefore behaves as a plain
// binary heap; a big one pays a few sequential chunk moves per entry and a
// heap of nearMax instead of a deep heap. Any time below split may still be
// pushed (into near), so peeking beyond a horizon never breaks monotonicity.
type queue struct {
	near  []entry
	split uint64
	base  uint64
	mask  uint64 // bit b set = far[b] non-empty
	count [64]int
	far   [64]*chunk
	free  *chunk // recycled chunks
	block int    // chunks the next free-list refill allocates
}

// push adds e. e.at must not be negative.
func (q *queue) push(e entry) {
	if uint64(e.at) >= q.split {
		q.farPush(e)
		return
	}
	q.near = append(q.near, e)
	q.up(len(q.near) - 1)
}

// bucket is the far bucket of time at.
func (q *queue) bucket(at Time) int { return bits.Len64(uint64(at) ^ q.base) }

// farPush appends e to its far bucket.
func (q *queue) farPush(e entry) {
	b := q.bucket(e.at)
	c := q.far[b]
	if c == nil || c.n == chunkLen {
		c = q.newChunk(c)
		q.far[b] = c
	}
	c.e[c.n] = e
	c.n++
	q.count[b]++
	q.mask |= 1 << b
}

// newChunk takes a chunk off the free list and links next behind it. The
// free list is refilled in doubling blocks, so a small queue allocates
// little and a big one few times.
func (q *queue) newChunk(next *chunk) *chunk {
	if q.free == nil {
		q.block = min(max(2*q.block, 2), 64)
		block := make([]chunk, q.block)
		for i := range block {
			block[i].next = q.free
			q.free = &block[i]
		}
	}
	c := q.free
	q.free = c.next
	c.n, c.next = 0, next
	return c
}

// recycle returns chunk c to the free list and returns the chunk after it.
func (q *queue) recycle(c *chunk) *chunk {
	next := c.next
	c.next = q.free
	q.free = c
	return next
}

// detach empties far bucket b and returns its chunk list.
func (q *queue) detach(b int) *chunk {
	c := q.far[b]
	q.far[b] = nil
	q.count[b] = 0
	q.mask &^= 1 << b
	return c
}

// front returns the earliest entry without removing it, or nil when the
// queue is empty.
func (q *queue) front() *entry {
	if len(q.near) == 0 {
		if q.mask == 0 {
			return nil
		}
		q.refill()
	}
	return &q.near[0]
}

// pop removes the earliest entry; front must have returned it. The hole
// left at the root sinks along the smaller children to a leaf, and the last
// entry rises from there (Floyd's bottom-up deletion): the last entry
// usually belongs near the leaves, so this takes about one comparison per
// level instead of two.
func (q *queue) pop() {
	h := q.near
	n := len(h) - 1
	e := h[n]
	h = h[:n]
	q.near = h
	if n == 0 {
		return
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].before(&h[c]) {
			c++
		}
		h[i] = h[c]
		i = c
	}
	h[i] = e
	q.up(i)
}

// refill moves the lowest far buckets into the empty near heap.
func (q *queue) refill() {
	b := bits.TrailingZeros64(q.mask)
	for b > 0 && q.count[b] > nearMax {
		list := q.detach(b)
		m := uint64(list.e[0].at)
		for c := list; c != nil; c = c.next {
			for i := range c.n {
				m = min(m, uint64(c.e[i].at))
			}
		}
		q.base = m
		for c := list; c != nil; c = q.recycle(c) {
			for i := range c.n {
				q.farPush(c.e[i])
			}
		}
		b = bits.TrailingZeros64(q.mask)
	}
	top := b
	for q.mask != 0 {
		b = bits.TrailingZeros64(q.mask)
		if len(q.near) > 0 && len(q.near)+q.count[b] > nearMax {
			break
		}
		for c := q.detach(b); c != nil; c = q.recycle(c) {
			q.near = append(q.near, c.e[:c.n]...)
		}
		top = b
	}
	// Buckets 0..top hold exactly the times t with t>>top == base>>top.
	q.split = (q.base>>top + 1) << top
	for i := range q.near {
		q.up(i)
	}
}

// up restores the heap order from near[i] towards the root.
func (q *queue) up(i int) {
	h := q.near
	e := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
}
