// Package rounds provides the round-indexed bookkeeping store of the Ω core
// (internal/core), and Ring, its generic sibling behind the scenario order
// gate (internal/scenario). For each receiving round rn a process tracks who
// it heard an ALIVE from (rec_from), and, for each peer, whether the
// distinct processes that reported suspecting it have reached the threshold
// alpha (suspicions, as a bitset.Tally that also holds which senders'
// SUSPICION was already counted: dedup hardening).
//
// The paper's pseudocode indexes these by an unbounded round number; a
// round-keyed map per structure would cost one map insert per row, one
// delete per completed round, and a map sweep per prune. But the paper's
// own structure bounds the set of rounds that are *hot*: the
// window test only consults rounds in [rn - susp_level[k] - F(rn), rn), and
// messages arrive within a bounded skew of the round frontier in every
// non-adversarial execution. So the store is a ring of W row pointers
// indexed by rn mod W. A slot takes a row from a free list the first time a
// round claims it, recycles that row in place as the frontier advances, and
// gives it back when pruning leaves it empty: the steady-state hot path
// performs no map operation and no allocation, and memory is O(rows holding
// live data) plus one pointer per slot — a ring sized for a deep retention
// horizon costs nothing until rounds actually fill it.
//
// Exactness is preserved by an overflow map: a row evicted from the ring
// while its data could still be consulted (a live rec_from at or ahead of
// the receiving round, or suspicion counters inside the retention horizon)
// moves there rather than being dropped, and rounds whose slot is owned by
// a newer round are served from the overflow map. Late or far-future
// messages therefore observe the same state whatever the ring's width; only
// where a row lives changes. Evictions and overflow hits are counted so that
// experiments can verify the ring is actually absorbing the workload
// (Stats), and pathological round skew degrades to map lookups instead of
// breaking.
package rounds

import (
	"fmt"
	"math"

	"repro/internal/bitset"
)

// DefaultSlots is the ring width used when a caller passes 0: it covers the
// deepest window test any bounded variant performs (susp_level <= B+1 with
// B ~ the intermittence gap D, plus F slack) and the round skew of every
// non-adversarial delay policy, with a comfortable margin.
const DefaultSlots = 64

// MaxN is the largest universe a Window serves: the bound the wire codec
// puts on every vector and suspect set (a u16 count). A row's tally needs
// bits.Len(n)+1 lanes of n bits however large alpha is, so the bound is the
// codec's, not the store's.
const MaxN = math.MaxUint16

// Row is the bookkeeping for one receiving round. Every row is provisioned
// with all its parts and recycled in place; the Live flags say which parts
// currently hold data for RN.
type Row struct {
	// RN is the round this row currently holds.
	RN int64
	// Rec is rec_from[RN]: senders whose round-RN ALIVE was received in
	// time, always including the process itself. Valid when RecLive.
	Rec bitset.Set
	// Susp is suspicions[RN]: which targets alpha distinct senders'
	// SUSPICION(RN) named, and which senders were already counted.
	// Valid when SuspLive.
	Susp bitset.Tally

	RecLive  bool
	SuspLive bool
}

// BeginRec initializes the rec_from part as {self}.
func (r *Row) BeginRec(self int) {
	r.Rec.Clear()
	r.Rec.Add(self)
	r.RecLive = true
}

// BeginSusp initializes the suspicion part (zero counts, nobody reported).
func (r *Row) BeginSusp() {
	r.Susp.Reset()
	r.SuspLive = true
}

// Stats counts how the ring behaved; all counters are monotone.
type Stats struct {
	// Evictions counts rows whose still-consultable data was copied to
	// the overflow map because a newer round claimed their slot.
	Evictions uint64
	// OverflowHits counts lookups and claims served by the overflow map
	// instead of the ring (out-of-window rounds).
	OverflowHits uint64
}

// Window is the ring-plus-overflow store. It is not safe for concurrent
// use; in this repository every Window is owned by a single (simulated)
// process, like all protocol state.
type Window struct {
	n    int
	mask int64
	// slots holds each ring slot's row, nil until a round first claims
	// the slot and again once pruning empties it.
	slots []*Row
	// overflow holds rows for rounds that lost (or never contended for)
	// their ring slot. Nil until first needed: in the common case it is
	// never allocated at all.
	overflow map[int64]*Row
	// free recycles rows — with their bitsets and tallies — released
	// by Prune/CompleteRec/DropSusp, refilled in blocks when recycling
	// cannot keep up. Under sustained round skew (large n: sending rounds
	// outrun receiving rounds without bound, so every claim wraps the
	// ring) evictions are constant-rate and the live overflow population
	// grows with the skew; block provisioning keeps row allocations
	// O(rows/rowBlock) instead of O(parts x rows).
	free  []*Row
	stats Stats
}

// rowBlock is how many fully-parted rows one freelist refill provisions.
const rowBlock = 16

// rowWords is how many words one row's bitset and tally occupy.
func rowWords(n int) int { return bitset.WordsFor(n) + bitset.TallyWords(n) }

// refill provisions rowBlock rows carved from two allocations however many
// rows: the Row block, and one words array behind every row's bitset and
// tally.
func (w *Window) refill() {
	block := make([]Row, rowBlock)
	words := make([]uint64, rowBlock*rowWords(w.n))
	for i := range block {
		r := &block[i]
		r.Rec, words = bitset.Carve(w.n, words)
		r.Susp, words = bitset.CarveTally(w.n, words)
		w.free = append(w.free, r)
	}
}

// getRow pops a provisioned row (parts present, flags dead, contents stale).
func (w *Window) getRow() *Row {
	if len(w.free) == 0 {
		w.refill()
	}
	k := len(w.free)
	r := w.free[k-1]
	w.free = w.free[:k-1]
	return r
}

// putRow retires a row with no live part to the free list.
func (w *Window) putRow(r *Row) {
	r.RN = 0
	r.RecLive = false
	r.SuspLive = false
	w.free = append(w.free, r)
}

// New creates a window over rounds for a system of n processes, 0 < n <=
// MaxN. slots is rounded up to a power of two; 0 means DefaultSlots.
func New(n, slots int) *Window {
	w := new(Window)
	w.Init(n, slots)
	return w
}

// Init makes w a fresh window, as New(n, slots) returns one. Owners that
// hold their window by value call it instead of New.
func (w *Window) Init(n, slots int) {
	if n <= 0 || n > MaxN {
		panic(fmt.Sprintf("rounds: universe %d outside [1,%d]", n, MaxN))
	}
	if slots <= 0 {
		slots = DefaultSlots
	}
	width := 1
	for width < slots {
		width <<= 1
	}
	*w = Window{n: n, mask: int64(width - 1), slots: make([]*Row, width)}
}

// Stats returns a snapshot of the ring counters.
func (w *Window) Stats() Stats { return w.stats }

// Get returns the row currently holding round rn, or nil. It never creates
// or evicts anything.
func (w *Window) Get(rn int64) *Row {
	if s := w.slots[rn&w.mask]; s != nil && s.RN == rn {
		return s
	}
	if w.overflow == nil {
		return nil
	}
	if r := w.overflow[rn]; r != nil {
		w.stats.OverflowHits++
		return r
	}
	return nil
}

// Claim returns the row for round rn, creating storage for it if needed.
// recDeadBelow and suspDeadBelow are the liveness horizons used when a slot
// must be evicted: a resident row's rec part is dead below recDeadBelow
// (the current receiving round — line 6 discards late ALIVEs) and its
// suspicion parts are dead below suspDeadBelow (the retention horizon; pass
// 1 to keep everything, the paper-faithful default). The returned row has
// RN == rn; its Live flags tell the caller which parts already hold data.
func (w *Window) Claim(rn int64, recDeadBelow, suspDeadBelow int64) *Row {
	i := rn & w.mask
	s := w.slots[i]
	if s != nil {
		if s.RN == rn {
			return s
		}
		if s.RN > rn {
			// The slot is owned by a newer round: serve rn from overflow.
			return w.overflowRow(rn)
		}
	}
	if r := w.overflow[rn]; r != nil {
		// rn was evicted earlier; keep serving it from overflow (moving
		// it back would just evict the resident).
		w.stats.OverflowHits++
		return r
	}
	if s == nil || w.evict(s, recDeadBelow, suspDeadBelow) {
		s = w.getRow()
		w.slots[i] = s
	}
	s.RN = rn
	s.RecLive = false
	s.SuspLive = false
	return s
}

// overflowRow returns (creating if absent) the overflow row for rn.
func (w *Window) overflowRow(rn int64) *Row {
	w.stats.OverflowHits++
	if w.overflow == nil {
		w.overflow = make(map[int64]*Row)
	}
	r := w.overflow[rn]
	if r == nil {
		r = w.getRow()
		r.RN = rn
		w.overflow[rn] = r
	}
	return r
}

// evict moves the resident row s to the overflow map when it still holds
// consultable data, and reports whether it did (the slot then needs a new
// row). Data below the caller's horizons is dropped, as Prune would drop
// it, so an eviction never changes what a later lookup sees; a row with
// nothing left to keep stays in its slot and is recycled in place. The row
// moves whole — storage and all — so an eviction copies nothing, and the
// slot's replacement comes off the free list that released overflow rows
// feed: steady-state evictions allocate nothing, which matters at large n,
// where unbounded sending/receiving round skew wraps the ring on every
// claim.
func (w *Window) evict(s *Row, recDeadBelow, suspDeadBelow int64) bool {
	keepRec := s.RecLive && s.RN >= recDeadBelow
	keepSusp := s.SuspLive && s.RN >= suspDeadBelow
	if !keepRec && !keepSusp {
		return false
	}
	w.stats.Evictions++
	if w.overflow == nil {
		w.overflow = make(map[int64]*Row)
	}
	s.RecLive = keepRec
	s.SuspLive = keepSusp
	w.overflow[s.RN] = s
	return true
}

// release hands slot i's row back to the free list once no part of it is
// live.
func (w *Window) release(i int64) {
	w.putRow(w.slots[i])
	w.slots[i] = nil
}

// CompleteRec marks round rn's rec_from row dead (the round completed; late
// ALIVEs for it are discarded). Overflow rows left with no live part are
// released.
func (w *Window) CompleteRec(rn int64) {
	if s := w.slots[rn&w.mask]; s != nil && s.RN == rn {
		s.RecLive = false
		return
	}
	if r := w.overflow[rn]; r != nil {
		r.RecLive = false
		if !r.SuspLive {
			delete(w.overflow, rn)
			w.putRow(r)
		}
	}
}

// Prune drops all data below the given horizons: suspicion parts below
// suspDeadBelow, rec parts below both recDeadBelow and suspDeadBelow (a
// rec row at or ahead of the receiving round stays consultable regardless
// of age). Rows left with no live part go back to the free list.
func (w *Window) Prune(recDeadBelow, suspDeadBelow int64) {
	for i, s := range w.slots {
		if s == nil || s.RN >= suspDeadBelow {
			continue
		}
		s.SuspLive = false
		if s.RN < recDeadBelow {
			s.RecLive = false
		}
		if !s.RecLive {
			w.release(int64(i))
		}
	}
	for rn, r := range w.overflow {
		if rn >= suspDeadBelow {
			continue
		}
		r.SuspLive = false
		if rn < recDeadBelow {
			r.RecLive = false
		}
		if !r.RecLive {
			delete(w.overflow, rn)
			w.putRow(r)
		}
	}
}

// DropSusp discards round rn's suspicion data wherever it lives (ring or
// overflow). The core calls it on a SUSPICION below its applied retention
// horizon, so a row that message recreated is pruned again at once and rows
// below the horizon never pile up reports. Unbounded history (Retention 0)
// would keep counting them; the core counts each such message in its
// BelowHorizon metric.
func (w *Window) DropSusp(rn int64) {
	i := rn & w.mask
	if s := w.slots[i]; s != nil && s.RN == rn {
		s.SuspLive = false
		if !s.RecLive {
			w.release(i)
		}
		return
	}
	if r := w.overflow[rn]; r != nil {
		r.SuspLive = false
		if !r.RecLive {
			delete(w.overflow, rn)
			w.putRow(r)
		}
	}
}

// SuspRounds counts rounds currently holding live suspicion data (ring plus
// overflow). It exists for tests and observability, not the hot path.
func (w *Window) SuspRounds() int {
	return w.count(func(r *Row) bool { return r.SuspLive })
}

// RecRounds counts rounds currently holding a live rec_from row.
func (w *Window) RecRounds() int {
	return w.count(func(r *Row) bool { return r.RecLive })
}

// count counts the ring and overflow rows for which live holds.
func (w *Window) count(live func(*Row) bool) int {
	c := 0
	for _, s := range w.slots {
		if s != nil && live(s) {
			c++
		}
	}
	for _, r := range w.overflow {
		if live(r) {
			c++
		}
	}
	return c
}

// OverflowLen reports the overflow map's size (observability).
func (w *Window) OverflowLen() int { return len(w.overflow) }
