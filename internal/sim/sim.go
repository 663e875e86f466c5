// Package sim implements a deterministic discrete-event simulator: a virtual
// clock, an event queue with stable tie-breaking, cancellable timers, and a
// seeded deterministic random number generator.
//
// The simulator is the substrate on which the paper's asynchronous system is
// realized: processes, links, timers and assumption schedules are all driven
// by events on a single virtual timeline. Two runs with the same seed and the
// same configuration produce byte-identical traces, which the test suite
// relies on.
//
// Time is virtual: a Time is a monotone int64 count of nanoseconds since the
// start of the run, and durations use time.Duration so that configuration
// reads naturally (10*time.Millisecond). Nothing ever sleeps on the wall
// clock.
//
// # Design: arena, free list, generation tags
//
// The scheduler is built for a near-zero-allocation steady state, because
// every simulated message and timer passes through it:
//
//   - Events live in a value-typed arena ([]eventSlot) recycled through an
//     intrusive free list, so a steady-state simulation performs no per-event
//     heap allocation: slots freed by executed or cancelled events are reused
//     by the next schedule call.
//   - The priority queue is an index-based binary min-heap of small value
//     items carrying the ordering key (at, seq) inline, ordered exactly as
//     before: by virtual time, ties broken by schedule order. No
//     container/heap interface boxing, no per-event pointer.
//   - An EventID packs (slot, generation). Each reuse of a slot bumps its
//     generation, so Cancel is an O(1) generation compare — no map lookup,
//     no heap fix-up. Cancelled events leave a stale heap item behind that
//     is skipped (generation mismatch) when it surfaces at the top.
//   - Hot-path callers avoid closures entirely with AtTyped/AfterTyped: the
//     event carries a Handler plus a (kind, a, p) payload by value, and the
//     handler demultiplexes. At/After with a func() remain for cold paths.
//
// Determinism is unaffected by any of this: execution order is a pure
// function of (at, seq), and seq is assigned in schedule order exactly as in
// the original pointer-heap implementation.
package sim

import (
	"fmt"
	"time"
)

// Time is a point on the virtual timeline, in nanoseconds since run start.
type Time int64

// Add returns the time d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration between t and earlier time u.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// String renders the time as a duration from run start, e.g. "1.5s".
func (t Time) String() string { return time.Duration(t).String() }

// EventID identifies a scheduled event; it can be used to cancel it. It packs
// the event's arena slot and the slot's generation at schedule time, so a
// stale id (the event already ran, or was cancelled and the slot reused)
// simply fails the generation check.
type EventID uint64

func makeEventID(slot int32, gen uint32) EventID {
	return EventID(uint64(gen)<<32 | uint64(uint32(slot)))
}

func (id EventID) split() (slot int32, gen uint32) {
	return int32(uint32(id)), uint32(id >> 32)
}

// Handler receives typed events scheduled with AtTyped/AfterTyped. The
// (kind, a, p) triple is carried in the event slot by value, so scheduling a
// typed event allocates nothing in steady state — unlike At/After, which
// force the caller to allocate a closure per event. Kind values are private
// to each handler; the scheduler never interprets them.
type Handler interface {
	OnSimEvent(kind uint8, a uint64, p any)
}

// eventSlot is one arena cell: either a closure event (fn != nil) or a typed
// event (h != nil). next links free slots; gen tags the slot's current
// incarnation.
type eventSlot struct {
	gen  uint32
	kind uint8
	next int32 // free-list link, -1 = end
	a    uint64
	p    any
	h    Handler
	fn   func()
}

// heapItem is one min-heap entry. The ordering key is inline for cache
// locality; gen detects stale items left behind by Cancel.
type heapItem struct {
	at   Time
	seq  uint64
	slot int32
	gen  uint32
}

// Scheduler owns the virtual clock and the event queue. The zero value is not
// usable; create one with NewScheduler.
type Scheduler struct {
	now     Time
	heap    []heapItem
	arena   []eventSlot
	free    int32 // head of the slot free list, -1 = empty
	nextSeq uint64
	live    int
	stopped bool

	// Processed counts events executed since creation (for metrics and
	// runaway-loop protection in tests).
	Processed uint64
}

// NewScheduler returns an empty scheduler at time 0.
func NewScheduler() *Scheduler {
	return &Scheduler{free: -1}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// allocSlot pops a slot off the free list, growing the arena when empty.
func (s *Scheduler) allocSlot() int32 {
	if s.free >= 0 {
		i := s.free
		s.free = s.arena[i].next
		return i
	}
	s.arena = append(s.arena, eventSlot{gen: 1, next: -1})
	return int32(len(s.arena) - 1)
}

// freeSlot retires a slot: the generation bump invalidates outstanding
// EventIDs and stale heap items, and reference fields are cleared so the
// arena does not pin payloads.
func (s *Scheduler) freeSlot(i int32) {
	sl := &s.arena[i]
	sl.gen++
	sl.fn = nil
	sl.h = nil
	sl.p = nil
	sl.next = s.free
	s.free = i
}

// schedule installs an event and returns its id. Exactly one of fn and h is
// non-nil.
func (s *Scheduler) schedule(at Time, fn func(), h Handler, kind uint8, a uint64, p any) EventID {
	s.nextSeq++
	return s.scheduleSeq(at, s.nextSeq, fn, h, kind, a, p)
}

// scheduleSeq installs an event under an explicit tie-break sequence number.
func (s *Scheduler) scheduleSeq(at Time, seq uint64, fn func(), h Handler, kind uint8, a uint64, p any) EventID {
	if at < s.now {
		at = s.now
	}
	i := s.allocSlot()
	sl := &s.arena[i]
	sl.fn, sl.h, sl.kind, sl.a, sl.p = fn, h, kind, a, p
	s.heapPush(heapItem{at: at, seq: seq, slot: i, gen: sl.gen})
	s.live++
	return makeEventID(i, sl.gen)
}

// ReserveSeqs consumes k tie-break sequence numbers and returns the first.
// A caller that fans one logical operation into up to k future events
// (netsim's multicast carrier) reserves one contiguous block in place of the
// individual schedule calls, then replays each event with AtTypedSeq — so
// the global (at, seq) execution order is bit-for-bit what eager schedule
// calls would have produced. A reserved seq left unused is only a gap, and a
// gap never reorders two events.
func (s *Scheduler) ReserveSeqs(k int) uint64 {
	if k <= 0 {
		panic(fmt.Sprintf("sim: ReserveSeqs(%d)", k))
	}
	s.nextSeq += uint64(k)
	return s.nextSeq - uint64(k) + 1
}

// AtTypedSeq schedules a typed event under a sequence number previously
// obtained from ReserveSeqs. Ordering is (at, seq), so an event scheduled
// late with an early reserved seq still sorts exactly where its eager
// counterpart would have.
func (s *Scheduler) AtTypedSeq(at Time, seq uint64, h Handler, kind uint8, a uint64, p any) EventID {
	if h == nil {
		panic("sim: AtTypedSeq called with nil handler")
	}
	return s.scheduleSeq(at, seq, nil, h, kind, a, p)
}

// At schedules fn to run at absolute time at. Scheduling in the past (or at
// the current instant) runs the event at the current time but after all
// events already scheduled for that time. Returns an id usable with Cancel.
func (s *Scheduler) At(at Time, fn func()) EventID {
	if fn == nil {
		panic("sim: At called with nil function")
	}
	return s.schedule(at, fn, nil, 0, 0, nil)
}

// After schedules fn to run d after the current time. Negative d is treated
// as zero.
func (s *Scheduler) After(d time.Duration, fn func()) EventID {
	if d < 0 {
		d = 0
	}
	return s.At(s.now.Add(d), fn)
}

// AtTyped schedules a typed event: at time at, h.OnSimEvent(kind, a, p) runs.
// It is the allocation-free alternative to At for hot paths.
func (s *Scheduler) AtTyped(at Time, h Handler, kind uint8, a uint64, p any) EventID {
	if h == nil {
		panic("sim: AtTyped called with nil handler")
	}
	return s.schedule(at, nil, h, kind, a, p)
}

// AfterTyped schedules a typed event d after the current time. Negative d is
// treated as zero.
func (s *Scheduler) AfterTyped(d time.Duration, h Handler, kind uint8, a uint64, p any) EventID {
	if d < 0 {
		d = 0
	}
	return s.AtTyped(s.now.Add(d), h, kind, a, p)
}

// Cancel prevents a scheduled event from running. Cancelling an event that
// already ran (or was already cancelled) is a no-op and returns false.
// Cancel is O(1): it frees the arena slot and lets the stale heap item be
// skipped when it reaches the top.
func (s *Scheduler) Cancel(id EventID) bool {
	slot, gen := id.split()
	if slot < 0 || int(slot) >= len(s.arena) || s.arena[slot].gen != gen {
		return false
	}
	s.freeSlot(slot)
	s.live--
	return true
}

// Pending returns the number of not-yet-executed, not-cancelled events.
func (s *Scheduler) Pending() int { return s.live }

// Stop makes Run return after the current event completes.
func (s *Scheduler) Stop() { s.stopped = true }

// heapLess orders items by (at, seq): virtual time, ties broken by schedule
// order.
func (s *Scheduler) heapLess(i, j int) bool {
	a, b := &s.heap[i], &s.heap[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (s *Scheduler) heapPush(it heapItem) {
	s.heap = append(s.heap, it)
	i := len(s.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.heapLess(i, parent) {
			break
		}
		s.heap[i], s.heap[parent] = s.heap[parent], s.heap[i]
		i = parent
	}
}

// heapPopTop removes the minimum item.
func (s *Scheduler) heapPopTop() heapItem {
	h := s.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	s.heap = h[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && s.heapLess(r, l) {
			m = r
		}
		if !s.heapLess(m, i) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	return top
}

// dropStaleTop pops cancelled items off the heap top so that s.heap[0], when
// present, is a live event.
func (s *Scheduler) dropStaleTop() {
	for len(s.heap) > 0 && s.arena[s.heap[0].slot].gen != s.heap[0].gen {
		s.heapPopTop()
	}
}

// step executes the earliest pending event. It reports false when the queue
// is empty.
func (s *Scheduler) step() bool {
	for len(s.heap) > 0 {
		it := s.heapPopTop()
		sl := &s.arena[it.slot]
		if sl.gen != it.gen {
			continue // cancelled
		}
		fn, h, kind, a, p := sl.fn, sl.h, sl.kind, sl.a, sl.p
		s.freeSlot(it.slot)
		s.live--
		if it.at > s.now {
			s.now = it.at
		}
		s.Processed++
		if fn != nil {
			fn()
		} else {
			h.OnSimEvent(kind, a, p)
		}
		return true
	}
	return false
}

// Run executes events in timestamp order until the queue is empty, the given
// horizon is passed, or Stop is called. Events scheduled exactly at the
// horizon still run; the clock never advances beyond the horizon. It returns
// the number of events executed.
func (s *Scheduler) Run(horizon Time) uint64 {
	s.stopped = false
	start := s.Processed
	for !s.stopped {
		s.dropStaleTop()
		if len(s.heap) == 0 {
			// Idle: the clock still advances to the horizon, so that
			// RunFor(d) always moves virtual time forward by d.
			if horizon > s.now {
				s.now = horizon
			}
			break
		}
		// Peek: do not run events beyond the horizon.
		if s.heap[0].at > horizon {
			if horizon > s.now {
				s.now = horizon
			}
			break
		}
		s.step()
	}
	return s.Processed - start
}

// RunFor runs for d of virtual time from the current instant.
func (s *Scheduler) RunFor(d time.Duration) uint64 { return s.Run(s.now.Add(d)) }

// RunAll executes events until none remain or maxEvents have been executed.
// It returns an error when the event budget is exhausted, which in this
// repository always indicates a scheduling livelock in a test.
func (s *Scheduler) RunAll(maxEvents uint64) error {
	s.stopped = false
	var n uint64
	for !s.stopped && s.step() {
		n++
		if n >= maxEvents {
			return fmt.Errorf("sim: event budget %d exhausted at t=%v", maxEvents, s.now)
		}
	}
	return nil
}
