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
// # Design: arena, free list, generation tags, bucket queue
//
// The scheduler is built for a near-zero-allocation steady state, because
// every simulated message and timer passes through it:
//
//   - Events live in a value-typed arena ([]eventSlot) recycled through an
//     intrusive free list, so a steady-state simulation performs no per-event
//     heap allocation: slots freed by executed or cancelled events are reused
//     by the next schedule call.
//   - The queue holds 24-byte value entries carrying the ordering key
//     (at, seq) inline plus the entry's arena slot, ordered by virtual time,
//     ties broken by schedule order. It is a monotone bucket queue (see
//     queue): a radix heap whose lowest buckets drain into a small binary
//     heap, so a queue of a few dozen entries is a plain heap and one of
//     100 000 pays a few sequential moves per entry instead of a deep heap.
//     Bucket storage is chunks recycled through one free list.
//   - An EventID packs (slot, generation). Cancel is an O(1) generation
//     compare — no map lookup, no queue fix-up: it bumps the generation and
//     clears the slot, and the slot returns to the free list when its entry
//     reaches the front and is skipped.
//   - Hot-path callers avoid closures entirely with AtTyped/AfterTyped: the
//     event carries a Handler plus a (kind, a, p) payload by value, and the
//     handler demultiplexes. At/After with a func() remain for cold paths.
//   - A fan-out (FanOut, AtLeg) is one slot shared by many entries: each leg
//     is its own queue entry whose 32-bit argument reaches the handler as a,
//     and the slot is freed when the last leg fires. netsim's multicast is
//     one fan-out per broadcast.
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
// stale id (the event already ran or was cancelled) simply fails the
// generation check.
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

// eventSlot is one arena cell: the handler an event fires with its kind and
// payload. legs counts the queued legs of a fan-out slot and is 0 for a
// single event. next links free slots; gen tags the slot's current
// incarnation.
type eventSlot struct {
	gen  uint32
	next int32 // free-list link, -1 = end
	legs uint32
	kind uint8
	a    uint64
	p    any
	h    Handler
}

// funcEvent runs a closure scheduled with At or After as a Handler. A func
// value is one pointer, so storing it in the slot's interface allocates
// nothing beyond the closure itself.
type funcEvent func()

func (f funcEvent) OnSimEvent(uint8, uint64, any) { f() }

// Scheduler owns the virtual clock and the event queue. The zero value is not
// usable; create one with NewScheduler.
type Scheduler struct {
	now     Time
	q       queue
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

// freeSlot puts a slot on the free list: the generation bump invalidates
// outstanding EventIDs, and reference fields are cleared so the arena does
// not pin payloads. A slot is freed only once no queue entry refers to it.
func (s *Scheduler) freeSlot(i int32) {
	sl := &s.arena[i]
	sl.gen++
	sl.h = nil
	sl.p = nil
	sl.next = s.free
	s.free = i
}

// newSlot installs a handler, kind and payload in a fresh slot.
func (s *Scheduler) newSlot(h Handler, kind uint8, a uint64, p any) (int32, *eventSlot) {
	i := s.allocSlot()
	sl := &s.arena[i]
	sl.h, sl.kind, sl.a, sl.p = h, kind, a, p
	return i, sl
}

// push queues one entry. A time in the past runs at the current instant.
func (s *Scheduler) push(at Time, seq uint64, slot int32, arg uint32) {
	s.live++
	s.q.push(entry{at: max(at, s.now), seq: seq, slot: slot, arg: arg})
}

// schedule installs an event under the next sequence number.
func (s *Scheduler) schedule(at Time, h Handler, kind uint8, a uint64, p any) EventID {
	s.nextSeq++
	return s.scheduleSeq(at, s.nextSeq, h, kind, a, p)
}

// scheduleSeq installs an event under an explicit tie-break sequence number.
func (s *Scheduler) scheduleSeq(at Time, seq uint64, h Handler, kind uint8, a uint64, p any) EventID {
	i, sl := s.newSlot(h, kind, a, p)
	s.push(at, seq, i, 0)
	return makeEventID(i, sl.gen)
}

// ReserveSeqs consumes k tie-break sequence numbers and returns the first.
// A caller that fans one logical operation into up to k future events
// (netsim's multicast) reserves one contiguous block in place of the
// individual schedule calls, then schedules each event under its seq with
// AtTypedSeq or AtLeg — so the global (at, seq) execution order is
// bit-for-bit what eager schedule calls would have produced. A reserved seq
// left unused is only a gap, and a gap never reorders two events.
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
	return s.scheduleSeq(at, seq, h, kind, a, p)
}

// Fan is a fan-out: one arena slot (handler, kind, payload) shared by every
// leg added to it with AtLeg. It is not cancellable.
type Fan struct {
	slot int32
	gen  uint32
}

// FanOut installs a fan-out and returns it; it schedules nothing until a
// leg is added. The slot is freed when the last queued leg fires, so a
// fan-out must get its first leg before the next event runs.
func (s *Scheduler) FanOut(h Handler, kind uint8, p any) Fan {
	if h == nil {
		panic("sim: FanOut called with nil handler")
	}
	i, sl := s.newSlot(h, kind, 0, p)
	return Fan{slot: i, gen: sl.gen}
}

// AtLeg queues one leg of f at time at under sequence number seq (from
// ReserveSeqs). When it fires, the fan-out's handler runs with a = arg.
// Each leg is its own queue entry and its own event: it counts in Pending
// and in Processed.
func (s *Scheduler) AtLeg(f Fan, at Time, seq uint64, arg uint32) {
	sl := &s.arena[f.slot]
	if sl.gen != f.gen {
		panic("sim: AtLeg on a fan-out whose legs all fired")
	}
	sl.legs++
	s.push(at, seq, f.slot, arg)
}

// At schedules fn to run at absolute time at. Scheduling in the past (or at
// the current instant) runs the event at the current time but after all
// events already scheduled for that time. Returns an id usable with Cancel.
func (s *Scheduler) At(at Time, fn func()) EventID {
	if fn == nil {
		panic("sim: At called with nil function")
	}
	return s.schedule(at, funcEvent(fn), 0, 0, nil)
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
	return s.schedule(at, h, kind, a, p)
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
// Cancel is O(1): it retires the event's arena slot at once (the generation
// bump invalidates id, and the payload is released), and the slot returns
// to the free list when its queue entry reaches the front and is skipped.
func (s *Scheduler) Cancel(id EventID) bool {
	slot, gen := id.split()
	if slot < 0 || int(slot) >= len(s.arena) || s.arena[slot].gen != gen {
		return false
	}
	sl := &s.arena[slot]
	sl.gen++
	sl.h = nil
	sl.p = nil
	s.live--
	return true
}

// Pending returns the number of not-yet-executed, not-cancelled events.
func (s *Scheduler) Pending() int { return s.live }

// Stop makes Run return after the current event completes.
func (s *Scheduler) Stop() { s.stopped = true }

// peek drops cancelled entries off the front of the queue and returns the
// earliest live one, or nil when none is left.
func (s *Scheduler) peek() *entry {
	for {
		e := s.q.front()
		if e == nil || s.arena[e.slot].h != nil {
			return e
		}
		// Cancelled: Cancel already uncounted it; only the slot is left.
		i := e.slot
		s.q.pop()
		s.freeSlot(i)
	}
}

// fire removes e, the front entry peek returned, and executes it.
func (s *Scheduler) fire(e *entry) {
	at, i, a := e.at, e.slot, uint64(e.arg)
	s.q.pop()
	sl := &s.arena[i]
	h, kind, p := sl.h, sl.kind, sl.p
	if sl.legs > 0 {
		sl.legs--
	} else {
		a = sl.a
	}
	if sl.legs == 0 {
		s.freeSlot(i)
	}
	s.live--
	if at > s.now {
		s.now = at
	}
	s.Processed++
	h.OnSimEvent(kind, a, p)
}

// step executes the earliest pending event. It reports false when the queue
// is empty.
func (s *Scheduler) step() bool {
	e := s.peek()
	if e == nil {
		return false
	}
	s.fire(e)
	return true
}

// Run executes events in timestamp order until the queue is empty, the given
// horizon is passed, or Stop is called. Events scheduled exactly at the
// horizon still run; the clock never advances beyond the horizon. It returns
// the number of events executed.
func (s *Scheduler) Run(horizon Time) uint64 {
	s.stopped = false
	start := s.Processed
	for !s.stopped {
		// Peek: do not run events beyond the horizon. Idle or not, the
		// clock still advances to the horizon, so that RunFor(d) always
		// moves virtual time forward by d.
		e := s.peek()
		if e == nil || e.at > horizon {
			if horizon > s.now {
				s.now = horizon
			}
			break
		}
		s.fire(e)
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
