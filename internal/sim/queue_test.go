package sim

import (
	"cmp"
	"slices"
	"testing"
	"time"
	"unsafe"
)

// TestQueueEntrySize pins the cost of one pending event or multicast leg:
// an n=251 cluster keeps about 10^5 entries queued, and every heap move
// copies one.
func TestQueueEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(entry{}); got != 24 {
		t.Fatalf("queue entry is %d bytes, want 24", got)
	}
}

// queueFootprint is the entry storage q retains: the near heap's capacity
// plus every chunk it owns, in buckets or on the free list.
func queueFootprint(q *queue) int {
	chunks := 0
	for c := q.free; c != nil; c = c.next {
		chunks++
	}
	for _, c := range q.far {
		for ; c != nil; c = c.next {
			chunks++
		}
	}
	return cap(q.near) + chunks*chunkLen
}

// legCounter counts fired fan-out legs.
type legCounter struct{ n int }

func (h *legCounter) OnSimEvent(uint8, uint64, any) { h.n++ }

// TestFanOutBurstKeepsStorageBounded: 32 overlapping broadcasts of an n=101
// cluster, one every millisecond with 1-10 ms leg delays, must leave the
// queue retaining a small constant times the peak pending count. Bucket
// storage that each bucket keeps at its own peak (the sum of every bucket's
// peak, not the peak of the sum) fails it.
func TestFanOutBurstKeepsStorageBounded(t *testing.T) {
	const n, broadcasts, bound = 101, 32, 3
	s := NewScheduler()
	r := NewRand(5)
	h := &legCounter{}
	peak := 0
	for range broadcasts {
		seq0 := s.ReserveSeqs(n - 1)
		f := s.FanOut(h, 1, nil)
		for off := range n - 1 {
			s.AtLeg(f, s.Now().Add(r.Duration(time.Millisecond, 10*time.Millisecond)), seq0+uint64(off), uint32(off))
		}
		peak = max(peak, s.Pending())
		s.RunFor(time.Millisecond)
	}
	s.RunFor(time.Second)
	if h.n != broadcasts*(n-1) || s.Pending() != 0 {
		t.Fatalf("fired %d legs, %d pending; want %d, 0", h.n, s.Pending(), broadcasts*(n-1))
	}
	if got := queueFootprint(&s.q); got > bound*peak {
		t.Fatalf("queue retains %d entries after a peak of %d pending, want at most %d", got, peak, bound*peak)
	}
	if len(s.arena) > broadcasts {
		t.Fatalf("arena grew to %d slots for %d fan-outs", len(s.arena), broadcasts)
	}
}

// TestAtLegAfterLastLegPanics: a fan-out's slot is freed with its last leg,
// so adding a leg later is a bug, not a silent reuse of someone else's slot.
func TestAtLegAfterLastLegPanics(t *testing.T) {
	s := NewScheduler()
	f := s.FanOut(&legCounter{}, 1, nil)
	s.AtLeg(f, 5, s.ReserveSeqs(1), 0)
	if err := s.RunAll(10); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("AtLeg on a spent fan-out did not panic")
		}
	}()
	s.AtLeg(f, 10, s.ReserveSeqs(1), 0)
}

// model is the reference FuzzScheduler compares against: every pending
// event in a plain slice, the earliest found by sorting on (at, seq).
type model struct {
	now     Time
	nextSeq uint64
	pending []modelEvent
}

type modelEvent struct {
	at    Time
	seq   uint64
	label int // schedule call that made it; a fan-out's legs share one
	arg   uint64
	idx   int // index into the cancellable-event list, -1 for legs
}

// fired is one executed event, as both sides record it.
type fired struct {
	label int
	arg   uint64
	at    Time
}

func (m *model) add(ev modelEvent) {
	ev.at = max(ev.at, m.now)
	m.pending = append(m.pending, ev)
}

// run executes, in (at, seq) order, every pending event at or before
// horizon (all of them when all is set), then advances the clock to the
// horizon as Run does. The children events spawn are already pending: the
// scheduler's handler adds each to both sides when it runs, and a child
// sorts after its parent, so it cannot run before the parent would have
// made it.
func (m *model) run(horizon Time, all bool) []fired {
	var out []fired
	for {
		slices.SortFunc(m.pending, func(a, b modelEvent) int {
			return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.seq, b.seq))
		})
		if len(m.pending) == 0 || !all && m.pending[0].at > horizon {
			break
		}
		ev := m.pending[0]
		m.pending = m.pending[1:]
		m.now = max(m.now, ev.at)
		out = append(out, fired{ev.label, ev.arg, m.now})
	}
	if !all {
		m.now = max(m.now, horizon)
	}
	return out
}

// fuzzHandler is the scheduler side's handler: it records each event and,
// for an event with a child, schedules the child on both sides.
type fuzzHandler struct {
	s     *Scheduler
	trace []fired
	child map[int]Time // child delay of the event with this label, <0 none
	spawn func(parent int)
}

func (h *fuzzHandler) OnSimEvent(_ uint8, a uint64, p any) {
	label := p.(int)
	h.trace = append(h.trace, fired{label, a, h.s.Now()})
	if h.child[label] >= 0 {
		h.spawn(label)
	}
}

// byteReader hands out the fuzz input one byte at a time, then zeros.
type byteReader struct {
	b []byte
	i int
}

func (r *byteReader) more() bool { return r.i < len(r.b) }

func (r *byteReader) next() byte {
	if r.i >= len(r.b) {
		return 0
	}
	r.i++
	return r.b[r.i-1]
}

// delay decodes a non-negative delay that spans every bucket scale: a byte
// shifted by up to 39 bits, from 0 to about 35 virtual hours.
func (r *byteReader) delay() Time {
	v, sh := Time(r.next()), r.next()%40
	return v << sh
}

// FuzzScheduler decodes the input into scheduler operations and checks the
// scheduler event by event against model:
//
//	0  At now+delay                 4  fan-out: k legs of a reserved block
//	1  AtTyped with a child event   5  Cancel an earlier event
//	2  At in the past               6  Run(now+delay)
//	3  AtTypedSeq over a reserved   7  At between the horizon and the next
//	   block, filled out of order   8  RunAll
//
// After every operation the two traces and Pending must agree.
func FuzzScheduler(f *testing.F) {
	// The horizon case: an event at 1000, Run to 500, then an event at
	// 500+3 must run before it. testdata/fuzz/FuzzScheduler holds its
	// harder form: 72 fan-out legs in one bucket, so the peek at the
	// horizon moves the radix base past it before the event at 803 comes.
	f.Add([]byte{0, 125, 3, 6, 125, 2, 7, 3, 8})
	// Ties: two events in the past both run now, in schedule order.
	f.Add([]byte{2, 0, 0, 2, 9, 9, 8})
	f.Add([]byte{3, 5, 1, 2, 0, 9, 7, 4, 6, 1, 4, 4, 3, 3, 3, 3, 7, 6, 2, 8, 6, 255, 30, 8})
	f.Add([]byte{1, 10, 8, 2, 4, 0, 10, 10, 5, 0, 6, 200, 20, 2, 99, 99, 7, 1, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &byteReader{b: data}
		s := NewScheduler()
		h := &fuzzHandler{s: s, child: map[int]Time{}}
		m := &model{}
		var ids []EventID // every cancellable event, in schedule order
		labels := 0

		// single schedules one cancellable event on both sides.
		single := func(at Time, child Time, typed bool) {
			label := labels
			labels++
			h.child[label] = child
			var id EventID
			if typed {
				id = s.AtTyped(at, h, 0, 0, label)
			} else {
				id = s.At(at, func() { h.OnSimEvent(0, 0, label) })
			}
			ids = append(ids, id)
			m.nextSeq++
			m.add(modelEvent{at: at, seq: m.nextSeq, label: label, idx: len(ids) - 1})
		}
		h.spawn = func(parent int) {
			single(s.Now()+h.child[parent], -1, true)
		}

		for r.more() {
			switch op := r.next() % 9; op {
			case 0:
				single(s.Now()+r.delay(), -1, false)
			case 1:
				single(s.Now()+r.delay(), r.delay(), true)
			case 2:
				single(s.Now()-r.delay(), -1, false)
			case 3, 4:
				k := int(r.next()%8) + 1
				seq0 := s.ReserveSeqs(k)
				m.nextSeq += uint64(k)
				order := make([]int, k)
				for i := range order {
					order[i] = i
				}
				if op == 3 { // out of order, and some seqs left unused
					for i := k - 1; i > 0; i-- {
						j := int(r.next()) % (i + 1)
						order[i], order[j] = order[j], order[i]
					}
					order = order[:int(r.next())%k+1]
				}
				var fan Fan
				fanLabel := labels
				if op == 4 {
					labels++
					fan = s.FanOut(h, 1, fanLabel)
					h.child[fanLabel] = -1
				}
				for _, j := range order {
					at := s.Now() + r.delay()
					if op == 3 {
						label := labels
						labels++
						h.child[label] = -1
						ids = append(ids, s.AtTypedSeq(at, seq0+uint64(j), h, 0, 0, label))
						m.add(modelEvent{at: at, seq: seq0 + uint64(j), label: label, idx: len(ids) - 1})
						continue
					}
					s.AtLeg(fan, at, seq0+uint64(j), uint32(j))
					m.add(modelEvent{at: at, seq: seq0 + uint64(j), label: fanLabel, arg: uint64(j), idx: -1})
				}
			case 5:
				if len(ids) == 0 {
					continue
				}
				i := int(r.next()) % len(ids)
				ok := s.Cancel(ids[i])
				pos := slices.IndexFunc(m.pending, func(ev modelEvent) bool { return ev.idx == i })
				if ok != (pos >= 0) {
					t.Fatalf("Cancel(ids[%d]) = %v, model pending %v", i, ok, pos >= 0)
				}
				if pos >= 0 {
					m.pending = slices.Delete(m.pending, pos, pos+1)
				}
			case 7:
				// Just past the horizon of the last Run: between it and
				// the next pending event, the case a queue whose peek
				// moved its base past the horizon gets wrong.
				single(s.Now()+Time(r.next()%8), -1, false)
			case 6, 8:
				horizon := s.Now() + r.delay()
				h.trace = nil
				if op == 8 {
					if err := s.RunAll(1 << 20); err != nil {
						t.Fatal(err)
					}
				} else {
					s.Run(horizon)
				}
				got := h.trace
				want := m.run(horizon, op == 8)
				if !slices.Equal(got, want) || s.Now() != m.now {
					t.Fatalf("op at byte %d: scheduler ran %v to %v, model %v to %v", r.i, got, s.Now(), want, m.now)
				}
			}
			if s.Pending() != len(m.pending) {
				t.Fatalf("op at byte %d: Pending = %d, model %d", r.i, s.Pending(), len(m.pending))
			}
		}
	})
}
