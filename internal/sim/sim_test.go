package sim

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"
)

func TestEventOrdering(t *testing.T) {
	s := NewScheduler()
	var got []int
	s.After(30*time.Millisecond, func() { got = append(got, 3) })
	s.After(10*time.Millisecond, func() { got = append(got, 1) })
	s.After(20*time.Millisecond, func() { got = append(got, 2) })
	if err := s.RunAll(100); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestTieBreakBySchedulingOrder(t *testing.T) {
	s := NewScheduler()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(Time(5), func() { got = append(got, i) })
	}
	if err := s.RunAll(100); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("tie-break order = %v", got)
		}
	}
}

func TestClockAdvances(t *testing.T) {
	s := NewScheduler()
	var at1, at2 Time
	s.After(10*time.Millisecond, func() { at1 = s.Now() })
	s.After(25*time.Millisecond, func() { at2 = s.Now() })
	if err := s.RunAll(10); err != nil {
		t.Fatal(err)
	}
	if at1 != Time(10*time.Millisecond) || at2 != Time(25*time.Millisecond) {
		t.Fatalf("times = %v, %v", at1, at2)
	}
}

func TestSchedulingInPastRunsNow(t *testing.T) {
	s := NewScheduler()
	var ranAt Time = -1
	s.After(10*time.Millisecond, func() {
		s.At(0, func() { ranAt = s.Now() })
	})
	if err := s.RunAll(10); err != nil {
		t.Fatal(err)
	}
	if ranAt != Time(10*time.Millisecond) {
		t.Fatalf("past event ran at %v", ranAt)
	}
}

func TestCancel(t *testing.T) {
	s := NewScheduler()
	ran := false
	id := s.After(time.Millisecond, func() { ran = true })
	if !s.Cancel(id) {
		t.Fatal("Cancel returned false for live event")
	}
	if s.Cancel(id) {
		t.Fatal("double Cancel returned true")
	}
	if err := s.RunAll(10); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Fatal("cancelled event ran")
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending = %d", s.Pending())
	}
}

func TestRunHorizon(t *testing.T) {
	s := NewScheduler()
	var got []int
	s.After(10*time.Millisecond, func() { got = append(got, 1) })
	s.After(20*time.Millisecond, func() { got = append(got, 2) })
	s.After(30*time.Millisecond, func() { got = append(got, 3) })
	n := s.Run(Time(20 * time.Millisecond))
	if n != 2 || len(got) != 2 {
		t.Fatalf("ran %d events (%v), want 2", n, got)
	}
	if s.Now() != Time(20*time.Millisecond) {
		t.Fatalf("Now = %v after horizon run", s.Now())
	}
	// The remaining event still runs later.
	s.Run(Time(time.Second))
	if len(got) != 3 {
		t.Fatalf("final events = %v", got)
	}
}

func TestRunForRelative(t *testing.T) {
	s := NewScheduler()
	count := 0
	var tick func()
	tick = func() {
		count++
		s.After(10*time.Millisecond, tick)
	}
	s.After(10*time.Millisecond, tick)
	s.RunFor(100 * time.Millisecond)
	if count != 10 {
		t.Fatalf("ticks = %d, want 10", count)
	}
	s.RunFor(50 * time.Millisecond)
	if count != 15 {
		t.Fatalf("ticks after second RunFor = %d, want 15", count)
	}
}

func TestStop(t *testing.T) {
	s := NewScheduler()
	count := 0
	for i := 0; i < 10; i++ {
		s.After(time.Duration(i)*time.Millisecond, func() {
			count++
			if count == 3 {
				s.Stop()
			}
		})
	}
	s.Run(Time(time.Second))
	if count != 3 {
		t.Fatalf("count = %d, want 3 (Stop ignored)", count)
	}
}

func TestRunAllBudget(t *testing.T) {
	s := NewScheduler()
	var loop func()
	loop = func() { s.After(time.Millisecond, loop) }
	s.After(0, loop)
	if err := s.RunAll(100); err == nil {
		t.Fatal("expected budget error")
	}
}

func TestAtNilPanics(t *testing.T) {
	s := NewScheduler()
	defer func() {
		if recover() == nil {
			t.Fatal("At(nil) did not panic")
		}
	}()
	s.At(0, nil)
}

// traceHash runs a randomized self-scheduling workload and returns a hash of
// the execution order, for determinism checks.
func traceHash(seed uint64) uint64 {
	s := NewScheduler()
	r := NewRand(seed)
	var h uint64 = 14695981039346656037
	mix := func(x uint64) {
		h ^= x
		h *= 1099511628211
	}
	var spawn func(depth int)
	spawn = func(depth int) {
		if depth > 4 {
			return
		}
		n := r.Intn(3) + 1
		for i := 0; i < n; i++ {
			d := time.Duration(r.Intn(1000)) * time.Microsecond
			id := uint64(depth)<<32 | uint64(i)
			s.After(d, func() {
				mix(uint64(s.Now()))
				mix(id)
				spawn(depth + 1)
			})
		}
	}
	spawn(0)
	s.Run(Time(time.Second))
	return h
}

func TestDeterminism(t *testing.T) {
	f := func(seed uint64) bool {
		return traceHash(seed) == traceHash(seed)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	// Not guaranteed in theory, but overwhelmingly likely; a collision
	// here would indicate the RNG is not actually seeded.
	if traceHash(1) == traceHash(2) {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestTimeString(t *testing.T) {
	if got := Time(1500 * time.Millisecond).String(); got != "1.5s" {
		t.Errorf("Time.String = %q", got)
	}
}

func TestTimeAddSub(t *testing.T) {
	t0 := Time(0).Add(time.Second)
	if t0 != Time(time.Second) {
		t.Fatalf("Add = %v", t0)
	}
	if d := t0.Sub(Time(250 * time.Millisecond)); d != 750*time.Millisecond {
		t.Fatalf("Sub = %v", d)
	}
}

func TestRandDeterministic(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestRandIntnRange(t *testing.T) {
	r := NewRand(7)
	seen := map[int]int{}
	for i := 0; i < 10000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v]++
	}
	for v := 0; v < 10; v++ {
		if seen[v] == 0 {
			t.Errorf("value %d never produced", v)
		}
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(9)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRandDuration(t *testing.T) {
	r := NewRand(11)
	lo, hi := 5*time.Millisecond, 10*time.Millisecond
	for i := 0; i < 1000; i++ {
		d := r.Duration(lo, hi)
		if d < lo || d > hi {
			t.Fatalf("Duration out of range: %v", d)
		}
	}
	if d := r.Duration(lo, lo); d != lo {
		t.Fatalf("degenerate Duration = %v", d)
	}
}

func TestRandPermIsPermutation(t *testing.T) {
	r := NewRand(13)
	for n := 0; n < 20; n++ {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) len=%d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestRandSubset(t *testing.T) {
	r := NewRand(17)
	xs := []int{10, 20, 30, 40, 50}
	for k := 0; k <= len(xs); k++ {
		sub := r.Subset(xs, k)
		if len(sub) != k {
			t.Fatalf("Subset k=%d len=%d", k, len(sub))
		}
		// Members come from xs, in stable order.
		last := -1
		pos := map[int]int{}
		for i, x := range xs {
			pos[x] = i
		}
		for _, v := range sub {
			p, ok := pos[v]
			if !ok || p <= last {
				t.Fatalf("Subset %v not stable-ordered subset of %v", sub, xs)
			}
			last = p
		}
	}
}

func TestRandFork(t *testing.T) {
	r := NewRand(23)
	f1 := r.Fork()
	f2 := r.Fork()
	if f1.Uint64() == f2.Uint64() {
		t.Fatal("forked streams identical")
	}
}

func TestRandPanics(t *testing.T) {
	r := NewRand(1)
	for name, fn := range map[string]func(){
		"Intn0":    func() { r.Intn(0) },
		"Int63n0":  func() { r.Int63n(0) },
		"DurBad":   func() { r.Duration(2, 1) },
		"PickNone": func() { r.Pick(nil) },
		"SubsetBig": func() {
			r.Subset([]int{1}, 2)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// recordingHandler collects typed events for inspection.
type recordingHandler struct {
	events []struct {
		kind uint8
		a    uint64
		p    any
		at   Time
	}
	s *Scheduler
}

func (h *recordingHandler) OnSimEvent(kind uint8, a uint64, p any) {
	h.events = append(h.events, struct {
		kind uint8
		a    uint64
		p    any
		at   Time
	}{kind, a, p, h.s.Now()})
}

func TestTypedEvents(t *testing.T) {
	s := NewScheduler()
	h := &recordingHandler{s: s}
	payload := &struct{ x int }{42}
	s.AfterTyped(2*time.Millisecond, h, 7, 99, payload)
	s.AtTyped(Time(time.Millisecond), h, 3, 11, nil)
	if err := s.RunAll(10); err != nil {
		t.Fatal(err)
	}
	if len(h.events) != 2 {
		t.Fatalf("got %d events", len(h.events))
	}
	if h.events[0].kind != 3 || h.events[0].a != 11 || h.events[0].at != Time(time.Millisecond) {
		t.Errorf("first event = %+v", h.events[0])
	}
	if h.events[1].kind != 7 || h.events[1].a != 99 || h.events[1].p != payload {
		t.Errorf("second event = %+v", h.events[1])
	}
}

func TestTypedAndClosureEventsInterleave(t *testing.T) {
	s := NewScheduler()
	h := &recordingHandler{s: s}
	var order []string
	s.AtTyped(Time(5), h, 1, 0, nil)
	s.At(Time(5), func() { order = append(order, "fn") })
	s.AtTyped(Time(5), h, 2, 0, nil)
	s.At(Time(5), func() { order = append(order, "fn2") })
	if err := s.RunAll(10); err != nil {
		t.Fatal(err)
	}
	// Ties break by schedule order: typed(1), fn, typed(2), fn2.
	if len(h.events) != 2 || h.events[0].kind != 1 || h.events[1].kind != 2 {
		t.Fatalf("typed events = %+v", h.events)
	}
	if len(order) != 2 || order[0] != "fn" || order[1] != "fn2" {
		t.Fatalf("closure order = %v", order)
	}
}

func TestTypedCancel(t *testing.T) {
	s := NewScheduler()
	h := &recordingHandler{s: s}
	id := s.AfterTyped(time.Millisecond, h, 1, 0, nil)
	if !s.Cancel(id) {
		t.Fatal("Cancel returned false")
	}
	if err := s.RunAll(10); err != nil {
		t.Fatal(err)
	}
	if len(h.events) != 0 {
		t.Fatal("cancelled typed event ran")
	}
}

func TestStaleIDAfterSlotReuse(t *testing.T) {
	// Cancelling an event frees its arena slot; the next schedule reuses
	// it under a new generation, so the stale id must not cancel (or
	// otherwise affect) the new event.
	s := NewScheduler()
	ran := false
	old := s.After(time.Millisecond, func() {})
	if !s.Cancel(old) {
		t.Fatal("first Cancel failed")
	}
	s.After(time.Millisecond, func() { ran = true })
	if s.Cancel(old) {
		t.Fatal("stale id cancelled the slot's new occupant")
	}
	if err := s.RunAll(10); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("new event did not run")
	}
	if s.Cancel(old) {
		t.Fatal("stale id accepted after event ran")
	}
}

func TestArenaReuseKeepsFootprintBounded(t *testing.T) {
	// A self-rescheduling workload with one outstanding event must not
	// grow the arena: each executed event's slot is recycled for the next.
	s := NewScheduler()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < 10000 {
			s.After(time.Microsecond, tick)
		}
	}
	s.After(0, tick)
	if err := s.RunAll(20000); err != nil {
		t.Fatal(err)
	}
	if n != 10000 {
		t.Fatalf("ticks = %d", n)
	}
	if len(s.arena) > 2 {
		t.Errorf("arena grew to %d slots for a 1-outstanding-event workload", len(s.arena))
	}
}

func TestPendingWithCancels(t *testing.T) {
	s := NewScheduler()
	ids := make([]EventID, 10)
	for i := range ids {
		ids[i] = s.After(time.Duration(i+1)*time.Millisecond, func() {})
	}
	if s.Pending() != 10 {
		t.Fatalf("Pending = %d, want 10", s.Pending())
	}
	for _, id := range ids[:5] {
		s.Cancel(id)
	}
	if s.Pending() != 5 {
		t.Fatalf("Pending = %d after cancels, want 5", s.Pending())
	}
	s.RunFor(3 * time.Millisecond)
	// The surviving events fire at 6..10ms, so none has run at 3ms.
	if s.Pending() != 5 {
		t.Fatalf("Pending = %d after partial run, want 5", s.Pending())
	}
	s.RunFor(time.Second)
	if s.Pending() != 0 {
		t.Fatalf("Pending = %d at end, want 0", s.Pending())
	}
}

func BenchmarkTypedSelfScheduling(b *testing.B) {
	s := NewScheduler()
	h := &tickHandler{s: s}
	s.AfterTyped(0, h, 1, 0, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.step()
	}
}

// tickHandler reschedules itself forever, exercising the typed hot path.
type tickHandler struct {
	s *Scheduler
	n int
}

func (h *tickHandler) OnSimEvent(kind uint8, a uint64, p any) {
	h.n++
	h.s.AfterTyped(time.Microsecond, h, kind, a, nil)
}

func BenchmarkScheduleRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := NewScheduler()
		for j := 0; j < 100; j++ {
			s.After(time.Duration(j)*time.Microsecond, func() {})
		}
		if err := s.RunAll(1000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSelfScheduling(b *testing.B) {
	s := NewScheduler()
	var tick func()
	n := 0
	tick = func() {
		n++
		s.After(time.Microsecond, tick)
	}
	s.After(0, tick)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.step()
	}
	_ = n
}

func ExampleScheduler() {
	s := NewScheduler()
	s.After(2*time.Millisecond, func() { fmt.Println("second at", s.Now()) })
	s.After(1*time.Millisecond, func() { fmt.Println("first at", s.Now()) })
	s.Run(Time(time.Second))
	// Output:
	// first at 1ms
	// second at 2ms
}

// reschedHandler re-arms itself at a random distance, the shape of a
// protocol timer or a multicast leg.
type reschedHandler struct {
	s *Scheduler
	r *Rand
}

func (h *reschedHandler) OnSimEvent(kind uint8, a uint64, _ any) {
	h.s.AfterTyped(h.r.Duration(time.Microsecond, 10*time.Millisecond), h, kind, a, nil)
}

// BenchmarkQueue measures one event (a pop plus the push that replaces it)
// through a queue holding a fixed number of pending entries with delays
// spread over 10 ms: 40 is an n=5 cluster's population, 3400 an n=251
// cluster's timers plus one entry per in-flight broadcast, 100000 the same
// cluster with one entry per in-flight multicast leg.
func BenchmarkQueue(b *testing.B) {
	for _, pending := range []int{40, 3400, 100_000} {
		b.Run(fmt.Sprintf("pending=%d", pending), func(b *testing.B) {
			s := NewScheduler()
			h := &reschedHandler{s: s, r: NewRand(1)}
			for i := range pending {
				s.AfterTyped(h.r.Duration(0, 10*time.Millisecond), h, 1, uint64(i), nil)
			}
			for range 2 * pending { // settle into the steady-state spread
				s.step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				s.step()
			}
		})
	}
}
