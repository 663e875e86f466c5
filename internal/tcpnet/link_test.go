package tcpnet

import (
	"sync/atomic"
	"testing"
	"time"
)

// queueLink returns link 0->1 of an unstarted two-member cluster: no writer
// goroutine runs, so the test is the only consumer of the queue.
func queueLink(t *testing.T) (*Cluster, *link) {
	t.Helper()
	c, err := New(Config{N: 2, Addrs: []string{"127.0.0.1:0", "127.0.0.1:0"}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	l := newLink(c, 0, 1)
	c.links[0] = []*link{nil, l}
	return c, l
}

// take pops one frame the way the writer does, in-flight mark included.
func take(t *testing.T, l *link) *buffer {
	t.Helper()
	b, ok := l.pop()
	if !ok {
		t.Fatal("pop on an open link reported closed")
	}
	l.inflight.Store(0)
	return b
}

// TestLinkQueueSteadyStateAllocs: a link whose writer keeps up reuses one
// backing array, whether the queue drains between bursts or always holds a
// frame.
func TestLinkQueueSteadyStateAllocs(t *testing.T) {
	_, l := queueLink(t)
	b := &buffer{refs: 1}
	burst := func() {
		for i := 0; i < 3; i++ {
			l.enqueue(b)
		}
		for i := 0; i < 3; i++ {
			take(t, l)
		}
	}
	burst()
	if allocs := testing.AllocsPerRun(1000, burst); allocs != 0 {
		t.Errorf("enqueue/pop on a draining queue allocates %.1f objects per burst", allocs)
	}
	l.enqueue(b) // from here the queue never drains: head walks the array
	burst()
	if allocs := testing.AllocsPerRun(1000, burst); allocs != 0 {
		t.Errorf("enqueue/pop on a never-empty queue allocates %.1f objects per burst", allocs)
	}
}

// TestLinkQueueHalfConsumedIsBusy: frames behind the head still count as
// pending for Drain.
func TestLinkQueueHalfConsumedIsBusy(t *testing.T) {
	c, l := queueLink(t)
	l.enqueue(&buffer{refs: 1})
	l.enqueue(&buffer{refs: 1})
	take(t, l)
	if c.linksIdle() || c.Drain(10*time.Millisecond) {
		t.Fatal("a link with one of two frames consumed reads as idle")
	}
	take(t, l)
	if !c.Drain(10 * time.Millisecond) {
		t.Fatal("a fully consumed link reads as busy")
	}
}

// TestLinkQueueFullDropsOldest: beyond queueCap live frames the oldest is
// released and counted, also when a consumed prefix sits before it; close
// releases exactly the frames still queued.
func TestLinkQueueFullDropsOldest(t *testing.T) {
	c, l := queueLink(t)
	frames := make([]*buffer, queueCap+2)
	for i := range frames {
		frames[i] = &buffer{refs: 1}
	}
	for _, b := range frames[:queueCap] {
		l.enqueue(b)
	}
	if got := take(t, l); got != frames[0] {
		t.Fatal("pop did not return the oldest frame")
	}
	l.enqueue(frames[queueCap]) // refills the popped slot
	if d := c.Stats().Dropped; d != 0 {
		t.Fatalf("dropped %d frames below the cap", d)
	}
	l.enqueue(frames[queueCap+1]) // over the cap: frames[1] goes
	if d := c.Stats().Dropped; d != 1 {
		t.Fatalf("dropped %d frames, want 1", d)
	}
	if refs := atomic.LoadInt32(&frames[1].refs); refs != 0 {
		t.Fatalf("evicted frame still holds %d references", refs)
	}
	for i := 2; i < 5; i++ {
		if got := take(t, l); got != frames[i] {
			t.Fatalf("pop %d after the eviction is out of order", i)
		}
	}
	l.close()
	for i, b := range frames {
		want := int32(0) // evicted, or released by close
		if i == 0 || (i >= 2 && i < 5) {
			want = 1 // popped: the consumer's to release
		}
		if refs := atomic.LoadInt32(&b.refs); refs != want {
			t.Fatalf("frame %d holds %d references after close, want %d", i, refs, want)
		}
	}
}
