package runtime

import (
	"testing"
	"time"

	"repro/internal/proc"
	"repro/internal/wire"
)

// TestMulticastDelivers: one Multicast reaches exactly the destination set,
// and the link tap counts one transmission per member.
func TestMulticastDelivers(t *testing.T) {
	c, err := New(Config{N: 4})
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*pingNode, 4)
	for i := range nodes {
		nodes[i] = &pingNode{}
		c.Register(i, nodes[i])
	}
	c.Start()
	defer c.Stop()

	nodes[0].mu.Lock()
	env := nodes[0].env
	nodes[0].mu.Unlock()
	env.Multicast(proc.OthersSet(4, 0), &wire.Heartbeat{Seq: 1})

	for _, id := range []int{1, 2, 3} {
		node := nodes[id]
		if !waitFor(t, time.Second, func() bool { n, _ := node.counts(); return n == 1 }) {
			t.Fatalf("process %d did not receive the multicast", id)
		}
	}
	if n, _ := nodes[0].counts(); n != 0 {
		t.Fatal("multicast delivered to an excluded destination")
	}
	st := c.Stats()
	if st.Sent != 3 || st.Delivered != 3 || st.Dropped != 0 {
		t.Fatalf("stats = %+v, want Sent 3 Delivered 3", st)
	}
	if st.ByKind[wire.KindHeartbeat] != 3 || st.Bytes == 0 {
		t.Fatalf("per-kind tap wrong: %+v", st)
	}
}

// TestRestartBringsFreshIncarnation: crash-then-Restart revives the process
// synchronously with a new node; messages addressed to the downtime are
// dropped (and counted), messages after the restart reach the new node.
func TestRestartBringsFreshIncarnation(t *testing.T) {
	c, err := New(Config{N: 2})
	if err != nil {
		t.Fatal(err)
	}
	a, b1 := &pingNode{}, &pingNode{}
	c.Register(0, a)
	c.Register(1, b1)
	c.Start()
	defer c.Stop()

	a.mu.Lock()
	env := a.env
	a.mu.Unlock()

	c.Process(1).Crash()
	if !c.Process(1).Crashed() {
		t.Fatal("Crash not synchronous")
	}
	if c.Process(0).Restart(func() proc.Node { return &pingNode{} }) {
		t.Fatal("Restart revived a process that was not down")
	}
	env.Send(1, "lost") // addressed to a crashed process: dropped at arrival
	if !waitFor(t, time.Second, func() bool { return c.Stats().Dropped >= 1 }) {
		t.Fatalf("downtime message not counted dropped: %+v", c.Stats())
	}

	b2 := &pingNode{}
	if !c.Process(1).Restart(func() proc.Node { return b2 }) {
		t.Fatal("Restart refused a crashed process")
	}
	if c.Process(1).Crashed() {
		t.Fatal("Restart not synchronous")
	}
	b2.mu.Lock()
	started := b2.env != nil
	b2.mu.Unlock()
	if !started {
		t.Fatal("new incarnation not started")
	}
	env.Send(1, "fresh")
	if !waitFor(t, time.Second, func() bool { n, _ := b2.counts(); return n == 1 }) {
		t.Fatal("new incarnation receives nothing")
	}
	if n, _ := b1.counts(); n != 0 {
		t.Fatal("old incarnation leaked a delivery")
	}
}
