package tcpnet

import (
	"net"
	"os"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/netwire"
	"repro/internal/proc"
	"repro/internal/wire"
)

// ticker broadcasts a Heartbeat to every member (itself included) each
// period and records everything it hears. Reads of got/last must run under
// the cluster's Inspect lock.
type ticker struct {
	env    proc.Env
	period time.Duration
	seq    int64
	got    map[proc.ID]int
	last   map[proc.ID]int64
}

func newTicker(period time.Duration) *ticker {
	return &ticker{period: period, got: make(map[proc.ID]int), last: make(map[proc.ID]int64)}
}

func (t *ticker) Start(env proc.Env) {
	t.env = env
	t.tick()
}

func (t *ticker) tick() {
	t.seq++
	proc.BroadcastAll(t.env, &wire.Heartbeat{Seq: t.seq})
	t.env.SetTimer(0, t.period)
}

func (t *ticker) OnTimer(proc.TimerKey) { t.tick() }

func (t *ticker) OnMessage(from proc.ID, msg any) {
	hb, ok := msg.(*wire.Heartbeat)
	if !ok {
		return
	}
	t.got[from]++
	t.last[from] = hb.Seq
}

// startLocal boots an all-local n-member cluster on loopback :0 ports.
func startLocal(t *testing.T, n int, policy proc.LinkFault) (*Cluster, []*ticker) {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = "127.0.0.1:0"
	}
	c, err := New(Config{N: n, Addrs: addrs, Policy: policy})
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*ticker, n)
	for i := range nodes {
		nodes[i] = newTicker(5 * time.Millisecond)
		c.Register(i, nodes[i])
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	return c, nodes
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestAllPairsDelivery: every member hears every member — peers over real
// sockets, itself over the loopback queue — and the byte accounting matches
// the framed size exactly.
func TestAllPairsDelivery(t *testing.T) {
	const n = 3
	c, nodes := startLocal(t, n, nil)
	waitFor(t, 5*time.Second, "all-pairs delivery", func() bool {
		for to := 0; to < n; to++ {
			ok := true
			c.Inspect(to, func() {
				for from := 0; from < n; from++ {
					if nodes[to].got[from] < 3 {
						ok = false
					}
				}
			})
			if !ok {
				return false
			}
		}
		return true
	})
	st := c.Stats()
	if st.Sent == 0 || st.Delivered == 0 {
		t.Fatalf("stats not tapped: %+v", st)
	}
	hbSize := uint64((&wire.Heartbeat{}).Size() + netwire.FrameOverhead)
	if st.BytesKind[wire.KindHeartbeat] != hbSize*st.ByKind[wire.KindHeartbeat] {
		t.Fatalf("per-kind bytes %d != %d frames x %d framed bytes",
			st.BytesKind[wire.KindHeartbeat], st.ByKind[wire.KindHeartbeat], hbSize)
	}
}

// TestLossDropsAndCounts: a fully lossy policy stops delivery between
// distinct members and every refusal is counted.
func TestLossDropsAndCounts(t *testing.T) {
	f := chaos.NewFaults(2, 1)
	f.SetLoss(1)
	c, nodes := startLocal(t, 2, f)
	waitFor(t, 5*time.Second, "drops under full loss", func() bool {
		return c.Stats().Dropped > 10
	})
	c.Inspect(1, func() {
		if nodes[1].got[0] != 0 {
			t.Errorf("member 1 heard member 0 %d times through a fully lossy link", nodes[1].got[0])
		}
	})
	st := c.Stats()
	if st.Delivered+st.Dropped > st.Sent {
		t.Fatalf("Delivered %d + Dropped %d > Sent %d", st.Delivered, st.Dropped, st.Sent)
	}
}

// TestOneWayCutAndHeal: cutting 0->1 silences exactly that direction; the
// reverse keeps flowing; healing restores it.
func TestOneWayCutAndHeal(t *testing.T) {
	f := chaos.NewFaults(2, 2)
	f.Cut(0, 1)
	c, nodes := startLocal(t, 2, f)

	// 1 -> 0 flows while 0 -> 1 is cut.
	waitFor(t, 5*time.Second, "reverse direction", func() bool {
		var ok bool
		c.Inspect(0, func() { ok = nodes[0].got[1] >= 3 })
		return ok
	})
	c.Inspect(1, func() {
		if nodes[1].got[0] != 0 {
			t.Errorf("member 1 heard member 0 %d times across a cut link", nodes[1].got[0])
		}
	})

	f.HealLink(0, 1)
	waitFor(t, 5*time.Second, "healed direction", func() bool {
		var ok bool
		c.Inspect(1, func() { ok = nodes[1].got[0] >= 3 })
		return ok
	})
}

// TestJitterDelays: a [lo, hi] jitter window still delivers (just later).
func TestJitterDelays(t *testing.T) {
	f := chaos.NewFaults(2, 3)
	f.SetJitter(time.Millisecond, 5*time.Millisecond)
	c, nodes := startLocal(t, 2, f)
	waitFor(t, 5*time.Second, "jittered delivery", func() bool {
		var ok bool
		c.Inspect(1, func() { ok = nodes[1].got[0] >= 3 })
		return ok
	})
	_ = c
}

// TestCrashRestart: a crashed member stops receiving (arrivals are counted
// dropped) and sending; a restarted incarnation hears its peers again over
// the connections that never went away.
func TestCrashRestart(t *testing.T) {
	c, nodes := startLocal(t, 2, nil)
	waitFor(t, 5*time.Second, "warmup", func() bool {
		var ok bool
		c.Inspect(1, func() { ok = nodes[1].got[0] >= 1 })
		return ok
	})

	c.Process(1).Crash()
	if !c.Process(1).Crashed() {
		t.Fatal("Crashed(1) false after Crash")
	}
	dropped := c.Stats().Dropped
	waitFor(t, 5*time.Second, "arrival drops at crashed member", func() bool {
		return c.Stats().Dropped > dropped
	})
	var heardWhileDown int
	c.Inspect(0, func() { heardWhileDown = nodes[0].got[1] })
	time.Sleep(30 * time.Millisecond)
	c.Inspect(0, func() {
		// A few frames sent before the crash may still be in flight, but
		// the crashed member must not keep ticking.
		if nodes[0].got[1] > heardWhileDown+2 {
			t.Errorf("crashed member kept sending: %d -> %d", heardWhileDown, nodes[0].got[1])
		}
	})

	fresh := newTicker(5 * time.Millisecond)
	if !c.Process(1).Restart(func() proc.Node { return fresh }) {
		t.Fatal("Restart reported no swap")
	}
	if c.Process(1).Crashed() {
		t.Fatal("Crashed(1) true after Restart")
	}
	nodes[1] = fresh
	waitFor(t, 5*time.Second, "fresh incarnation hears peers", func() bool {
		var ok bool
		c.Inspect(1, func() { ok = fresh.got[0] >= 3 })
		return ok
	})
	// Restarting a live member is a no-op.
	if c.Process(1).Restart(func() proc.Node { return newTicker(time.Hour) }) {
		t.Fatal("Restart swapped a live member")
	}
}

// TestMultiProcessStyle: two Cluster values host disjoint member subsets of
// one topology — the in-process stand-in for two OS processes. Member 1's
// side starts late, so member 0's link must retry dialing until the
// listener exists.
func TestMultiProcessStyle(t *testing.T) {
	addrs := freePorts(t, 2)

	mk := func(local proc.ID) (*Cluster, *ticker) {
		c, err := New(Config{N: 2, Addrs: addrs, Local: []proc.ID{local}})
		if err != nil {
			t.Fatal(err)
		}
		node := newTicker(5 * time.Millisecond)
		c.Register(local, node)
		return c, node
	}

	c0, _ := mk(0)
	if err := c0.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c0.Stop)
	if !c0.IsLocal(0) || c0.IsLocal(1) {
		t.Fatal("IsLocal wrong")
	}

	time.Sleep(50 * time.Millisecond) // let dials fail a few times first
	c1, n1 := mk(1)
	if err := c1.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c1.Stop)

	waitFor(t, 10*time.Second, "cross-cluster delivery", func() bool {
		var ok bool
		c1.Inspect(1, func() { ok = n1.got[0] >= 3 })
		return ok
	})
}

// TestConfigErrors: the constructor rejects malformed topologies.
func TestConfigErrors(t *testing.T) {
	cases := map[string]Config{
		"zero N":      {N: 0},
		"addr count":  {N: 2, Addrs: []string{"127.0.0.1:0"}},
		"bad addr":    {N: 1, Addrs: []string{"nonsense"}},
		"remote :0":   {N: 2, Addrs: []string{"127.0.0.1:0", "127.0.0.1:0"}, Local: []proc.ID{0}},
		"local range": {N: 2, Addrs: []string{"127.0.0.1:0", "127.0.0.1:1"}, Local: []proc.ID{2}},
		"local dup":   {N: 2, Addrs: []string{"127.0.0.1:0", "127.0.0.1:1"}, Local: []proc.ID{0, 0}},
		"local empty": {N: 2, Addrs: []string{"127.0.0.1:0", "127.0.0.1:1"}, Local: []proc.ID{}},
	}
	for name, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: New accepted %+v", name, cfg)
		}
	}
}

// TestStrangerRejected: a connection that does not open with a valid hello
// is cut before any protocol frame is decoded.
func TestStrangerRejected(t *testing.T) {
	c, nodes := startLocal(t, 1, nil)
	conn, err := net.Dial("tcp", c.Addr(0))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A protocol frame instead of a hello: the member must hear nothing
	// from the fake peer id it never named.
	frame, _ := netwire.AppendFrame(nil, &wire.Heartbeat{Seq: 99})
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("connection stayed open after a bad hello")
	}
	c.Inspect(0, func() {
		if nodes[0].last[0] == 99 {
			t.Error("frame from a stranger was delivered")
		}
	})
}

// TestOversizedVectorCutsConnection: a reader caps every vector at the
// cluster size it checked in the hello, so a 25-byte width-0 ALIVE that
// claims 65 535 entries kills the connection instead of sizing a payload.
func TestOversizedVectorCutsConnection(t *testing.T) {
	// Quiet members: each sends one heartbeat at start, so the fake peer's
	// -7 is the last one member 0 hears from id 1 once it has arrived.
	c, err := New(Config{N: 2, Addrs: []string{"127.0.0.1:0", "127.0.0.1:0"}})
	if err != nil {
		t.Fatal(err)
	}
	nodes := []*ticker{newTicker(time.Hour), newTicker(time.Hour)}
	for i, n := range nodes {
		c.Register(i, n)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	waitFor(t, 5*time.Second, "member 1's first heartbeat", func() (ok bool) {
		c.Inspect(0, func() { ok = nodes[0].got[1] == 1 })
		return ok
	})
	conn, err := net.Dial("tcp", c.Addr(0))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	frame := netwire.AppendHello(nil, 1, 2)
	frame, _ = netwire.AppendFrame(frame, &wire.Heartbeat{Seq: -7})
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "the fake peer's heartbeat", func() (ok bool) {
		c.Inspect(0, func() { ok = nodes[0].last[1] == -7 })
		return ok
	})
	frame, err = netwire.AppendFrame(nil, &wire.Alive{RN: 1, SuspLevel: make([]int64, 0xFFFF)})
	if err != nil || len(frame) != 25 {
		t.Fatalf("width-0 frame: %d bytes, %v", len(frame), err)
	}
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(buf); err == nil || os.IsTimeout(err) {
		t.Fatalf("connection stayed open after an oversized vector: %v", err)
	}
}

// freePorts reserves n distinct loopback ports by binding and releasing
// them. Racy in principle, fine for loopback tests in practice.
func freePorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	return addrs
}
