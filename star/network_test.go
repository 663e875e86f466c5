package star_test

import (
	"net"
	"testing"
	"time"

	"repro/star"
)

// freeLoopbackAddrs reserves n distinct loopback ports by binding and
// releasing them; multi-process-style topologies need explicit ports
// (a remote member's address must be dialable before it binds).
func freeLoopbackAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = l.Addr().String()
		defer l.Close()
	}
	return addrs
}

// loopbackAddrs returns n kernel-assigned listen addresses on loopback.
func loopbackAddrs(n int) []string {
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = "127.0.0.1:0"
	}
	return addrs
}

// pollAgreement advances the cluster in slices until every hosted member
// names the same live leader, or the deadline passes. Real sockets mean
// real (wall-clock) convergence time, so network tests poll rather than
// assume a fixed run length suffices.
func pollAgreement(t *testing.T, c *star.Cluster, within time.Duration) int {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		if err := c.Run(200 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		if leader, ok := c.Agreement(); ok {
			return leader
		}
		if time.Now().After(deadline) {
			t.Fatalf("no agreement within %v: leaders %v", within, c.Leaders())
			return star.None
		}
	}
}

// TestNetworkLoopbackSoak drives a five-member cluster over real TCP
// sockets on loopback: elect a leader, keep electing under 30% frame
// loss, survive a healed one-way partition, and end with transport
// counters that satisfy the link-tap invariants. The ALIVE/SUSPICION
// protocols are loss-tolerant by periodicity, so injected loss must not
// prevent (re-)election — only delay it. The faults are the cluster's own
// chaos link state (an empty WithChaos schedule), turned by hand because
// the cut's source is the leader the run elects.
func TestNetworkLoopbackSoak(t *testing.T) {
	c, err := star.New(
		star.N(5), star.Seed(7),
		star.Network(loopbackAddrs(5)),
		star.WithChaos(star.NewChaosSchedule()),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	faults := c.LinkFaults()

	leader := pollAgreement(t, c, 30*time.Second)

	// Phase 2: 30% independent per-frame loss on every link. Suspicion
	// levels may shuffle the estimate transiently; the cluster must still
	// reach (and hold) agreement while the loss persists.
	faults.SetLoss(0.3)
	if err := c.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	pollAgreement(t, c, 30*time.Second)

	// Phase 3: a one-way cut (asymmetric partition) from the leader to a
	// peer, on top of the loss. Heal it and drop the loss; the cluster
	// must converge again.
	victim := (leader + 1) % c.N()
	faults.Cut(leader, victim)
	if err := c.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	faults.HealLink(leader, victim)
	faults.SetLoss(0)
	pollAgreement(t, c, 30*time.Second)

	// The report's Net block comes straight from the transport's link
	// taps; its invariants must hold at any snapshot instant.
	net := c.Report().Net
	if net.Sent == 0 || net.Delivered == 0 {
		t.Fatalf("no traffic counted: %+v", net)
	}
	if net.Dropped == 0 {
		t.Fatal("loss injected but no frames counted dropped")
	}
	if net.Delivered+net.Dropped > net.Sent {
		t.Fatalf("delivered %d + dropped %d > sent %d", net.Delivered, net.Dropped, net.Sent)
	}
	var kindCount, kindBytes uint64
	for _, ks := range net.PerKind {
		kindCount += ks.Count
		kindBytes += ks.Bytes
	}
	if kindCount != net.Sent {
		t.Fatalf("per-kind counts sum to %d, Sent is %d", kindCount, net.Sent)
	}
	if kindBytes != net.Bytes {
		t.Fatalf("per-kind bytes sum to %d, Bytes is %d", kindBytes, net.Bytes)
	}
}

// TestNetworkCrashReelection: crashing the elected leader of a TCP
// cluster forces a re-election among the survivors, and the crashed
// member reads None ever after.
func TestNetworkCrashReelection(t *testing.T) {
	c, err := star.New(star.N(4), star.Seed(3), star.Network(loopbackAddrs(4)))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	leader := pollAgreement(t, c, 30*time.Second)
	if err := c.Crash(leader); err != nil {
		t.Fatal(err)
	}
	next := pollAgreement(t, c, 30*time.Second)
	if next == leader {
		t.Fatalf("crashed process %d still elected", leader)
	}
	if c.Leader(leader) != star.None {
		t.Fatal("crashed member reports a leader estimate")
	}
}

// TestNetworkPartialTopology: two clusters in one test process share a
// topology, each hosting a disjoint subset — the same shape cmd/starnet
// uses across OS processes. Each side must see its hosted members agree,
// and remote members must read as None without panicking any accessor.
func TestNetworkPartialTopology(t *testing.T) {
	// Hosted members listen on :0 only when the peers can still find
	// them, so this topology needs pre-picked explicit ports.
	addrs := freeLoopbackAddrs(t, 4)

	a, err := star.New(star.N(4), star.Seed(5),
		star.Network(addrs, star.HostMembers(0, 1)))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := star.New(star.N(4), star.Seed(5),
		star.Network(addrs, star.HostMembers(2, 3)))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	// Each half agrees internally before the cluster has converged, and the
	// two can name different leaders for a while: poll until both report the
	// same agreed leader in the same sample.
	deadline := time.Now().Add(30 * time.Second)
	for {
		la := pollAgreement(t, a, time.Until(deadline))
		lb, ok := b.Agreement()
		if ok && la == lb {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("halves disagree after 30s: %v vs %v", a.Leaders(), b.Leaders())
		}
	}
	// Remote members: every accessor answers None/zero instead of
	// panicking, and Crash refuses.
	if got := a.Leader(3); got != star.None {
		t.Fatalf("remote member leader = %d, want None", got)
	}
	if err := a.Crash(3); err == nil {
		t.Fatal("Crash(remote) accepted")
	}
	rep := a.Report()
	if rep.LeaderAtEnd[2] != star.None || rep.LeaderAtEnd[3] != star.None {
		t.Fatalf("remote members in LeaderAtEnd: %v", rep.LeaderAtEnd)
	}
}
