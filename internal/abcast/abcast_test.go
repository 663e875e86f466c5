package abcast

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/proc"
	"repro/internal/scenario"
	"repro/internal/sim"
)

func TestKeyRoundTrip(t *testing.T) {
	cases := []struct {
		sender  proc.ID
		localID int64
	}{
		{0, 0}, {0, 1}, {4, 99}, {31, 1<<48 - 1}, {7, 123456789},
	}
	for _, c := range cases {
		s, l := splitKey(key(c.sender, c.localID))
		if s != c.sender || l != c.localID {
			t.Errorf("key round trip (%d,%d) -> (%d,%d)", c.sender, c.localID, s, l)
		}
	}
	// Keys must order by (sender, localID) consistently for determinism.
	if key(1, 5) >= key(2, 0) {
		t.Error("keys not ordered by sender")
	}
	if key(1, 5) >= key(1, 6) {
		t.Error("keys not ordered by local id")
	}
}

// system wires N processes each hosting omega + consensus + abcast.
type system struct {
	sched  *sim.Scheduler
	net    *netsim.Network
	omegas []*core.Node
	nodes  []*Node
}

// The system is the scenario adversary's view of itself: it observes
// crashes and rounds, but neither the leader (no chase) nor timeouts.
func (s *system) Crashed(q proc.ID) bool    { return s.net.Crashed(q) }
func (s *system) Round(q proc.ID) int64     { _, r := s.omegas[q].Rounds(); return r }
func (s *system) Leader() proc.ID           { return proc.None }
func (s *system) MaxTimeout() time.Duration { return 0 }

func (s *system) Down() int {
	down := 0
	for id := range s.omegas {
		if s.net.Crashed(id) {
			down++
		}
	}
	return down
}

func buildSystem(t *testing.T, sc *scenario.Scenario) *system {
	t.Helper()
	p := sc.Params
	sched := sim.NewScheduler()
	net, err := netsim.New(sched, netsim.Config{N: p.N, Seed: p.Seed, Policy: sc.Policy, Gate: sc.Gate})
	if err != nil {
		t.Fatal(err)
	}
	sys := &system{sched: sched, net: net,
		omegas: make([]*core.Node, p.N), nodes: make([]*Node, p.N)}
	for id := 0; id < p.N; id++ {
		omega, err := core.NewNode(id, core.Config{N: p.N, T: p.T, Variant: core.VariantFig3})
		if err != nil {
			t.Fatal(err)
		}
		ab, cons, err := NewPair(Config{N: p.N, T: p.T, Oracle: omega.Leader})
		if err != nil {
			t.Fatal(err)
		}
		mux := proc.NewMux()
		mux.AddLane(omega)
		mux.AddLane(cons)
		mux.AddLane(ab)
		sys.omegas[id] = omega
		sys.nodes[id] = ab
		net.Register(id, mux)
		net.StartAt(id, 0)
	}
	sc.Attach(sys)
	for _, c := range sc.Crashes {
		net.CrashAt(c.ID, c.At)
	}
	return sys
}

func TestTotalOrderNoFailures(t *testing.T) {
	sc, err := scenario.Combined(scenario.Params{N: 5, T: 2, Seed: 53})
	if err != nil {
		t.Fatal(err)
	}
	sys := buildSystem(t, sc)
	// Every process broadcasts 5 payloads at staggered times.
	for id := range sys.nodes {
		id := id
		for k := 0; k < 5; k++ {
			k := k
			sys.sched.After(time.Duration(1+k)*200*time.Millisecond, func() {
				sys.nodes[id].Broadcast(int64(id*100 + k))
			})
		}
	}
	sys.sched.RunFor(60 * time.Second)

	ref := sys.nodes[0].Log()
	if len(ref) != 25 {
		t.Fatalf("delivered %d messages, want 25", len(ref))
	}
	for id := 1; id < len(sys.nodes); id++ {
		log := sys.nodes[id].Log()
		if len(log) != len(ref) {
			t.Fatalf("process %d delivered %d, process 0 delivered %d", id, len(log), len(ref))
		}
		for i := range ref {
			if log[i].Sender != ref[i].Sender || log[i].Payload != ref[i].Payload {
				t.Fatalf("order mismatch at %d: %+v vs %+v", i, log[i], ref[i])
			}
		}
	}
	// Integrity: no duplicates.
	seen := map[int64]bool{}
	for _, d := range ref {
		k := key(d.Sender, 0) // sender alone is not unique; use payload
		_ = k
		pk := int64(d.Sender)<<32 | d.Payload
		if seen[pk] {
			t.Fatalf("duplicate delivery %+v", d)
		}
		seen[pk] = true
	}
}

func TestTotalOrderWithCrashes(t *testing.T) {
	sc, err := scenario.Intermittent(scenario.Params{
		N: 5, T: 2, Seed: 59, D: 3, Center: 1,
		Crashes: []scenario.Crash{{ID: 4, At: sim.Time(3 * time.Second)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	sys := buildSystem(t, sc)
	for id := range sys.nodes {
		id := id
		sys.sched.After(500*time.Millisecond, func() {
			sys.nodes[id].Broadcast(int64(1000 + id))
		})
		sys.sched.After(10*time.Second, func() {
			sys.nodes[id].Broadcast(int64(2000 + id))
		})
	}
	sys.sched.RunFor(90 * time.Second)

	// All correct processes must deliver identical sequences, which must
	// contain every message broadcast by a process that stayed correct.
	var ref []Delivery
	for id, node := range sys.nodes {
		if sys.net.Crashed(id) {
			continue
		}
		log := node.Log()
		if ref == nil {
			ref = log
			continue
		}
		if len(log) != len(ref) {
			t.Fatalf("process %d delivered %d, want %d", id, len(log), len(ref))
		}
		for i := range ref {
			if log[i] != ref[i] {
				t.Fatalf("order mismatch at %d: %+v vs %+v", i, log[i], ref[i])
			}
		}
	}
	want := map[int64]bool{}
	for id := 0; id < 5; id++ {
		if !sys.net.Crashed(id) {
			want[int64(1000+id)] = true
			want[int64(2000+id)] = true
		}
	}
	got := map[int64]bool{}
	for _, d := range ref {
		got[d.Payload] = true
	}
	for p := range want {
		if !got[p] {
			t.Errorf("payload %d from a correct process never delivered", p)
		}
	}
}

func TestDeliveryWaitsForContent(t *testing.T) {
	// A decision arriving before the content must not deliver early or
	// out of order. Drive the node directly.
	node := &Node{
		cfg:       Config{N: 3, T: 1, Oracle: func() proc.ID { return 0 }},
		contents:  make(map[int64]int64),
		sequenced: make(map[int64]bool),
		delivered: make(map[int64]bool),
		decisions: make(map[int64]int64),
	}
	var got []Delivery
	node.cfg.OnDeliver = func(d Delivery) { got = append(got, d) }

	k0, k1 := key(2, 1), key(1, 1)
	node.onDecide(0, k0)
	node.onDecide(1, k1)
	if len(got) != 0 {
		t.Fatal("delivered without content")
	}
	// Content for slot 1 arrives first: still nothing (slot 0 missing).
	node.contents[k1] = 11
	node.drain()
	if len(got) != 0 {
		t.Fatal("delivered out of order")
	}
	node.contents[k0] = 22
	node.drain()
	if len(got) != 2 || got[0].Payload != 22 || got[1].Payload != 11 {
		t.Fatalf("deliveries = %+v", got)
	}
}

func TestDuplicateSequencingSkipped(t *testing.T) {
	node := &Node{
		cfg:       Config{N: 3, T: 1, Oracle: func() proc.ID { return 0 }},
		contents:  make(map[int64]int64),
		sequenced: make(map[int64]bool),
		delivered: make(map[int64]bool),
		decisions: make(map[int64]int64),
	}
	var got []Delivery
	node.cfg.OnDeliver = func(d Delivery) { got = append(got, d) }
	k := key(0, 1)
	node.contents[k] = 5
	node.onDecide(0, k)
	node.onDecide(1, k) // duplicate sequencing
	k2 := key(1, 1)
	node.contents[k2] = 6
	node.onDecide(2, k2)
	if len(got) != 2 {
		t.Fatalf("deliveries = %+v", got)
	}
	if got[0].Payload != 5 || got[1].Payload != 6 {
		t.Fatalf("wrong payloads: %+v", got)
	}
	if got[1].Slot != 2 {
		t.Fatalf("slot 1 not skipped: %+v", got[1])
	}
}

func TestNewPairValidation(t *testing.T) {
	if _, _, err := NewPair(Config{N: 3, T: 1}); err == nil {
		t.Error("missing oracle accepted")
	}
	if _, _, err := NewPair(Config{N: 4, T: 2, Oracle: func() proc.ID { return 0 }}); err == nil {
		t.Error("t >= n/2 accepted")
	}
}
