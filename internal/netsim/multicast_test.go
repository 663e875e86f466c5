package netsim

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/bitset"
	"repro/internal/host"
	"repro/internal/proc"
	"repro/internal/sim"
	"repro/internal/wire"
)

// randomDelay draws a fresh uniform delay per call, so any divergence in
// draw ORDER between two runs shows up as diverging delivery times.
func randomDelay(lo, hi time.Duration) DelayPolicy {
	return DelayFunc(func(ev *Envelope, r *sim.Rand) time.Duration {
		return r.Duration(lo, hi)
	})
}

// trace flattens a network's delivery history via OnDeliver.
type traceEntry struct {
	seq      uint64
	from, to proc.ID
	at       sim.Time
}

// TestMulticastMatchesUnicastLoop is the equivalence contract, checked
// directly at the netsim layer: Multicast(dests, msg) must be
// indistinguishable — delivery times, global delivery order, per-message
// seqs, stats — from one Send per member in ascending id order, under the
// same seed. This is what keeps the determinism suite seed-stable across
// the multicast rewrite.
//
// The faults case refuses a different set of links in each round (the
// first destination, two in the middle, all but the last two, all of them,
// the last, none) and adds a per-link delay. Delays are whole milliseconds
// there, and another process sends unicasts to the same destinations right
// after each fan-out, so legs tie with each other and with unrelated events:
// a refused leg leaves a gap in the carrier's reserved seqs, and the gap
// must not reorder anything.
func TestMulticastMatchesUnicastLoop(t *testing.T) {
	const n = 7
	refused := [][]proc.ID{{1}, {3, 4}, {1, 2, 3, 4}, {1, 2, 3, 4, 5, 6}, {6}, nil}
	run := func(multicast, faults bool) ([]traceEntry, host.Stats) {
		policy := randomDelay(time.Millisecond, 20*time.Millisecond)
		if faults {
			policy = DelayFunc(func(ev *Envelope, r *sim.Rand) time.Duration {
				return time.Duration(1+r.Intn(4)) * time.Millisecond
			})
		}
		sched := sim.NewScheduler()
		net, err := New(sched, Config{N: n, Seed: 42, Policy: policy})
		if err != nil {
			t.Fatal(err)
		}
		fault := &scriptedFault{}
		if faults {
			net.SetLinkFault(fault)
		}
		nodes := make([]*echoNode, n)
		for i := range nodes {
			nodes[i] = &echoNode{}
			net.Register(i, nodes[i])
		}
		var trace []traceEntry
		net.OnDeliver = func(ev *Envelope) {
			trace = append(trace, traceEntry{ev.Seq, ev.From, ev.To, sched.Now()})
		}
		net.StartAll()
		sched.RunFor(time.Millisecond)

		dests := bitset.New(n)
		dests.Fill()
		dests.Remove(0) // a Broadcast-shaped set
		rounds := 5
		if faults {
			rounds = len(refused)
		}
		for round := 0; round < rounds; round++ {
			if faults {
				fault.refused = refused[round]
			}
			hb := &wire.Heartbeat{Seq: int64(round)}
			if multicast {
				nodes[0].env.Multicast(dests, hb)
			} else {
				for j := 0; j < n; j++ {
					if dests.Contains(j) {
						nodes[0].env.Send(j, hb)
					}
				}
			}
			if faults {
				for j := 2; j < n; j++ {
					nodes[1].env.Send(j, &wire.Heartbeat{Seq: int64(100 + round)})
				}
			}
			// Overlap the fan-outs: delays exceed the inter-round gap.
			sched.RunFor(2 * time.Millisecond)
		}
		sched.RunFor(time.Second)
		return trace, net.Stats()
	}

	for _, tc := range []struct {
		name   string
		faults bool
	}{{"plain", false}, {"faults", true}} {
		t.Run(tc.name, func(t *testing.T) {
			uniTrace, uniStats := run(false, tc.faults)
			mcTrace, mcStats := run(true, tc.faults)
			if tc.faults && uniStats.Dropped != 14 {
				t.Fatalf("faults refused %d sends, want 14", uniStats.Dropped)
			}
			if uniStats != mcStats {
				t.Fatalf("stats diverge:\n unicast:   %+v\n multicast: %+v", uniStats, mcStats)
			}
			if len(uniTrace) != len(mcTrace) {
				t.Fatalf("delivery counts diverge: %d vs %d", len(uniTrace), len(mcTrace))
			}
			for i := range uniTrace {
				if uniTrace[i] != mcTrace[i] {
					t.Fatalf("delivery %d diverges:\n unicast:   %+v\n multicast: %+v",
						i, uniTrace[i], mcTrace[i])
				}
			}
		})
	}
}

// scriptedFault refuses process 0's sends to the destinations in refused
// and delays every admitted send to process to by to mod 3 ms.
type scriptedFault struct{ refused []proc.ID }

func (f *scriptedFault) Admit(from, to proc.ID) bool {
	return from != 0 || !slices.Contains(f.refused, to)
}

func (f *scriptedFault) Delay(from, to proc.ID) time.Duration {
	return time.Duration(to%3) * time.Millisecond
}

// TestMulticastDropAndPrestart: per-destination crash drops and pre-start
// buffering behave per leg, exactly like unicast envelopes.
func TestMulticastDropAndPrestart(t *testing.T) {
	sched := sim.NewScheduler()
	net, err := New(sched, Config{N: 4, Seed: 3, Policy: constDelay(5 * time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*echoNode, 4)
	for i := range nodes {
		nodes[i] = &echoNode{}
		net.Register(i, nodes[i])
	}
	net.StartAt(0, 0)
	net.StartAt(1, 0)
	net.StartAt(2, 0)
	net.StartAt(3, sim.Time(20*time.Millisecond)) // starts after delivery
	net.CrashAt(2, sim.Time(2*time.Millisecond))  // down before delivery
	sched.RunFor(time.Millisecond)

	dests := bitset.New(4)
	dests.Fill()
	dests.Remove(0)
	nodes[0].env.Multicast(dests, &wire.Heartbeat{Seq: 9})
	sched.RunFor(time.Second)

	if len(nodes[1].received) != 1 {
		t.Errorf("live receiver got %d messages", len(nodes[1].received))
	}
	if len(nodes[2].received) != 0 {
		t.Errorf("crashed receiver got %d messages", len(nodes[2].received))
	}
	if len(nodes[3].received) != 1 {
		t.Errorf("late-starting receiver got %d messages (pre-start buffering broken)", len(nodes[3].received))
	}
	st := net.Stats()
	if st.Sent != 3 || st.Delivered != 2 || st.Dropped != 1 {
		t.Errorf("stats = %+v, want Sent 3 Delivered 2 Dropped 1", st)
	}
}

// TestMulticastRecyclesPayloadAtLastDelivery: the pooled payload must come
// home exactly when the final leg is consumed, not before.
func TestMulticastRecyclesPayloadAtLastDelivery(t *testing.T) {
	sched := sim.NewScheduler()
	// Distinct constant delays per destination would need a policy; use
	// the seeded random one so legs complete at different instants.
	net, err := New(sched, Config{N: 5, Seed: 8, Policy: randomDelay(time.Millisecond, 10*time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*echoNode, 5)
	for i := range nodes {
		nodes[i] = &echoNode{}
		net.Register(i, nodes[i])
	}
	net.StartAll()
	sched.RunFor(time.Millisecond)

	var pool wire.HeartbeatPool
	hb := pool.Get()
	hb.Seq = 77
	deliveries := 0
	net.OnDeliver = func(ev *Envelope) {
		deliveries++
		if deliveries < 4 {
			// Not all legs consumed: the payload must not be free.
			if got := pool.Get(); got == hb {
				t.Fatalf("payload recycled after %d of 4 deliveries", deliveries)
			}
		}
	}
	nodes[0].env.Multicast(proc.OthersSet(5, 0), hb)
	sched.RunFor(time.Second)
	if deliveries != 4 {
		t.Fatalf("deliveries = %d, want 4", deliveries)
	}
	if got := pool.Get(); got != hb {
		t.Fatal("payload not recycled after the last delivery")
	}
}

// nullNode discards everything (benchmark receiver).
type nullNode struct{ env proc.Env }

func (s *nullNode) Start(env proc.Env)     { s.env = env }
func (s *nullNode) OnMessage(proc.ID, any) {}
func (s *nullNode) OnTimer(proc.TimerKey)  {}

// BenchmarkBroadcastFanout pins the O(n)->O(1) envelope claim: each op
// builds a fresh network and performs 32 overlapping n-wide broadcasts
// (delays up to 10x the broadcast gap), so allocs/op is dominated by how
// much in-flight state a fan-out keeps — n envelopes + n scheduler slots
// per broadcast as unicast sends, 1 carrier + 1 scheduler slot as a
// multicast, whose n queue entries share chunks recycled across broadcasts.
func BenchmarkBroadcastFanout(b *testing.B) {
	for _, n := range []int{13, 101} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sched := sim.NewScheduler()
				net, err := New(sched, Config{N: n, Seed: uint64(i + 1), Policy: randomDelay(time.Millisecond, 10*time.Millisecond)})
				if err != nil {
					b.Fatal(err)
				}
				nodes := make([]*nullNode, n)
				for p := range nodes {
					nodes[p] = &nullNode{}
					net.Register(p, nodes[p])
				}
				net.StartAll()
				sched.RunFor(time.Microsecond)
				var pool wire.HeartbeatPool
				for k := 0; k < 32; k++ {
					hb := pool.Get()
					hb.Seq = int64(k)
					proc.BroadcastAll(nodes[0].env, hb)
					sched.RunFor(time.Millisecond)
				}
				sched.RunFor(100 * time.Millisecond)
			}
		})
	}
}
