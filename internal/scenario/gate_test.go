package scenario

import (
	"slices"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/proc"
	"repro/internal/wire"
)

// fakeProbes is a scripted adversary view: tests set each process's crash
// state and receiving round, and the chased leader, directly.
type fakeProbes struct {
	crashed []bool
	rounds  []int64
	leader  proc.ID
}

func newFakeProbes(n int) *fakeProbes {
	f := &fakeProbes{crashed: make([]bool, n), rounds: make([]int64, n), leader: proc.None}
	for q := range f.rounds {
		f.rounds[q] = -1
	}
	return f
}

func (f *fakeProbes) Crashed(q proc.ID) bool    { return f.crashed[q] }
func (f *fakeProbes) Round(q proc.ID) int64     { return f.rounds[q] }
func (f *fakeProbes) Leader() proc.ID           { return f.leader }
func (f *fakeProbes) MaxTimeout() time.Duration { return 0 }

func (f *fakeProbes) Down() int {
	down := 0
	for _, c := range f.crashed {
		if c {
			down++
		}
	}
	return down
}

// loseFixture builds an attached Intermittent scenario with n=5, t=2 (alpha
// 3, so a lose budget of 2 while nobody is down), center 0 and gap D=5:
// S = {1, 6, 11, ...}, so every center message of round 2..5 is ModeLose.
func loseFixture(t *testing.T) (*Scenario, *fakeProbes) {
	t.Helper()
	p := baseParams()
	p.D = 5
	sc, err := Intermittent(p)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Schedule.Mode(2, 1) != ModeLose {
		t.Fatal("want ModeLose for the center's round-2 message")
	}
	probes := newFakeProbes(p.N)
	sc.Attach(probes)
	return sc, probes
}

func alive(seq uint64, from, to proc.ID, rn int64) *netsim.Envelope {
	return &netsim.Envelope{Seq: seq, From: from, To: to, Payload: &wire.Alive{RN: rn}}
}

func TestGateLoseHoldsWhileRoundNotPassed(t *testing.T) {
	cases := []struct {
		name     string
		from     proc.ID
		rn       int64
		round    int64 // receiver 1's receiving round
		wantHeld bool
	}{
		{"center out of S, round equal", 0, 2, 2, true},
		{"center out of S, round behind", 0, 3, 1, true},
		{"center out of S, round passed", 0, 2, 3, false},
		{"center in S", 0, 6, 6, false},
		{"chased leader, round equal", 3, 6, 6, true},
		{"chased leader, round behind", 3, 7, 6, true},
		{"chased leader, round passed", 3, 5, 6, false},
		{"unchased sender", 4, 2, 2, false},
		{"center, round unknown", 0, 2, -1, false},
		{"chased leader, round unknown", 3, 6, -1, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc, probes := loseFixture(t)
			probes.leader = 3
			probes.rounds[1] = tc.round
			if held := !sc.Gate.OnArrival(alive(1, tc.from, 1, tc.rn), 0); held != tc.wantHeld {
				t.Fatalf("held = %v, want %v", held, tc.wantHeld)
			}
		})
	}
}

func TestGateLoseReleasesWhenRoundPasses(t *testing.T) {
	sc, probes := loseFixture(t)
	gate := sc.Gate
	probes.rounds[1], probes.rounds[2] = 2, 0
	held := alive(1, 0, 1, 2)
	if gate.OnArrival(held, 0) {
		t.Fatal("center's out-of-S message passed")
	}
	// Deliveries while the round has not passed, or to another receiver,
	// release nothing.
	if out := gate.OnDelivered(alive(2, 3, 1, 2), 0); len(out) != 0 {
		t.Fatalf("released %d before the round passed", len(out))
	}
	probes.rounds[1] = 3
	if out := gate.OnDelivered(alive(3, 4, 2, 2), 0); len(out) != 0 {
		t.Fatalf("a delivery to receiver 2 released %d", len(out))
	}
	out := gate.OnDelivered(alive(4, 3, 1, 3), 0)
	if len(out) != 1 || out[0] != held {
		t.Fatalf("first delivery after the round passed released %v, want the held message", out)
	}
	if out := gate.OnDelivered(alive(5, 3, 1, 3), 0); len(out) != 0 {
		t.Fatalf("released %d twice", len(out))
	}
}

func TestGateLoseBudgetCapsDistinctSenders(t *testing.T) {
	sc, probes := loseFixture(t)
	gate := sc.Gate
	probes.rounds[1] = 2
	probes.leader = 3
	if gate.OnArrival(alive(1, 0, 1, 2), 0) || gate.OnArrival(alive(2, 3, 1, 2), 0) {
		t.Fatal("the center and the chased leader must both be held")
	}
	// The chase moves on: the round already holds the budget's two
	// senders, so the new target's round-2 message passes.
	probes.leader = 4
	if !gate.OnArrival(alive(3, 4, 1, 2), 0) {
		t.Fatal("a third distinct sender was held past the budget")
	}
	// Another round has its own budget.
	probes.rounds[1] = 3
	if gate.OnArrival(alive(4, 4, 1, 3), 0) {
		t.Fatal("the new chase target was not held in a fresh round")
	}
	// With one process down the budget is 1: only rank 1 (the center)
	// may still be held.
	probes.crashed[2] = true
	if !gate.OnArrival(alive(5, 4, 1, 4), 0) {
		t.Fatal("rank 2 held with a budget of 1")
	}
	if gate.OnArrival(alive(6, 0, 1, 4), 0) {
		t.Fatal("rank 1 passed with a budget of 1")
	}
}

func TestGateLoseBudgetShrinkReleasesInReceiverOrder(t *testing.T) {
	sc, probes := loseFixture(t)
	gate := sc.Gate
	probes.leader = 3
	probes.rounds[1], probes.rounds[2], probes.rounds[4] = 2, 2, 0
	// Rank 2 (chased leader) holds to receivers 2 then 1, and a rank 1
	// (center) hold to receiver 1.
	for _, ev := range []*netsim.Envelope{alive(1, 3, 2, 2), alive(2, 3, 1, 2), alive(3, 0, 1, 2)} {
		if gate.OnArrival(ev, 0) {
			t.Fatalf("message %d passed", ev.Seq)
		}
	}
	if out := gate.OnDelivered(alive(4, 1, 4, 1), 0); len(out) != 0 {
		t.Fatalf("released %d with the budget unchanged", len(out))
	}
	probes.crashed[4] = true // budget 2 -> 1
	out := gate.OnDelivered(alive(5, 1, 2, 1), 0)
	var seqs []uint64
	for _, ev := range out {
		seqs = append(seqs, ev.Seq)
	}
	if want := []uint64{2, 1}; !slices.Equal(seqs, want) {
		t.Fatalf("released seqs %v, want %v (rank 2 only, receiver 1 first)", seqs, want)
	}
	// The center's rank-1 hold stays until receiver 1's round passes.
	probes.rounds[1] = 3
	if out := gate.OnDelivered(alive(6, 2, 1, 3), 0); len(out) != 1 || out[0].Seq != 3 {
		t.Fatalf("center's hold not released after the round passed: %v", out)
	}
}
