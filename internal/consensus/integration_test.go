package consensus

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/proc"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// theorem5System wires N processes, each hosting an Ω node (core, Figure 3)
// and a consensus node behind a Mux, onto a scenario's network.
type theorem5System struct {
	sched  *sim.Scheduler
	net    *netsim.Network
	omegas []*core.Node
	cons   []*Node
}

func buildTheorem5(t *testing.T, sc *scenario.Scenario, decisions *[][2]int64) *theorem5System {
	t.Helper()
	p := sc.Params
	sched := sim.NewScheduler()
	net, err := netsim.New(sched, netsim.Config{N: p.N, Seed: p.Seed, Policy: sc.Policy, Gate: sc.Gate})
	if err != nil {
		t.Fatal(err)
	}
	sys := &theorem5System{sched: sched, net: net,
		omegas: make([]*core.Node, p.N), cons: make([]*Node, p.N)}

	for id := 0; id < p.N; id++ {
		id := id
		omega, err := core.NewNode(id, core.Config{N: p.N, T: p.T, Variant: core.VariantFig3})
		if err != nil {
			t.Fatal(err)
		}
		cons, err := New(Config{
			N: p.N, T: p.T,
			Oracle: omega.Leader,
			OnDecide: func(inst, v int64) {
				if decisions != nil {
					*decisions = append(*decisions, [2]int64{inst, v})
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		mux := proc.NewMux()
		mux.AddLane(omega) // lane 0: Ω
		mux.AddLane(cons)  // lane 1: consensus
		sys.omegas[id] = omega
		sys.cons[id] = cons
		net.Register(id, mux)
		net.StartAt(id, 0)
	}

	sc.SetCrashedProbe(net.Crashed)
	sc.SetRoundProbe(func(q proc.ID) int64 {
		_, r := sys.omegas[q].Rounds()
		return r
	})
	sc.SetTimeoutProbe(func() time.Duration {
		var max time.Duration
		for id, om := range sys.omegas {
			if !net.Crashed(id) && om.CurrentTimeout() > max {
				max = om.CurrentTimeout()
			}
		}
		return max
	})
	for _, c := range sc.Crashes {
		net.CrashAt(c.ID, c.At)
	}
	return sys
}

// TestTheorem5ConsensusUnderIntermittentStar is the paper's Theorem 5 as an
// executable check: majority of correct processes + intermittent rotating
// t-star (with t'=1 crash, t<n/2) => consensus terminates with agreement and
// validity, across many instances.
func TestTheorem5ConsensusUnderIntermittentStar(t *testing.T) {
	const instances = 20
	sc, err := scenario.Intermittent(scenario.Params{
		N: 5, T: 2, Seed: 41, D: 3,
		Crashes: []scenario.Crash{{ID: 3, At: sim.Time(2 * time.Second)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	sys := buildTheorem5(t, sc, nil)

	// Every process proposes its own value for every instance.
	sys.sched.After(100*time.Millisecond, func() {
		for inst := int64(0); inst < instances; inst++ {
			for id, c := range sys.cons {
				c.Propose(inst, int64(id)*1000+inst)
			}
		}
	})
	sys.sched.RunFor(60 * time.Second)

	for inst := int64(0); inst < instances; inst++ {
		var val int64
		seen := false
		for id, c := range sys.cons {
			if sys.net.Crashed(id) {
				continue
			}
			v, ok := c.Decided(inst)
			if !ok {
				t.Fatalf("instance %d undecided at process %d (termination)", inst, id)
			}
			if !seen {
				val, seen = v, true
			} else if v != val {
				t.Fatalf("instance %d: disagreement %d vs %d", inst, v, val)
			}
		}
		// Validity: the decided value is one of the proposals.
		valid := false
		for id := 0; id < 5; id++ {
			if val == int64(id)*1000+inst {
				valid = true
			}
		}
		if !valid {
			t.Fatalf("instance %d decided non-proposed value %d", inst, val)
		}
	}
}

// TestConsensusSafetyWithSelfishOracle checks indulgence: with a broken
// oracle (every process believes it is the leader, forever), agreement and
// validity still hold for whatever happens to get decided.
func TestConsensusSafetyWithSelfishOracle(t *testing.T) {
	const n, tt = 5, 2
	sc, err := scenario.Combined(scenario.Params{N: n, T: tt, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	sched := sim.NewScheduler()
	net, err := netsim.New(sched, netsim.Config{N: n, Seed: 43, Policy: sc.Policy, Gate: sc.Gate})
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*Node, n)
	for id := 0; id < n; id++ {
		id := id
		c, err := New(Config{
			N: n, T: tt,
			Oracle: func() proc.ID { return id }, // selfish: "I lead"
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[id] = c
		net.Register(id, c)
		net.StartAt(id, 0)
	}
	sched.After(10*time.Millisecond, func() {
		for inst := int64(0); inst < 10; inst++ {
			for id, c := range nodes {
				c.Propose(inst, int64(100+id))
			}
		}
	})
	sched.RunFor(30 * time.Second)

	for inst := int64(0); inst < 10; inst++ {
		var val int64
		seen := false
		for _, c := range nodes {
			v, ok := c.Decided(inst)
			if !ok {
				continue // termination not guaranteed with a broken oracle
			}
			if !seen {
				val, seen = v, true
			} else if v != val {
				t.Fatalf("instance %d: safety violated (%d vs %d) despite broken oracle", inst, v, val)
			}
		}
		if seen && (val < 100 || val > 104) {
			t.Fatalf("instance %d: non-proposed value %d", inst, val)
		}
	}
	// The broken oracle must actually make proposers compete: without
	// rejected ballots the safety check above exercises nothing.
	var nacks uint64
	for _, c := range nodes {
		nacks += c.Nacks
	}
	if nacks == 0 {
		t.Fatal("no ballot was rejected: the selfish proposers never competed")
	}
}

// TestTheorem5DecisionLatency measures that decisions arrive promptly once
// proposals exist (used by the T5 experiment; here only sanity-checked).
func TestTheorem5DecisionLatency(t *testing.T) {
	sc, err := scenario.Combined(scenario.Params{N: 5, T: 2, Seed: 47})
	if err != nil {
		t.Fatal(err)
	}
	var decisions [][2]int64
	sys := buildTheorem5(t, sc, &decisions)
	var proposeAt sim.Time
	// Consensus requires every (correct) process to propose: the protocol
	// is leader-driven, so the eventual leader must hold a proposal.
	sys.sched.After(2*time.Second, func() {
		proposeAt = sys.sched.Now()
		for id, c := range sys.cons {
			c.Propose(0, int64(100+id))
		}
	})
	sys.sched.RunFor(30 * time.Second)
	var val int64
	seen := false
	for id, c := range sys.cons {
		v, ok := c.Decided(0)
		if !ok {
			t.Fatalf("process %d undecided", id)
		}
		if !seen {
			val, seen = v, true
		} else if v != val {
			t.Fatalf("disagreement: %d vs %d", v, val)
		}
	}
	if val < 100 || val > 104 {
		t.Fatalf("decided non-proposed value %d", val)
	}
	if len(decisions) == 0 {
		t.Fatal("no OnDecide callbacks")
	}
	// Latency sanity: a decision within the run, after proposals.
	if proposeAt == 0 {
		t.Fatal("proposals never submitted")
	}
}
