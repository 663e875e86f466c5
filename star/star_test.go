package star_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/star"
)

// TestQuickstartShape is the README quickstart, as a test: build, run,
// elect, crash the leader, re-elect.
func TestQuickstartShape(t *testing.T) {
	c, err := star.New(
		star.N(5), star.Resilience(2),
		star.Algorithm(star.Fig3),
		star.Scenario(star.Combined(star.Center(4))),
		star.Seed(7),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	leader, ok := c.Agreement()
	if !ok {
		t.Fatalf("no agreement after 5s: %v", c.Leaders())
	}
	if err := c.Crash(leader); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	next, ok := c.Agreement()
	if !ok {
		t.Fatalf("no re-election: %v", c.Leaders())
	}
	if next == leader {
		t.Fatalf("crashed process %d still leader", leader)
	}
	if c.Leader(leader) != star.None {
		t.Fatal("crashed process reports a leader estimate")
	}
}

// allTransports returns one instance of every transport, suitable for
// capability-driven suites. The network transport binds kernel-assigned
// loopback ports, so each returned value is cheap until passed to New.
func allTransports() []star.Transport {
	return []star.Transport{
		star.Simulated(),
		star.Live(),
		star.Network([]string{"127.0.0.1:0", "127.0.0.1:0", "127.0.0.1:0", "127.0.0.1:0"}),
	}
}

// domainKey flattens a run's domain-visible outcome for determinism
// comparisons.
func domainKey(c *star.Cluster) string {
	rep := c.Report()
	m := c.Metrics()
	return fmt.Sprintf("events=%d sent=%d bytes=%d stab=%v at=%v leader=%d changes=%d samples=%d maxLevel=%d B=%d leaders=%v levels=%v timeouts=%v",
		m.Events, m.Net.Sent, m.Net.Bytes,
		rep.Stabilized, rep.StabilizedAt, rep.Leader, rep.Changes, rep.Samples,
		rep.MaxSuspLevel, rep.BoundB, rep.LeaderAtEnd, rep.FinalLevels, rep.FinalTimeouts)
}

// TestSimDeterminism: same options, same seed => identical domain metrics
// through the façade (the repository's core regression contract). The suite
// runs against every transport and skips by DECLARED capability — not by
// transport name — so a transport that gains or loses CapDeterminism is
// covered or excused automatically.
func TestSimDeterminism(t *testing.T) {
	for _, tr := range allTransports() {
		t.Run(tr.String(), func(t *testing.T) {
			if !tr.Capabilities().Has(star.CapDeterminism) {
				t.Skipf("transport %q does not declare Determinism", tr)
			}
			mk := func() string {
				c, err := star.New(
					star.N(5), tr,
					star.Scenario(star.Intermittent(star.Gap(3), star.CrashAt(3, 2*time.Second))),
					star.Seed(99),
				)
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				if err := c.Run(5 * time.Second); err != nil {
					t.Fatal(err)
				}
				return domainKey(c)
			}
			a, b := mk(), mk()
			if a != b {
				t.Fatalf("same seed diverged:\n run1: %s\n run2: %s", a, b)
			}
		})
	}
}

// TestLemma8OnTheWire: Lemma 8 keeps max−min of a Figure 3 process's
// susp_level at most 1, so every ALIVE it sends packs its vector as a base
// plus one bit per process — at most 20 + ceil(n/8) bytes with the kind and
// round (the simulator counts no frame overhead). Checked on the simulator's
// byte counters over a Combined run at n=13 and a short one at n=251.
func TestLemma8OnTheWire(t *testing.T) {
	for _, tc := range []struct {
		n   int
		run time.Duration
	}{{13, 5 * time.Second}, {251, 60 * time.Millisecond}} {
		t.Run(fmt.Sprintf("n=%d", tc.n), func(t *testing.T) {
			c, err := star.New(star.N(tc.n), star.Resilience(tc.n/2), star.Seed(uint64(tc.n)),
				star.Algorithm(star.Fig3), star.Scenario(star.Combined()))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if err := c.Run(tc.run); err != nil {
				t.Fatal(err)
			}
			var alive star.KindStats
			for _, ks := range c.Metrics().Net.PerKind {
				if ks.Kind == "ALIVE" {
					alive = ks
				}
			}
			if alive.Count == 0 {
				t.Fatalf("no ALIVE sent: %+v", c.Metrics().Net.PerKind)
			}
			if limit := alive.Count * uint64(20+(tc.n+7)/8); alive.Bytes > limit {
				t.Fatalf("%d ALIVEs take %d bytes, above %d (%d each): some vector is wider than one bit",
					alive.Count, alive.Bytes, limit, 20+(tc.n+7)/8)
			}
		})
	}
}

// TestDefaultsAreSane: star.New(star.N(5)) alone gives a working Fig3
// cluster under the Combined scenario with bounded retention.
func TestDefaultsAreSane(t *testing.T) {
	c, err := star.New(star.N(5))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Transport() != "sim" {
		t.Fatalf("default transport %q", c.Transport())
	}
	if c.ScenarioName() != "combined" {
		t.Fatalf("default scenario %q", c.ScenarioName())
	}
	if err := c.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Agreement(); !ok {
		t.Fatalf("default cluster did not elect: %v", c.Leaders())
	}
	// Bounded retention with a matching ring: the steady state must not
	// copy evicted rows around (the ROADMAP's eviction-traffic item).
	m := c.Metrics()
	if m.Nodes == nil {
		t.Fatal("no core metrics")
	}
	for id, nm := range m.Nodes {
		if nm.WindowEvictions != 0 {
			t.Errorf("process %d: %d eviction copies under default retention", id, nm.WindowEvictions)
		}
	}
}

// TestUnboundedRetentionMatchesDefault: the bounded default must be
// observation-equivalent to paper-faithful unbounded retention in benign
// runs (retention >> B+1).
func TestUnboundedRetentionMatchesDefault(t *testing.T) {
	mk := func(opts ...star.Option) string {
		c, err := star.New(append([]star.Option{star.N(5), star.Seed(3)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.Run(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		rep := c.Report()
		return fmt.Sprintf("stab=%v leader=%d maxLevel=%d B=%d levels=%v",
			rep.Stabilized, rep.Leader, rep.MaxSuspLevel, rep.BoundB, rep.FinalLevels)
	}
	bounded := mk()
	unbounded := mk(star.UnboundedRetention())
	if bounded != unbounded {
		t.Fatalf("bounded retention changed domain behaviour:\n bounded:   %s\n unbounded: %s", bounded, unbounded)
	}
}

// TestOptionValidation: every bad option is rejected with the right
// sentinel.
func TestOptionValidation(t *testing.T) {
	cases := []struct {
		name string
		opts []star.Option
		want error
	}{
		{"no N", nil, star.ErrInvalidParams},
		{"N=1", []star.Option{star.N(1)}, star.ErrInvalidParams},
		{"bad T", []star.Option{star.N(5), star.Resilience(5)}, star.ErrInvalidParams},
		{"bad algo", []star.Option{star.N(5), star.Algorithm("nope")}, star.ErrUnknownAlgorithm},
		{"bad alpha", []star.Option{star.N(5), star.Alpha(9)}, star.ErrInvalidParams},
		{"crash center", []star.Option{star.N(5), star.Scenario(star.Combined(star.CrashAt(0, time.Second)))}, star.ErrInvalidParams},
		{"too many crashes", []star.Option{star.N(5), star.Resilience(1),
			star.Scenario(star.Combined(star.CrashAt(1, time.Second), star.CrashAt(2, time.Second)))}, star.ErrInvalidParams},
		{"bad churn", []star.Option{star.N(5), star.Churn(0, time.Second, 2*time.Second, 10*time.Second)}, star.ErrInvalidParams},
		{"live max events", []star.Option{star.N(5), star.Live(), star.MaxEvents(1000)}, star.ErrUnsupported},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := star.New(tc.opts...)
			if err == nil {
				c.Close()
				t.Fatal("accepted")
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("error %v, want %v", err, tc.want)
			}
		})
	}
	if _, err := star.Family("bogus"); !errors.Is(err, star.ErrUnknownFamily) {
		t.Errorf("Family(bogus) = %v", err)
	}
	if _, err := star.ParseAlgorithm("bogus"); !errors.Is(err, star.ErrUnknownAlgorithm) {
		t.Errorf("ParseAlgorithm(bogus) = %v", err)
	}
}

// TestCapabilityMatrix: every capability-gated option, against every
// transport, either works or is rejected with ErrUnsupported naming the
// missing capability — exactly as the transport's DECLARED set predicts.
// This pins the engine seam's contract: feature×transport support lives in
// Capabilities(), not in hardcoded checks (live churn, once hardcoded as
// unsupported, is now simply declared).
func TestCapabilityMatrix(t *testing.T) {
	gated := []struct {
		name    string
		opt     star.Option
		cap     star.Capability
		capName string
	}{
		{"churn", star.Churn(50*time.Millisecond, 200*time.Millisecond, 50*time.Millisecond, time.Second), star.CapChurn, "Churn"},
		{"checkspread", star.CheckSpread(), star.CapSpreadCheck, "SpreadCheck"},
		{"maxevents", star.MaxEvents(1_000_000), star.CapEventBudget, "EventBudget"},
	}
	for _, tr := range allTransports() {
		for _, g := range gated {
			t.Run(tr.String()+"/"+g.name, func(t *testing.T) {
				c, err := star.New(star.N(4), tr, g.opt)
				if tr.Capabilities().Has(g.cap) {
					if err != nil {
						t.Fatalf("transport declares %v but New failed: %v", g.cap, err)
					}
					c.Close()
					return
				}
				if err == nil {
					c.Close()
					t.Fatalf("transport lacks %v but New accepted", g.cap)
				}
				if !errors.Is(err, star.ErrUnsupported) {
					t.Fatalf("error %v, want ErrUnsupported", err)
				}
				if !strings.Contains(err.Error(), g.capName) {
					t.Fatalf("error %q does not name the missing capability %s", err, g.capName)
				}
			})
		}
	}
	// The declared sets themselves are part of the API.
	if !star.Simulated().Capabilities().Has(star.CapDeterminism | star.CapNetStats | star.CapEventBudget) {
		t.Error("simulated transport lost a declared capability")
	}
	live := star.Live().Capabilities()
	if !live.Has(star.CapNetStats | star.CapChurn | star.CapSpreadCheck) {
		t.Errorf("live transport capabilities = %v, want NetStats|Churn|SpreadCheck", live)
	}
	if live.Has(star.CapDeterminism) || live.Has(star.CapEventBudget) {
		t.Errorf("live transport over-declares: %v", live)
	}
	netc := star.Network(nil).Capabilities()
	if !netc.Has(star.CapNetStats | star.CapChurn | star.CapRecovery) {
		t.Errorf("network transport capabilities = %v, want NetStats|Churn|Recovery", netc)
	}
	if netc.Has(star.CapDeterminism) || netc.Has(star.CapEventBudget) || netc.Has(star.CapSpreadCheck) {
		t.Errorf("network transport over-declares: %v", netc)
	}
}

// TestClosedCluster: Run after Close errors; Close is idempotent; state
// accessors keep working.
func TestClosedCluster(t *testing.T) {
	c, err := star.New(star.N(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := c.Run(time.Second); !errors.Is(err, star.ErrClosed) {
		t.Fatalf("Run after Close = %v, want ErrClosed", err)
	}
	if got := len(c.Leaders()); got != 3 {
		t.Fatalf("accessors broken after Close: %d leaders", got)
	}
}

// TestObserverStream: the event stream sees leader changes, sampling ticks,
// the scheduled crash, and agrees with the end-of-run report.
func TestObserverStream(t *testing.T) {
	var events []star.Event
	c, err := star.New(
		star.N(5), star.Seed(21),
		star.Scenario(star.Combined(star.Center(4), star.CrashAt(0, 2*time.Second))),
		star.Observe(star.EventAll, func(ev star.Event) { events = append(events, ev) }),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	var changes, samples, crashes, rounds int
	for _, ev := range events {
		switch ev.Kind {
		case star.EventLeaderChange:
			changes++
		case star.EventSample:
			samples++
		case star.EventCrash:
			if ev.Proc != 0 {
				t.Errorf("crash event for %d, want 0", ev.Proc)
			}
			crashes++
		case star.EventRoundAdvance:
			rounds++
		}
	}
	if changes == 0 || rounds == 0 || samples == 0 {
		t.Fatalf("missing event classes: changes=%d rounds=%d samples=%d", changes, rounds, samples)
	}
	if crashes != 1 {
		t.Fatalf("crash events = %d, want 1", crashes)
	}
	if rep := c.Report(); rep.Samples != samples {
		t.Fatalf("report samples %d != observed ticks %d", rep.Samples, samples)
	}
}

// TestChurnOption: the cluster-level churn rotation executes restarts and
// the survivors keep a never-crashed leader.
func TestChurnOption(t *testing.T) {
	restarts := 0
	c, err := star.New(
		star.N(5), star.Seed(11),
		star.Churn(500*time.Millisecond, 2*time.Second, 600*time.Millisecond, 15*time.Second),
		star.Observe(star.EventRestart, func(ev star.Event) { restarts++ }),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Run(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	if restarts == 0 {
		t.Fatal("churn scheduled no restarts")
	}
	leader, ok := c.Agreement()
	if !ok {
		t.Fatalf("no agreement under churn: %v", c.Leaders())
	}
	if c.EverCrashed(leader) {
		t.Fatalf("agreed leader %d is a churned process", leader)
	}
}

// TestConsensusApp: Theorem 5 through the façade — every instance decides
// with agreement and validity, decide events fire.
func TestConsensusApp(t *testing.T) {
	decisions := map[int64]int64{}
	c, err := star.New(
		star.N(5), star.Resilience(2), star.Seed(61),
		star.WithConsensus(func(p int, inst, v int64) {
			if prev, ok := decisions[inst]; ok && prev != v {
				t.Errorf("instance %d decided %d and %d", inst, prev, v)
			}
			decisions[inst] = v
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Run(200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	const instances = 5
	for inst := int64(0); inst < instances; inst++ {
		for p := 0; p < c.N(); p++ {
			if err := c.Propose(p, inst, int64(1000*p)+inst); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := c.Run(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	for inst := int64(0); inst < instances; inst++ {
		want, decided := decisions[inst]
		if !decided {
			t.Fatalf("instance %d undecided", inst)
		}
		for p := 0; p < c.N(); p++ {
			v, ok := c.Decided(p, inst)
			if !ok {
				t.Fatalf("instance %d undecided at p%d", inst, p)
			}
			if v != want {
				t.Fatalf("instance %d: p%d decided %d, others %d", inst, p, v, want)
			}
		}
	}
	if c.Ballots() == 0 {
		t.Fatal("no ballots started")
	}
}

// TestAtomicBroadcastApp: the full stack — every replica delivers the same
// payloads in the same order.
func TestAtomicBroadcastApp(t *testing.T) {
	decideEvents := 0
	c, err := star.New(
		star.N(5), star.Resilience(2), star.Seed(2024),
		star.Scenario(star.Intermittent(star.Gap(3), star.Center(1), star.CrashAt(4, 4*time.Second))),
		star.WithAtomicBroadcast(nil),
		star.Observe(star.EventDecide, func(ev star.Event) { decideEvents++ }),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Run(500 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < c.N(); p++ {
		if err := c.Broadcast(p, int64(1+p)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Run(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	var ref []star.Delivery
	for p := 0; p < c.N(); p++ {
		if c.Crashed(p) {
			continue
		}
		log := c.Deliveries(p)
		if len(log) != c.N() {
			t.Fatalf("p%d delivered %d/%d", p, len(log), c.N())
		}
		if ref == nil {
			ref = log
			continue
		}
		for i := range log {
			if log[i] != ref[i] {
				t.Fatalf("total order violated at %d: %v vs %v", i, log[i], ref[i])
			}
		}
	}
	if err := c.Propose(0, 99, 1); !errors.Is(err, nil) {
		t.Fatalf("Propose with abcast lane: %v", err)
	}
	// The decide stream flows through the abcast pair's consensus lane.
	if decideEvents == 0 {
		t.Fatal("no EventDecide through the atomic-broadcast stack")
	}
}

// TestAtomicBroadcastDeterminism: on the simulated transport the delivery
// logs are a pure function of (options, seed) — the leader proposes in
// arrival order from a slice, on arrival and on the tick alike, so two runs
// of one seed must agree byte for byte, slots included.
func TestAtomicBroadcastDeterminism(t *testing.T) {
	run := func() string {
		c, err := star.New(
			star.N(5), star.Resilience(2), star.Seed(77),
			star.Scenario(star.Intermittent(star.Gap(3), star.Center(1), star.CrashAt(0, 3*time.Second))),
			star.WithAtomicBroadcast(nil),
		)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		const rounds = 40
		for round := 0; round < rounds; round++ {
			if err := c.Run(150 * time.Millisecond); err != nil {
				t.Fatal(err)
			}
			for p := 0; p < c.N(); p++ {
				if c.Crashed(p) {
					continue
				}
				if err := c.Broadcast(p, int64(100*round+p)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := c.Run(30 * time.Second); err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		for p := 0; p < c.N(); p++ {
			log := c.Deliveries(p)
			fromCorrect := 0
			for _, d := range log {
				if d.Sender != 0 {
					fromCorrect++
				}
			}
			if want := rounds * (c.N() - 1); !c.Crashed(p) && fromCorrect != want {
				t.Fatalf("p%d delivered %d of the %d broadcasts of correct processes", p, fromCorrect, want)
			}
			fmt.Fprintf(&out, "p%d %v\n", p, log)
		}
		return out.String()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed, different delivery logs:\n%s\nvs\n%s", a, b)
	}
}

// TestAppsRequireOptIn: application methods without the lane error with
// ErrNoApp.
func TestAppsRequireOptIn(t *testing.T) {
	c, err := star.New(star.N(3))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Propose(0, 0, 1); !errors.Is(err, star.ErrNoApp) {
		t.Fatalf("Propose = %v, want ErrNoApp", err)
	}
	if err := c.Broadcast(0, 1); !errors.Is(err, star.ErrNoApp) {
		t.Fatalf("Broadcast = %v, want ErrNoApp", err)
	}
	if err := c.Propose(9, 0, 1); !errors.Is(err, star.ErrBadProcess) {
		t.Fatalf("Propose(9) = %v, want ErrBadProcess", err)
	}
}

// TestEventBudget: MaxEvents turns runaways into ErrEventBudget.
func TestEventBudget(t *testing.T) {
	c, err := star.New(star.N(5), star.MaxEvents(1000))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Run(time.Minute); !errors.Is(err, star.ErrEventBudget) {
		t.Fatalf("Run = %v, want ErrEventBudget", err)
	}
}
