// Package star is the public face of the repository: one API over the
// paper's family of eventual-leader (Ω) algorithms, the assumption
// scenarios they are correct under, both execution transports, and the
// consensus / atomic-broadcast stack on top. User code imports this package
// and nothing else.
//
// A cluster is assembled from functional options and driven explicitly:
//
//	c, err := star.New(
//	        star.N(5), star.Resilience(2),
//	        star.Algorithm(star.Fig3),
//	        star.Scenario(star.Combined(star.Center(4))),
//	        star.Seed(7),
//	)
//	if err != nil { ... }
//	defer c.Close()
//	c.Run(5 * time.Second)
//	leader, ok := c.Agreement()
//
// # Scenarios
//
// A ScenarioSpec names one of the paper's eight assumption families —
// AllTimely, TSource, MovingSource, Pattern, MovingPattern, Combined (the
// paper's A'), Intermittent (the paper's A), IntermittentFG (§7) — plus its
// knobs (Center, Gap, Delta, Drift, AdversarialOrder, Outages, CrashAt,
// RestartAt, ...). The spec is pure data; the cluster contributes N,
// Resilience, Alpha, Seed and its Churn windows when it builds the
// scenario.
//
// # Transports
//
// The Transport option selects execution: Simulated() (default) runs on the
// deterministic discrete-event simulator — virtual time, exact assumption
// machinery, and every run a pure function of (options, seed) — while
// Live() runs the same protocol code on one goroutine per process with
// channel links and wall-clock timers. Run advances virtual time on the
// former and sleeps on the latter; everything else reads identically.
//
// Each transport declares a Capability set (Capabilities) and New validates
// the requested options against it, rejecting mismatches with ErrUnsupported
// naming the missing capability. Every transport counts traffic (real
// NetStats) and executes churn schedules; only the simulator offers
// determinism and the MaxEvents budget. New transports (sharded,
// multi-backend) slot in by implementing the engine seam — a clock — over
// links whose members are internal/host processes, and declaring what they
// provide; crashes, restarts and every timed action are written once in
// Cluster, so the façade has no per-transport special cases.
//
// # Observation
//
// Three layers, from cheapest to richest:
//
//   - Accessors: Leader, Leaders, Agreement, SuspLevel, CurrentTimeout,
//     Rounds, Crashed — point reads, safe between (sim) or during (live)
//     Run calls.
//   - Observe(mask, fn): a sampled event stream — leader changes, round
//     advances, sampling ticks, crashes, restarts, consensus decisions.
//   - Report() and Metrics(): the end-of-run domain verdict (stabilization
//     analysis, Theorem 4 bound tracking, Lemma 8 spread violations,
//     timeout stability, the full leader timeline) and the mechanical
//     counters (events, traffic by kind, per-process protocol counters,
//     order-gate interventions).
//
// # Memory
//
// By default per-round protocol bookkeeping is pruned below each process's
// receiving round less DefaultRetention less the window test's reach (its
// max suspicion level, plus F under §7): no message a process can still
// count reads below that, so behaviour matches unbounded history while
// NodeMetrics.BelowHorizon reads 0, as it does on the benchmark's simulated
// configurations without restarts. Unbounded delays break the equivalence:
// on the C1 coverage grid spike drift and growing outages stretch the
// SUSPICION lag past the horizon (see DefaultRetention), so the experiments
// run UnboundedRetention. So do restarts: a restarted member lags by its
// downtime (ROADMAP.md, "Ω across restarts").
// Memory is O(Retention + reach) rows only while the receiving round
// advances and the reach stays bounded: a process whose receiving round is
// stranded keeps every row ahead of it, §7 with a growing F (F(rn) = rn/2
// keeps about rn/2 rows) grows with the run, and under Figure 2 a crashed
// process's rising level stretches the reach back to the crash.
// UnboundedRetention() restores the paper's keep-everything semantics
// (memory then grows with the round count).
//
// # Applications
//
// WithConsensus co-hosts a leader-driven indulgent consensus lane with Ω in
// every process (Propose/Decided/Ballots); WithAtomicBroadcast stacks
// total-order broadcast on top (Broadcast/Deliveries) — the paper's
// motivating Ω → consensus → atomic broadcast → replicated-state-machine
// chain, behind one multiplexed transport endpoint.
//
// The experiment harness (star/harness) and the three command-line tools
// (experiments, starsim, starnet) are built on this package; the examples/
// directory shows each feature in ~15 lines.
package star
