package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/star"
)

// digest is the domain outcome of one simulator op. The simulator is a pure
// function of (options, seed), so an op's digest must be identical in every
// round; a mismatch means the benchmark timed different work and the op
// counts as failed.
type digest struct {
	Events, Msgs, Bytes uint64
	// Leader is the live leader every live process names when the op ends
	// (star.None without agreement); StabAt the virtual time the final
	// agreement began (-1 when the run did not stabilise).
	Leader int
	StabAt time.Duration
}

// maxUnsettled is how many of sim-paper-n5's K=120 ops may end agreed on a
// live leader but with that agreement younger than a fifth of the run, which
// is what Report().Stabilized asks for. Ω promises agreement only eventually
// and the intermittent adversary and the churn keep restarting it: over seeds
// 1-80 (9600 ops) a round had 4 such ops on average and 9 at worst, so 16 is
// never met by a protocol that works and always by one that flaps.
const maxUnsettled = 16

// counter names one public count read from Metrics() and Report().
type counter int

const (
	ctrEvents counter = iota
	ctrMsgs
	ctrDelivered
	ctrDropped
	ctrBytes
	ctrGateHeld
	ctrRounds
	ctrSuspIncr
	ctrEvictions
	ctrAlives
	ctrSuspicions
	ctrSnapshots
	ctrRestores
	ctrBreakerOpens
	ctrBallots
	ctrCommits
	numCounters
)

// counters are the public per-layer counts one op (or one window) produced,
// read after the timed section.
type counters [numCounters]uint64

func (c *counters) add(o counters) {
	for i, v := range o {
		c[i] += v
	}
}

func (c *counters) sub(o counters) {
	for i, v := range o {
		c[i] -= v
	}
}

// countersOf reads a cluster's public counters (ballots and commits are the
// caller's to fill: what counts as a commit depends on the workload).
func countersOf(c *star.Cluster, rep *star.Report) counters {
	m := c.Metrics()
	var out counters
	out[ctrEvents], out[ctrMsgs], out[ctrDelivered], out[ctrDropped] = m.Events, m.Net.Sent, m.Net.Delivered, m.Net.Dropped
	out[ctrBytes], out[ctrGateHeld], out[ctrBreakerOpens] = m.Net.Bytes, m.GateHeldWinning+m.GateHeldLose, m.Net.BreakerOpens
	for _, nm := range m.Nodes {
		out[ctrRounds] += uint64(nm.RoundsDone)
		out[ctrSuspIncr] += nm.Increments
		out[ctrEvictions] += nm.WindowEvictions
		out[ctrAlives] += nm.AliveSent
		out[ctrSuspicions] += nm.SuspicionsSent
	}
	if rep != nil {
		out[ctrSnapshots], out[ctrRestores] = rep.Recovery.Snapshots, rep.Recovery.Restores
	}
	return out
}

// simConfig is one of the paper configurations the n=5 workload cycles
// through. opts returns fresh options each call (a MemJournal is stateful);
// drive advances the cluster, nil meaning one Run(dur).
type simConfig struct {
	name  string
	dur   time.Duration
	opts  func() []star.Option
	drive func(c *star.Cluster, dur time.Duration) error
	// check validates config-specific outputs beyond the common verdict.
	check func(c *star.Cluster, rep *star.Report) error
	// mayNotElect is how many of the config's seedsPerConfig ops may end
	// without agreement on a live leader: 0 wherever the paper proves the
	// algorithm under the family.
	mayNotElect int
}

func scenarioOpts(algo star.Algo, spec star.ScenarioSpec, extra ...star.Option) func() []star.Option {
	return func() []star.Option {
		return append([]star.Option{star.Algorithm(algo), star.Scenario(spec)}, extra...)
	}
}

const consensusInstances = 10

// paperConfigs are the 12 configurations of sim-paper-n5, mirroring the
// experiments the root bench_test.go records (F1-F4, C1, T5, CH).
func paperConfigs() []simConfig {
	crashSpec := star.Intermittent(star.Gap(3), star.Center(1), star.CrashAt(3, time.Second))
	fgSpec := star.IntermittentFG(star.Gap(4), star.Growth(
		func(k int64) int64 { return k / 2 },
		func(rn int64) time.Duration { return time.Duration(rn) * 20 * time.Microsecond }))
	cfgs := []simConfig{
		{name: "combined/fig1", dur: 5 * time.Second, opts: scenarioOpts(star.Fig1, star.Combined())},
		{name: "combined/fig2", dur: 5 * time.Second, opts: scenarioOpts(star.Fig2, star.Combined())},
		{name: "combined/fig3", dur: 5 * time.Second, opts: scenarioOpts(star.Fig3, star.Combined())},
		// Figure 1 assumes a star at every round; under a star that exists
		// only every fourth round nothing promises that it elects, and 2 %
		// of its runs end leaderless (16 of 800 over seeds 1-80, at most 2 in
		// one round; no other configuration ever did).
		{name: "intermittent4/fig1", dur: 10 * time.Second, opts: scenarioOpts(star.Fig1, star.Intermittent(star.Gap(4))), mayNotElect: 3},
		{name: "intermittent4/fig2", dur: 10 * time.Second, opts: scenarioOpts(star.Fig2, star.Intermittent(star.Gap(4)))},
		{name: "intermittent4/fig3", dur: 10 * time.Second, opts: scenarioOpts(star.Fig3, star.Intermittent(star.Gap(4)))},
		{
			name: "intermittent3+crash+spread/fig3", dur: 10 * time.Second,
			opts: scenarioOpts(star.Fig3, crashSpec, star.CheckSpread()),
			check: func(_ *star.Cluster, rep *star.Report) error {
				if rep.SpreadViolations != 0 || !rep.BoundOK {
					return fmt.Errorf("spread violations %d, bound ok %v", rep.SpreadViolations, rep.BoundOK)
				}
				return nil
			},
		},
		{name: "intermittentfg/fg", dur: 10 * time.Second, opts: scenarioOpts(star.FG, fgSpec)},
		{name: "pattern/timefree", dur: 10 * time.Second, opts: scenarioOpts(star.TimeFree, star.Pattern())},
		{name: "alltimely/stable", dur: 10 * time.Second, opts: scenarioOpts(star.Stable, star.AllTimely())},
		{
			name: "combined/fig3+consensus", dur: 10 * time.Second,
			opts: scenarioOpts(star.Fig3, star.Combined(), star.WithConsensus(nil)),
			drive: func(c *star.Cluster, dur time.Duration) error {
				const proposeAt = 100 * time.Millisecond
				if err := c.Run(proposeAt); err != nil {
					return err
				}
				for inst := int64(0); inst < consensusInstances; inst++ {
					for p := 0; p < c.N(); p++ {
						if err := c.Propose(p, inst, int64(p)*1000+inst); err != nil {
							return err
						}
					}
				}
				return c.Run(dur - proposeAt)
			},
			check: func(c *star.Cluster, _ *star.Report) error {
				for inst := int64(0); inst < consensusInstances; inst++ {
					want, ok := c.Decided(0, inst)
					if !ok || want%1000 != inst {
						return fmt.Errorf("instance %d: process 0 decided (%d, %v)", inst, want, ok)
					}
					for p := 1; p < c.N(); p++ {
						if got, ok := c.Decided(p, inst); !ok || got != want {
							return fmt.Errorf("instance %d: process %d decided (%d, %v), process 0 %d", inst, p, got, ok, want)
						}
					}
				}
				return nil
			},
		},
		{
			name: "combined+churn+journal/fig3", dur: 10 * time.Second,
			opts: func() []star.Option {
				return []star.Option{
					star.Algorithm(star.Fig3), star.Scenario(star.Combined()),
					star.Churn(500*time.Millisecond, 2*time.Second, 600*time.Millisecond, 10*time.Second),
					star.WithRecovery(star.MemJournal()),
				}
			},
			check: func(_ *star.Cluster, rep *star.Report) error {
				if rep.Recovery.Restores == 0 || rep.Recovery.SaveErrors != 0 {
					return fmt.Errorf("churn run restored %d times with %d save errors", rep.Recovery.Restores, rep.Recovery.SaveErrors)
				}
				return nil
			},
		},
	}
	return cfgs
}

const seedsPerConfig = 10

// simOp is one deterministic op of sim-paper-n5: one configuration at one
// seed.
type simOp struct {
	cfg  simConfig
	seed uint64
}

// splitmix is SplitMix64's output function, used to derive independent op
// seeds from the benchmark seed.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// paperOps lists the workload's K ops — a pure function of seed. Configs are
// interleaved so a slow spell on the host spreads over all of them.
func paperOps(seed uint64) []simOp {
	cfgs := paperConfigs()
	ops := make([]simOp, 0, len(cfgs)*seedsPerConfig)
	for s := range seedsPerConfig {
		for i, cfg := range cfgs {
			ops = append(ops, simOp{cfg: cfg, seed: splitmix(seed<<16 | uint64(s)<<8 | uint64(i))})
		}
	}
	return ops
}

// opSample is what one execution of a sim op yields.
type opSample struct {
	// newMS is the wall time of New and opMS that of Run+Report+Close;
	// totalMS and cpuMS are the wall and process-CPU time of both.
	newMS, opMS, totalMS, cpuMS float64
	dig                         digest
	ctr                         counters
}

// build constructs the op's cluster.
func (o simOp) build(tr *tracer) (*star.Cluster, error) {
	opts := append([]star.Option{star.N(5), star.Resilience(2), star.Seed(o.seed)}, o.cfg.opts()...)
	id := tr.begin("star", "New")
	c, err := star.New(opts...)
	tr.end(id, 1)
	if err != nil {
		return nil, fmt.Errorf("%s: New: %w", o.cfg.name, err)
	}
	return c, nil
}

// run executes the op: New (the op's set-up), then the timed
// Run+Report+Close, then the untimed counter reads and output checks.
func (o simOp) run(tr *tracer) (opSample, error) {
	var s opSample
	sp := tr.begin("bench", "op:"+o.cfg.name)
	defer func() { tr.end(sp, 1) }()

	t0, cpu0 := time.Now(), cpuTime()
	c, err := o.build(tr)
	if err != nil {
		return s, err
	}
	t1 := time.Now()
	id := tr.begin("star", "Run")
	if o.cfg.drive != nil {
		err = o.cfg.drive(c, o.cfg.dur)
	} else {
		err = c.Run(o.cfg.dur)
	}
	tr.end(id, 1)
	if err != nil {
		c.Close()
		return s, fmt.Errorf("%s: Run: %w", o.cfg.name, err)
	}
	id = tr.begin("star", "Report")
	rep := c.Report()
	tr.end(id, 1)
	id = tr.begin("star", "Close")
	err = c.Close()
	tr.end(id, 1)
	t2 := time.Now()
	if err != nil {
		return s, fmt.Errorf("%s: Close: %w", o.cfg.name, err)
	}
	s.newMS = float64(t1.Sub(t0)) / 1e6
	s.opMS = float64(t2.Sub(t1)) / 1e6
	s.totalMS = float64(t2.Sub(t0)) / 1e6
	s.cpuMS = float64(cpuTime()-cpu0) / 1e6

	s.ctr = countersOf(c, rep)
	if s.ctr[ctrBallots] = c.Ballots(); s.ctr[ctrBallots] > 0 {
		s.ctr[ctrCommits] = consensusInstances
	}
	s.dig = digestOf(c, rep, s.ctr)
	if o.cfg.check != nil {
		if err := o.cfg.check(c, rep); err != nil {
			return s, fmt.Errorf("%s seed %d: %w", o.cfg.name, o.seed, err)
		}
	}
	return s, nil
}

// digestOf reads the domain outcome of a finished simulator run.
func digestOf(c *star.Cluster, rep *star.Report, ctr counters) digest {
	d := digest{Events: ctr[ctrEvents], Msgs: ctr[ctrMsgs], Bytes: ctr[ctrBytes], Leader: agreedLeader(c), StabAt: -1}
	if rep.Stabilized {
		d.StabAt = rep.StabilizedAt
	}
	return d
}

// agreedLeader is the live leader every live process names, or star.None.
func agreedLeader(c *star.Cluster) int {
	if leader, ok := c.Agreement(); ok && !c.Crashed(leader) {
		return leader
	}
	return star.None
}

// checkElected is sim-paper-n5's liveness check over one round's digests
// (round 0's: every later round must repeat them). Every op must end with
// the live processes agreed on a live leader, but for mayNotElect ops of its
// configuration, and all but maxUnsettled of the round's ops must have
// stabilised. Each op beyond an allowance counts as failed.
func (r *simResult) checkElected(ops []simOp, digs []digest) {
	leaderless := map[string]int{}
	unsettled := 0
	for k, d := range digs {
		cfg := ops[k].cfg
		switch {
		case d.Leader == star.None:
			if leaderless[cfg.name]++; leaderless[cfg.name] > cfg.mayNotElect {
				r.fail(fmt.Errorf("%s seed %d: ended without agreement on a live leader (%d such ops of this configuration, %d allowed)",
					cfg.name, ops[k].seed, leaderless[cfg.name], cfg.mayNotElect))
			}
		case d.StabAt < 0:
			if unsettled++; unsettled > maxUnsettled {
				r.fail(fmt.Errorf("%s seed %d: not stabilised, the %dth such op of the round (%d allowed)", cfg.name, ops[k].seed, unsettled, maxUnsettled))
			}
		}
	}
}

// roundCost is the host cost of one whole round or pass.
type roundCost struct {
	cost
	ops int
}

// simResult is what either simulator workload hands to the reporter.
type simResult struct {
	ops int // K
	// Per-op samples, [round][op]: the op's wall time, and the wall and
	// CPU time of everything the round spent on it (the same thing on
	// sim-scale-n251; New included on sim-paper-n5).
	opMS, totalMS, cpuMS [][]float64
	// setupS is the workload's set-up time and setups the number of
	// samples it is the best of (see each workload).
	setupS float64
	setups int
	// rounds holds each whole round's process cost, for the allocation
	// metrics, which cannot be read per op without stopping the world.
	rounds   []roundCost
	ctr      counters // counters of one round (identical in all)
	failed   int
	firstErr error
}

// simPlan fixes how much a simulator workload runs: how often the K ops are
// replayed, and how many cold starts sim-scale-n251 times (sim-paper-n5
// takes its set-up from the rounds).
type simPlan struct{ rounds, colds int }

// runPaper runs sim-paper-n5: plan.rounds replays of the same K ops.
func runPaper(seed uint64, plan simPlan, tr *tracer) simResult {
	ops := paperOps(seed)
	res := simResult{ops: len(ops), setups: plan.rounds}

	var first []digest
	var newMS [][]float64
	for r := range plan.rounds {
		sp := tr.begin("bench", fmt.Sprintf("round:%d", r))
		runtime.GC()
		u0 := readUsage()
		news, opMS, totalMS, cpuMS := make([]float64, len(ops)), make([]float64, len(ops)), make([]float64, len(ops)), make([]float64, len(ops))
		digs := make([]digest, len(ops))
		var ctr counters
		for k, op := range ops {
			s, err := op.run(tr)
			if err != nil {
				res.fail(err)
			}
			news[k], opMS[k], totalMS[k], cpuMS[k], digs[k] = s.newMS, s.opMS, s.totalMS, s.cpuMS, s.dig
			ctr.add(s.ctr)
		}
		res.rounds = append(res.rounds, roundCost{cost: readUsage().since(u0), ops: len(ops)})
		tr.end(sp, int64(len(ops)))
		newMS = append(newMS, news)
		res.opMS, res.totalMS, res.cpuMS = append(res.opMS, opMS), append(res.totalMS, totalMS), append(res.cpuMS, cpuMS)
		if r == 0 {
			first, res.ctr = digs, ctr
			res.checkElected(ops, digs)
		} else {
			res.checkReplay(r, first, digs)
		}
	}
	// Set-up is constructing the workload's 120 clusters: each op's best
	// New over the rounds, summed.
	res.setupS = sum(bestOf(newMS)) / 1e3
	return res
}

// checkReplay fails every op whose digest in the given round differs from
// round 0: the benchmark timed different work under the same name.
func (r *simResult) checkReplay(round int, first, digs []digest) {
	for k := range digs {
		if digs[k] != first[k] {
			r.fail(fmt.Errorf("op %d: digest %+v in round %d, %+v in round 0", k, digs[k], round, first[k]))
		}
	}
}

func (r *simResult) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

const (
	scaleN      = 251
	scaleSlices = 100
	scaleSlice  = 10 * time.Millisecond
	// scaleSettle is the start-up transient of the n=251 cluster — the
	// election settles, pools and rings fill — and scaleSettled its length
	// in slices; from there on every slice must end agreed.
	scaleSettle  = 50 * time.Millisecond
	scaleSettled = int(scaleSettle / scaleSlice)
	// scaleSeed seeds the one n=251 cluster, whatever -seed is. What such
	// a cluster costs is a chaotic function of its seed (allocation per
	// slice 1000-1085 KiB, time +-4 %, objects +-30 % over ten seeds), a
	// property of the input and not of the code, and a run has time for
	// one cluster, not for the dozens that would average it out.
	scaleSeed = 251
)

func scaleCluster(tr *tracer) (*star.Cluster, error) {
	id := tr.begin("star", "New")
	c, err := star.New(star.N(scaleN), star.Resilience(scaleN/2), star.Seed(scaleSeed),
		star.Algorithm(star.Fig3), star.Scenario(star.Combined()))
	tr.end(id, 1)
	return c, err
}

// runScale runs sim-scale-n251: plan.rounds replays of one long-lived n=251
// cluster advanced in K slices of one ALIVE period each. The workload seed
// is not used (see scaleSeed).
func runScale(_ uint64, plan simPlan, tr *tracer) simResult {
	res := simResult{ops: scaleSlices, setups: plan.colds}

	// Set-up is a cold start: New plus the transient, the best of
	// plan.colds.
	for i := range plan.colds {
		runtime.GC()
		sp := tr.begin("bench", fmt.Sprintf("cold:%d", i))
		t0 := time.Now()
		c, err := scaleCluster(tr)
		if err == nil {
			id := tr.begin("star", "Run")
			err = c.Run(scaleSettle)
			tr.end(id, 1)
			took := time.Since(t0).Seconds()
			c.Close()
			if i == 0 || took < res.setupS {
				res.setupS = took
			}
		}
		tr.end(sp, 1)
		if err != nil {
			res.fail(err)
			return res
		}
	}

	var first []digest
	for p := range plan.rounds {
		sp := tr.begin("bench", fmt.Sprintf("pass:%d", p))
		runtime.GC()
		u0 := readUsage()
		c, err := scaleCluster(tr)
		if err != nil {
			res.fail(err)
			tr.end(sp, 0)
			return res
		}
		opMS, cpuMS := make([]float64, scaleSlices), make([]float64, scaleSlices)
		digs := make([]digest, scaleSlices)
		for k := range scaleSlices {
			t0, cpu0 := time.Now(), cpuTime()
			id := tr.begin("star", "Run")
			err := c.Run(scaleSlice)
			tr.end(id, 1)
			opMS[k] = float64(time.Since(t0)) / 1e6
			cpuMS[k] = float64(cpuTime()-cpu0) / 1e6
			if err != nil {
				res.fail(err)
			}
			// Slice digests use the cheap accessors only: Metrics() at
			// n=251 would allocate inside the pass.
			digs[k] = digest{Leader: agreedLeader(c), StabAt: c.Now()}
		}
		id := tr.begin("star", "Report")
		rep := c.Report()
		tr.end(id, 1)
		ctr := countersOf(c, rep)
		digs[scaleSlices-1] = digestOf(c, rep, ctr)
		id = tr.begin("star", "Close")
		c.Close()
		tr.end(id, 1)
		res.rounds = append(res.rounds, roundCost{cost: readUsage().since(u0), ops: scaleSlices})
		tr.end(sp, scaleSlices)
		res.opMS, res.totalMS, res.cpuMS = append(res.opMS, opMS), append(res.totalMS, opMS), append(res.cpuMS, cpuMS)
		if p == 0 {
			first, res.ctr = digs, ctr
			res.checkSettled(digs)
		} else {
			res.checkReplay(p, first, digs)
		}
	}
	return res
}

// checkSettled is sim-scale-n251's liveness check over one pass's digests:
// past the transient every slice ends with the live processes agreed on a
// live leader, and the pass's Report calls the run stabilised.
func (r *simResult) checkSettled(digs []digest) {
	for k, d := range digs[scaleSettled:] {
		if d.Leader == star.None {
			r.fail(fmt.Errorf("slice %d ended without agreement on a live leader", scaleSettled+k))
		}
	}
	if last := digs[len(digs)-1]; last.Leader != star.None && last.StabAt < 0 {
		r.fail(fmt.Errorf("the pass ended agreed on %d but its report is not stabilised", last.Leader))
	}
}
