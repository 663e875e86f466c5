// Command starsim runs one leader-election scenario on the deterministic
// simulator and prints a report. It is the interactive entry point for
// exploring the system; the full experiment suite lives in cmd/experiments.
// It is built entirely on the public API: a single run drives a star.Cluster
// directly, and -fed runs a federation through harness.RunFed, the same
// driver (and, with -traffic, the same broadcast schedule) as experiment
// FED.
//
// Examples:
//
//	go run ./cmd/starsim                                  # defaults
//	go run ./cmd/starsim -family intermittent -algo fig1 -d 4 -duration 60s
//	go run ./cmd/starsim -n 9 -t 4 -algo fig3 -crash 2@3s -crash 5@6s
//	go run ./cmd/starsim -family tsource -algo timefree -seed 7 -timeline
//	go run ./cmd/starsim -fed 8x16 -duration 10s          # federated two-tier run
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/star"
	"repro/star/harness"
)

// crash is one -crash id@time flag entry.
type crash struct {
	id int
	at time.Duration
}

// crashList implements flag.Value for repeated -crash id@time flags.
type crashList []crash

func (c *crashList) String() string {
	var parts []string
	for _, cr := range *c {
		parts = append(parts, fmt.Sprintf("%d@%v", cr.id, cr.at))
	}
	return strings.Join(parts, ",")
}

func (c *crashList) Set(s string) error {
	id, at, ok := strings.Cut(s, "@")
	if !ok {
		return fmt.Errorf("want id@duration, e.g. 2@3s, got %q", s)
	}
	pid, err := strconv.Atoi(id)
	if err != nil {
		return fmt.Errorf("bad process id %q: %w", id, err)
	}
	d, err := time.ParseDuration(at)
	if err != nil {
		return fmt.Errorf("bad crash time %q: %w", at, err)
	}
	*c = append(*c, crash{id: pid, at: d})
	return nil
}

func main() {
	var (
		family   = flag.String("family", "combined", "assumption family: "+strings.Join(star.Families(), "|"))
		algo     = flag.String("algo", "fig3", "algorithm: fig1|fig2|fig3|fg|stable|timefree")
		n        = flag.Int("n", 5, "number of processes")
		t        = flag.Int("t", 2, "resilience (max crashes tolerated)")
		center   = flag.Int("center", 0, "star center process id")
		d        = flag.Int64("d", 1, "intermittence gap D (star every D rounds)")
		delta    = flag.Duration("delta", 2*time.Millisecond, "timeliness bound delta")
		duration = flag.Duration("duration", 20*time.Second, "virtual run length")
		seed     = flag.Uint64("seed", 1, "random seed")
		spread   = flag.Bool("checkspread", false, "verify the Lemma 8 invariant on every delivery")
		timeline = flag.Bool("timeline", false, "print the leader timeline (changes only)")
		fed      = flag.String("fed", "", "federated mode: simulate an SxM federation (S shards of M processes plus a tier-2 delegate cluster), e.g. -fed 8x16")
		traffic  = flag.Int("traffic", 0, "federated mode: drive N waves of global-lane broadcasts (one per shard per wave) through the federation's total-order lanes")
		crashes  crashList
	)
	flag.Var(&crashes, "crash", "crash schedule entry id@time (repeatable), e.g. -crash 2@3s")
	flag.Parse()

	algorithm, err := star.ParseAlgorithm(*algo)
	if err != nil {
		fatal(err)
	}
	if *fed != "" {
		if err := runFed(*fed, algorithm, *seed, *duration, *traffic); err != nil {
			fatal(err)
		}
		return
	}
	scOpts := []star.ScenarioOption{
		star.Center(*center),
		star.Gap(*d),
		star.Delta(*delta),
	}
	for _, cr := range crashes {
		scOpts = append(scOpts, star.CrashAt(cr.id, cr.at))
	}
	spec, err := star.Family(*family, scOpts...)
	if err != nil {
		fatal(err)
	}
	opts := []star.Option{
		star.N(*n), star.Resilience(*t), star.Seed(*seed),
		star.Algorithm(algorithm), star.Scenario(spec),
		star.UnboundedRetention(), // paper-faithful exploration
	}
	if *spread {
		opts = append(opts, star.CheckSpread())
	}
	c, err := star.New(opts...)
	if err != nil {
		fatal(err)
	}
	defer c.Close()

	wall := time.Now()
	if err := c.Run(*duration); err != nil {
		fatal(err)
	}
	elapsed := time.Since(wall)
	res := c.Report()
	m := c.Metrics()

	fmt.Printf("scenario   %s — %s\n", c.ScenarioName(), c.ScenarioDescription())
	fmt.Printf("system     n=%d t=%d seed=%d\n", *n, *t, *seed)
	fmt.Printf("algorithm  %s for %v of virtual time (%v wall)\n", algorithm, *duration, elapsed.Round(time.Millisecond))
	fmt.Println()
	if res.Stabilized {
		fmt.Printf("ELECTED    process %d at %v (all correct processes agree through the end)\n",
			res.Leader, res.StabilizationTime())
	} else {
		fmt.Printf("NO STABLE LEADER (last disagreement at %v)\n", res.LastDisagreement)
	}
	fmt.Printf("churn      %d leadership changes over %d samples\n", res.Changes, res.Samples)
	fmt.Printf("messages   %d sent (%d bytes), %d delivered, %d to crashed processes\n",
		m.Net.Sent, m.Net.Bytes, m.Net.Delivered, m.Net.Dropped)
	for _, ks := range m.Net.PerKind {
		fmt.Printf("           %-10s %8d (%d bytes)\n", ks.Kind, ks.Count, ks.Bytes)
	}
	fmt.Printf("events     %d simulator events\n", m.Events)
	if res.RoundsDone > 0 {
		fmt.Printf("rounds     %d receiving rounds completed\n", res.RoundsDone)
		fmt.Printf("levels     max ever %d, empirical B %d (Theorem 4 bound holds: %v)\n",
			res.MaxSuspLevel, res.BoundB, res.BoundOK)
		fmt.Printf("timeouts   stable: %v, final per process: %v\n", res.TimeoutsStable, res.FinalTimeouts)
	}
	if *spread {
		fmt.Printf("lemma 8    %d spread violations (want 0)\n", res.SpreadViolations)
	}
	fmt.Printf("leaders    at end: %v\n", res.LeaderAtEnd)

	if *timeline {
		fmt.Println("\nleader timeline (changes of process 0's estimate):")
		prev := star.None - 1
		for _, s := range res.Timeline {
			l := s.Leaders[0]
			if l != prev {
				fmt.Printf("  %10v  leader=%d  all=%v\n", s.At.Round(time.Millisecond), l, s.Leaders)
				prev = l
			}
		}
	}
}

// runFed simulates a whole federation (star.Federation) through
// harness.RunFed: S shards of M processes each electing locally, shard
// leaders delegated into a tier-2 cluster whose election names the global
// leader-of-leaders. With -traffic the run follows the harness's traffic
// schedule, so a starsim run cross-checks an experiment row. Deterministic:
// the same shape, algorithm and seed reproduce the report byte for byte.
func runFed(shape string, algorithm star.Algo, seed uint64, duration time.Duration, traffic int) error {
	shards, size, err := harness.ParseShape(shape)
	if err != nil {
		return fmt.Errorf("-fed: %w", err)
	}
	res, err := harness.RunFed(harness.FedSpec{
		Shards: shards, ShardSize: size, Seed: seed, Algo: algorithm,
		Duration: duration, Traffic: traffic,
	})
	if err != nil {
		return err
	}
	fr := res.Federation

	fmt.Printf("federation %d shards x %d processes = %d total, tier of %d delegates\n",
		fr.Shards, fr.ShardSize, fr.Shards*fr.ShardSize, fr.Shards)
	fmt.Printf("system     seed=%d algorithm=%s for %v of virtual time (%v wall)\n",
		seed, algorithm, duration, res.Elapsed.Round(time.Millisecond))
	fmt.Println()
	if fr.TierStabilized {
		fmt.Printf("GLOBAL     process %d (shard %d) at %v (stable through the end)\n",
			fr.GlobalLeader, fr.GlobalLeader/fr.ShardSize, fr.TierStabilization)
	} else {
		fmt.Println("NO STABLE GLOBAL LEADER")
	}
	fmt.Printf("shards     leaders at end: %v\n", fr.ShardLeaders)
	fmt.Printf("handoffs   %d issued, %d superseded frames rejected, %d pressure deposals\n",
		fr.Handoffs, fr.RejectedFrames, fr.Pressure)
	fmt.Printf("timeline   %d global-leader changes over %d samples\n", fr.GlobalChanges, fr.Samples)
	fmt.Printf("invariants %d violations\n", fr.TotalViolations)
	for _, v := range fr.Violations {
		fmt.Printf("           at=%v rule=%s detail=%q\n", v.At, v.Rule, v.Detail)
	}
	if traffic > 0 {
		fmt.Printf("global     %d lane entries committed (%d decisions, %d redeliveries, %d stale submits, %d dup frames), log hash %016x\n",
			res.GlobalSeq, fr.GlobalDecisions, fr.Redeliveries, fr.StaleSubmits, fr.DupLaneFrames, res.GlobalHash)
		fmt.Printf("migrations %d executed\n", fr.Migrations)
	}
	fmt.Printf("events     %d simulator events across %d clusters\n", res.Events, fr.Shards+1)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "starsim:", err)
	os.Exit(1)
}
