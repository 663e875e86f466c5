// Benchmarks: one per experiment in DESIGN.md. Each benchmark iteration
// executes a complete (shortened) simulation of the corresponding
// experiment and reports domain metrics alongside the usual ns/op:
//
//	stab_ms     virtual stabilization time (milliseconds)
//	events/op   simulator events executed per run
//	vevents/s   simulator throughput (virtual events per wall second)
//	msgs/op     messages sent per run
//
// The full-length experiments (with tables) are produced by
// `go run ./cmd/experiments`; these benches use shorter horizons so that
// `go test -bench=. -benchmem` stays fast while still exercising every
// experiment path. Everything goes through the public star façade
// (repro/star + repro/star/harness), so the numbers measure what users get.
package repro_test

import (
	"fmt"
	"testing"
	"time"

	"repro/star"
	"repro/star/harness"
)

// benchRun executes one harness run and reports standard metrics.
func benchRun(b *testing.B, cfg harness.Config) {
	b.Helper()
	b.ReportAllocs()
	var events, msgs uint64
	var stab time.Duration
	var elapsed time.Duration
	for i := 0; i < b.N; i++ {
		// Vary the seed per iteration so the benchmark averages over
		// schedules rather than re-measuring one.
		cfg.Seed = uint64(i) + 1
		res, err := harness.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		events += res.Events
		msgs += res.NetStats.Sent
		elapsed += res.Elapsed
		if res.Report.Stabilized {
			stab += res.StabilizationTime()
		}
	}
	n := float64(b.N)
	b.ReportMetric(float64(events)/n, "events/op")
	b.ReportMetric(float64(msgs)/n, "msgs/op")
	b.ReportMetric(float64(stab.Milliseconds())/n, "stab_ms")
	if elapsed > 0 {
		b.ReportMetric(float64(events)/elapsed.Seconds(), "vevents/s")
	}
}

// BenchmarkF1Election measures election under the A' families for each core
// variant (experiment F1-ELECT).
func BenchmarkF1Election(b *testing.B) {
	for _, algo := range []harness.Algorithm{harness.AlgoFig1, harness.AlgoFig2, harness.AlgoFig3} {
		b.Run(string(algo), func(b *testing.B) {
			benchRun(b, harness.Config{
				N: 5, T: 2,
				Scenario: star.Combined(),
				Algo:     algo,
				Duration: 5 * time.Second,
			})
		})
	}
}

// BenchmarkF2Intermittent measures the intermittent-star runs that separate
// Figure 1 from Figures 2/3 (experiment F2-INTERMIT).
func BenchmarkF2Intermittent(b *testing.B) {
	for _, algo := range []harness.Algorithm{harness.AlgoFig1, harness.AlgoFig2, harness.AlgoFig3} {
		b.Run(string(algo), func(b *testing.B) {
			benchRun(b, harness.Config{
				N: 5, T: 2,
				Scenario: star.Intermittent(star.Gap(4)),
				Algo:     algo,
				Duration: 10 * time.Second,
			})
		})
	}
}

// BenchmarkF3Bounded measures the bounded-variable runs with a crash and
// full invariant checking (experiment F3-BOUNDED).
func BenchmarkF3Bounded(b *testing.B) {
	benchRun(b, harness.Config{
		N: 5, T: 2,
		Scenario: star.Intermittent(
			star.Gap(3), star.Center(1),
			star.CrashAt(3, time.Second)),
		Algo:        harness.AlgoFig3,
		Duration:    10 * time.Second,
		CheckSpread: true,
	})
}

// BenchmarkF4FG measures the §7 algorithm under growing gaps and delays
// (experiment F4-FG).
func BenchmarkF4FG(b *testing.B) {
	benchRun(b, harness.Config{
		N: 5, T: 2,
		Scenario: star.IntermittentFG(
			star.Gap(4),
			star.Growth(
				func(k int64) int64 { return k / 2 },
				func(rn int64) time.Duration { return time.Duration(rn) * 20 * time.Microsecond })),
		Algo:     harness.AlgoFG,
		Duration: 10 * time.Second,
	})
}

// BenchmarkT5Consensus measures the Ω+consensus stack (experiment
// T5-CONSENSUS): instances decided per run and their latency.
func BenchmarkT5Consensus(b *testing.B) {
	b.ReportAllocs()
	var decided int
	var latency time.Duration
	for i := 0; i < b.N; i++ {
		res, err := harness.RunConsensus(harness.ConsensusConfig{
			N: 5, T: 2, Seed: uint64(i) + 1,
			Scenario:  star.Combined(),
			Instances: 10,
			Duration:  15 * time.Second,
		})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Agreement || !res.Validity {
			b.Fatal("safety violated")
		}
		decided += res.Decided
		latency += res.MeanLatency
	}
	b.ReportMetric(float64(decided)/float64(b.N), "decided/op")
	b.ReportMetric(float64(latency.Milliseconds())/float64(b.N), "latency_ms")
}

// BenchmarkC1GridCell measures representative coverage-grid cells
// (experiment C1-COVERAGE): the adversarial families are the heaviest
// simulations in the suite.
func BenchmarkC1GridCell(b *testing.B) {
	spec := harness.GridSpec{N: 5, T: 2, Duration: 10 * time.Second}
	cells := []struct {
		fam  string
		algo harness.Algorithm
	}{
		{"alltimely", harness.AlgoStable},
		{"pattern", harness.AlgoTimeFree},
		{"intermittent", harness.AlgoFig3},
	}
	for _, c := range cells {
		b.Run(c.fam+"/"+string(c.algo), func(b *testing.B) {
			cfg := harness.GridCellConfig(spec, c.fam, c.algo)
			benchRun(b, cfg)
		})
	}
}

// BenchmarkQ1GapSweep measures stabilization cost as the intermittence gap
// D grows (experiment Q1-STAB-D).
func BenchmarkQ1GapSweep(b *testing.B) {
	for _, d := range []int64{1, 4, 16} {
		b.Run(fmt.Sprintf("D=%d", d), func(b *testing.B) {
			benchRun(b, harness.Config{
				N: 5, T: 2,
				Scenario: star.Intermittent(star.Gap(d)),
				Algo:     harness.AlgoFig3,
				Duration: 10 * time.Second,
			})
		})
	}
}

// BenchmarkQ2Scale measures simulator and protocol cost as the system grows
// (experiment Q2-STAB-N). The n=25/51/101 points are the large-n scaling
// story the zero-allocation protocol layer unlocks: message volume grows
// quadratically, so per-message allocation dominates everything at these
// sizes. The n=251/501/1001 points run shorter virtual horizons — message
// volume per virtual second grows ~n^2, and stabilization lands well inside
// even the 300ms horizon — and exist as the flat baseline for
// BenchmarkFEDScale's hierarchy comparison.
func BenchmarkQ2Scale(b *testing.B) {
	points := []struct {
		n   int
		dur time.Duration
	}{
		{3, 5 * time.Second}, {5, 5 * time.Second}, {9, 5 * time.Second},
		{13, 5 * time.Second}, {25, 5 * time.Second}, {51, 5 * time.Second},
		{101, 5 * time.Second},
		{251, 2 * time.Second}, {501, time.Second}, {1001, 300 * time.Millisecond},
	}
	for _, p := range points {
		b.Run(fmt.Sprintf("n=%d", p.n), func(b *testing.B) {
			benchRun(b, harness.Config{
				N: p.n, T: (p.n - 1) / 2,
				Scenario: star.Combined(),
				Algo:     harness.AlgoFig3,
				Duration: p.dur,
			})
		})
	}
}

// BenchmarkFEDScale pits the federated hierarchy against a flat cluster of
// comparable total size (experiment FED). Both sides run **until
// stabilized**: each iteration re-runs the simulation over doubling virtual
// horizons until the (global) election reports stable, so ns/op is the
// wall-clock cost of reaching a stable leader. The flat side starts from a
// short horizon (its election settles in tens of virtual milliseconds, but
// every virtual second costs O(n^2) messages); the federated side starts
// from a longer one (tier-2 handoffs ride atomic broadcast, so global
// stabilization takes virtual seconds, but each virtual second costs only
// O(S*M^2 + S^2)). The scaling story is in how ns/op grows with n: ~n^2
// flat vs ~n at M≈sqrt(n) sharding.
func BenchmarkFEDScale(b *testing.B) {
	pairs := []struct {
		flatN        int
		shards, size int
	}{
		{251, 16, 16},
		{501, 16, 32},
		{1001, 32, 32},
	}
	for _, p := range pairs {
		b.Run(fmt.Sprintf("flat/n=%d", p.flatN), func(b *testing.B) {
			benchUntilStable(b, func(seed uint64, horizon time.Duration) (bool, time.Duration, uint64, error) {
				res, err := harness.Run(harness.Config{
					N: p.flatN, T: (p.flatN - 1) / 2, Seed: seed,
					Scenario: star.Combined(),
					Algo:     harness.AlgoFig3,
					Duration: horizon,
				})
				if err != nil {
					return false, 0, 0, err
				}
				return res.Report.Stabilized, res.StabilizationTime(), res.Events, nil
			}, 100*time.Millisecond)
		})
		b.Run(fmt.Sprintf("sharded/%dx%d", p.shards, p.size), func(b *testing.B) {
			benchUntilStable(b, func(seed uint64, horizon time.Duration) (bool, time.Duration, uint64, error) {
				res, err := harness.RunFed(harness.FedSpec{
					Shards: p.shards, ShardSize: p.size, Seed: seed,
					Epoch:    25 * time.Millisecond,
					Duration: horizon,
				})
				if err != nil {
					return false, 0, 0, err
				}
				return res.Federation.TierStabilized, res.Federation.TierStabilization, res.Events, nil
			}, time.Second)
		})
	}
}

// benchUntilStable drives one try function over doubling virtual horizons
// (start, 2*start, ...) until it reports stabilization, per iteration.
func benchUntilStable(b *testing.B, try func(seed uint64, horizon time.Duration) (bool, time.Duration, uint64, error), start time.Duration) {
	b.Helper()
	b.ReportAllocs()
	const maxHorizon = 16 * time.Second
	var events uint64
	var stab time.Duration
	for i := 0; i < b.N; i++ {
		seed := uint64(i) + 1
		ok := false
		for horizon := start; horizon <= maxHorizon; horizon *= 2 {
			stable, at, ev, err := try(seed, horizon)
			if err != nil {
				b.Fatal(err)
			}
			events += ev
			if stable {
				stab += at
				ok = true
				break
			}
		}
		if !ok {
			b.Fatalf("seed %d: no stabilization within %v", seed, maxHorizon)
		}
	}
	n := float64(b.N)
	b.ReportMetric(float64(events)/n, "events/op")
	b.ReportMetric(float64(stab.Milliseconds())/n, "stab_ms")
}

// BenchmarkFedLane measures the global application lanes (DESIGN.md §11):
// each iteration runs a federation with the lanes up and drives waves of
// cross-shard broadcasts through the full routing path — shard lane → tier
// total order → back down every shard's lane — on the fork/join epoch loop
// (one worker per GOMAXPROCS; run with -cpu 1 for the inline shard-order
// loop).
func BenchmarkFedLane(b *testing.B) {
	shapes := []struct {
		shards, size int
		label        string
	}{
		{4, 8, "4x8"},
		{8, 16, "8x16"},
	}
	for _, sh := range shapes {
		b.Run(sh.label, func(b *testing.B) {
			b.ReportAllocs()
			var events, entries uint64
			var elapsed time.Duration
			for i := 0; i < b.N; i++ {
				res, err := harness.RunFed(harness.FedSpec{
					Shards: sh.shards, ShardSize: sh.size, Seed: uint64(i) + 1,
					Epoch: 25 * time.Millisecond, Duration: 6 * time.Second,
					Traffic: 4,
				})
				if err != nil {
					b.Fatal(err)
				}
				if !res.GlobalAgree {
					b.Fatal("members disagree on the global sequence")
				}
				entries += uint64(res.GlobalSeq)
				events += res.Events
				elapsed += res.Elapsed
			}
			n := float64(b.N)
			b.ReportMetric(float64(entries)/n, "gseq/op")
			b.ReportMetric(float64(events)/n, "events/op")
			if elapsed > 0 {
				b.ReportMetric(float64(events)/elapsed.Seconds(), "vevents/s")
			}
		})
	}
}

// BenchmarkCHChurn measures the churn preset (experiment CH): rotating
// crash/recovery, late-message floods and ring-window evictions under
// adversarial round skew.
func BenchmarkCHChurn(b *testing.B) {
	b.ReportAllocs()
	var events uint64
	var stab, elapsed time.Duration
	for i := 0; i < b.N; i++ {
		res, err := harness.Run(harness.ChurnConfig(harness.ChurnSpec{
			N: 5, T: 2, Seed: uint64(i) + 1,
			Duration: 10 * time.Second,
		}))
		if err != nil {
			b.Fatal(err)
		}
		if !res.Report.Stabilized {
			b.Fatalf("seed %d: churn run did not stabilize", i+1)
		}
		events += res.Events
		elapsed += res.Elapsed
		stab += res.StabilizationTime()
	}
	n := float64(b.N)
	b.ReportMetric(float64(events)/n, "events/op")
	b.ReportMetric(float64(stab.Milliseconds())/n, "stab_ms")
	if elapsed > 0 {
		b.ReportMetric(float64(events)/elapsed.Seconds(), "vevents/s")
	}
}

// BenchmarkQ3DeltaSweep measures timeout calibration against the timeliness
// bound (experiment Q3-TIMEOUT).
func BenchmarkQ3DeltaSweep(b *testing.B) {
	for _, delta := range []time.Duration{time.Millisecond, 5 * time.Millisecond, 20 * time.Millisecond} {
		b.Run(delta.String(), func(b *testing.B) {
			benchRun(b, harness.Config{
				N: 5, T: 2,
				Scenario: star.TSource(star.Delta(delta)),
				Algo:     harness.AlgoFig3,
				Duration: 10 * time.Second,
			})
		})
	}
}

// BenchmarkA1Ablation measures the ablated variants on the schedule where
// the removed mechanism matters (experiment A1-ABLATION).
func BenchmarkA1Ablation(b *testing.B) {
	spec := star.Intermittent(
		star.Gap(3), star.Center(1),
		star.CrashAt(3, time.Second))
	for _, algo := range []harness.Algorithm{harness.AlgoFig1, harness.AlgoFig2, harness.AlgoFig3} {
		b.Run(string(algo), func(b *testing.B) {
			benchRun(b, harness.Config{
				N: 5, T: 2,
				Scenario: spec,
				Algo:     algo,
				Duration: 10 * time.Second,
			})
		})
	}
}
