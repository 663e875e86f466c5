package harness

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/star"
)

// domainSignature flattens every domain-visible metric of a Result into a
// string, so two runs can be compared byte-for-byte. Wall-clock Elapsed is
// deliberately excluded; everything else a run produces must be a pure
// function of (config, seed).
func domainSignature(r *Result) string {
	return fmt.Sprintf(
		"events=%d net=%+v report={stab=%v at=%v leader=%d changes=%d samples=%d lastDis=%v} "+
			"maxLevel=%d B=%d boundOK=%v spread=%d rounds=%d timeouts=%v stable=%v leaders=%v levels=%v",
		r.Metrics.Events, r.Net,
		r.Report.Stabilized, r.Report.StabilizedAt, r.Report.Leader,
		r.Report.Changes, r.Report.Samples, r.Report.LastDisagreement,
		r.MaxSuspLevel, r.BoundB, r.BoundOK, r.SpreadViolations, r.RoundsDone,
		r.FinalTimeouts, r.TimeoutsStable, r.LeaderAtEnd, r.FinalLevels,
	)
}

// TestRunDeterministicAcrossRepeats verifies the regression contract the
// allocation-free scheduler and pooled network must preserve: the same seed
// and config produce identical domain metrics — events executed, per-kind
// message counters, stabilization verdict and time — on every run, through
// the star façade.
func TestRunDeterministicAcrossRepeats(t *testing.T) {
	cfgs := []Config{
		{
			N: 5, T: 2, Seed: 7,
			Scenario: star.Combined(),
			Algo:     star.Fig3,
			Duration: 3 * time.Second,
		},
		{
			N: 4, T: 1, Seed: 99,
			Scenario: star.Intermittent(star.Gap(3)),
			Algo:     star.Fig2,
			Duration: 3 * time.Second,
		},
		{
			N: 5, T: 2, Seed: 13,
			Scenario: star.Pattern(),
			Algo:     star.TimeFree,
			Duration: 3 * time.Second,
		},
	}
	for _, cfg := range cfgs {
		cfg := cfg
		t.Run(string(cfg.Algo)+"/"+cfg.Scenario.Family(), func(t *testing.T) {
			t.Parallel()
			a, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sa, sb := domainSignature(a), domainSignature(b)
			if sa != sb {
				t.Errorf("same seed diverged:\n run1: %s\n run2: %s", sa, sb)
			}
		})
	}
}

// TestRunConsensusDeterministic covers the Theorem 5 stack: the consensus
// retry loop and the gate's crash sweep once iterated Go maps, which
// randomized the whole message schedule under identical seeds. Two
// same-config runs must agree on every counter.
func TestRunConsensusDeterministic(t *testing.T) {
	cfg := ConsensusConfig{
		N: 5, T: 2, Seed: 42,
		Scenario:  star.Intermittent(star.Gap(3), star.CrashAt(4, time.Second)),
		Instances: 5,
		Duration:  10 * time.Second,
	}
	a, err := RunConsensus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunConsensus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sa := fmt.Sprintf("%+v", a)
	sb := fmt.Sprintf("%+v", b)
	if sa != sb {
		t.Errorf("same seed diverged:\n run1: %s\n run2: %s", sa, sb)
	}
}

// TestRunGridWorkerCountInvariance verifies that fanning grid cells across a
// worker pool changes neither the cell order nor any per-cell result: a
// sequential grid and a NumCPU-wide grid must be indistinguishable.
func TestRunGridWorkerCountInvariance(t *testing.T) {
	spec := GridSpec{
		N: 4, T: 1, Seed: 21,
		Duration: 2 * time.Second,
		Families: []string{"tsource", "intermittent"},
		Algos:    []star.Algo{star.Fig2, star.Fig3, star.Stable},
	}
	seq := spec
	seq.Workers = 1
	parl := spec
	parl.Workers = runtime.NumCPU()

	a := RunGrid(seq)
	b := RunGrid(parl)
	if len(a) != len(b) {
		t.Fatalf("cell counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Family != b[i].Family || a[i].Algo != b[i].Algo {
			t.Fatalf("cell %d order differs: %s/%s vs %s/%s",
				i, a[i].Family, a[i].Algo, b[i].Family, b[i].Algo)
		}
		if (a[i].Err == nil) != (b[i].Err == nil) {
			t.Fatalf("cell %d error mismatch: %v vs %v", i, a[i].Err, b[i].Err)
		}
		if a[i].Err != nil {
			continue
		}
		sa, sb := domainSignature(a[i].Result), domainSignature(b[i].Result)
		if sa != sb {
			t.Errorf("cell %d (%s/%s) differs by worker count:\n workers=1: %s\n workers=%d: %s",
				i, a[i].Family, a[i].Algo, sa, parl.Workers, sb)
		}
	}
}
