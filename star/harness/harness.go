// Package harness runs complete, measured experiments on top of the star
// façade: one Config names a system (size, resilience, algorithm,
// assumption scenario, duration, any further star options) and Run executes
// it on the deterministic simulator and returns star's own Report and
// Metrics. Every experiment in cmd/experiments, every integration test and
// every benchmark goes through Run; the grid (RunGrid), churn (ChurnConfig),
// consensus (RunConsensus) and federation (RunFed) drivers build on it.
//
// The harness adds no execution machinery and no settable value of its
// own: clusters are built and driven exclusively through package star
// (repro/star), which makes it both the reference consumer of the public
// API and the place where runs become comparable tables.
package harness

import (
	"fmt"
	"time"

	"repro/internal/par"
	"repro/star"
)

// Config describes one run. It holds the values experiments label their
// tables with or vary per iteration; every other knob is a star option in
// Options.
type Config struct {
	// N is the system size, T the resilience (max crashes tolerated).
	N, T int
	// Seed makes the run deterministic.
	Seed uint64
	// Algo selects the Ω implementation.
	Algo star.Algo
	// Scenario selects the assumption scenario (family + knobs). The
	// zero spec means Combined, the paper's A'.
	Scenario star.ScenarioSpec
	// Duration is the virtual run length. 0 means 20s.
	Duration time.Duration
	// Options are applied after the harness's own (N, Resilience, Seed,
	// Algorithm, Scenario and UnboundedRetention), so they may override
	// any of them.
	Options []star.Option
}

// Result is what a run produced: star's verdict and its counters.
type Result struct {
	star.Report
	Metrics star.Metrics
}

// options translates a Config into the star option list. Experiments
// reproduce the paper, so history is unbounded unless Options bound it.
// star's default retention would change results: on the C1 grid (seed 42,
// 120s) its unbounded spike drift and growing outages push the SUSPICION
// lag past the default horizon, NodeMetrics.BelowHorizon reads above 0 in
// 31 of 40 core-algorithm cells, and movingsource/timefree stops
// stabilizing (TestGridNeedsUnboundedRetention).
func (c Config) options() []star.Option {
	opts := []star.Option{
		star.N(c.N),
		star.Resilience(c.T),
		star.Seed(c.Seed),
		star.Algorithm(c.Algo),
		star.Scenario(c.Scenario),
		star.UnboundedRetention(),
	}
	return append(opts, c.Options...)
}

// Run executes one configured simulation and returns its results.
func Run(cfg Config) (*Result, error) {
	if cfg.Duration == 0 {
		cfg.Duration = 20 * time.Second
	}
	c, err := star.New(cfg.options()...)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	if err := c.Run(cfg.Duration); err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}
	return &Result{Report: *c.Report(), Metrics: c.Metrics()}, nil
}

// RunAll executes every config on a worker pool and returns results in
// input order (each run is deterministic and self-contained, so parallel
// execution cannot change any result). workers <= 0 means one per
// GOMAXPROCS; the first error wins.
func RunAll(cfgs []Config, workers int) ([]*Result, error) {
	return runEach(cfgs, workers, Run)
}

// runEach applies run to every config on a worker pool, results in input
// order; the first error (in input order) wins.
func runEach[C, R any](cfgs []C, workers int, run func(C) (R, error)) ([]R, error) {
	results := make([]R, len(cfgs))
	errs := make([]error, len(cfgs))
	par.ForEach(len(cfgs), workers, func(i int) {
		results[i], errs[i] = run(cfgs[i])
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}
