// Package harness runs complete, measured experiments on top of the star
// façade: one Config describes a system (size, resilience, algorithm,
// assumption scenario, durations) and Run executes it on the deterministic
// simulator, collecting the paper's verdicts — stabilization, Theorem 4
// bounds, Lemma 8 spread, timeout stability — into a Result. Every
// experiment in cmd/experiments, every integration test and every benchmark
// goes through Run; the grid (RunGrid), churn (ChurnConfig) and consensus
// (RunConsensus) drivers build on it.
//
// The harness adds no execution machinery of its own: clusters are built
// and driven exclusively through package star (repro/star), which makes it
// both the reference consumer of the public API and the place where runs
// become comparable tables.
package harness

import (
	"fmt"
	"time"

	"repro/internal/par"
	"repro/star"
)

// Algorithm names an Ω implementation under test (star.Algo, re-exported so
// harness configs read uniformly).
type Algorithm = star.Algo

// The algorithms the harness can run.
const (
	AlgoFig1     = star.Fig1
	AlgoFig2     = star.Fig2
	AlgoFig3     = star.Fig3
	AlgoFG       = star.FG
	AlgoStable   = star.Stable
	AlgoTimeFree = star.TimeFree
)

// Algorithms lists all runnable algorithms (grid experiments iterate this).
func Algorithms() []Algorithm { return star.Algorithms() }

// ParseAlgorithm validates a CLI-provided algorithm name.
func ParseAlgorithm(s string) (Algorithm, error) { return star.ParseAlgorithm(s) }

// Config describes one run.
type Config struct {
	// N is the system size, T the resilience (max crashes tolerated).
	N, T int
	// Seed makes the run deterministic.
	Seed uint64
	// Alpha overrides the reception/suspicion threshold; 0 means N-T.
	Alpha int

	// Scenario selects the assumption scenario (family + knobs). The
	// zero spec means Combined, the paper's A'.
	Scenario star.ScenarioSpec

	// Algo selects the Ω implementation.
	Algo Algorithm

	// AlivePeriod is β for the core algorithms and the beacon period for
	// the baselines. 0 means 10ms.
	AlivePeriod time.Duration
	// TimeoutUnit converts suspicion levels to time (core). 0 means 1ms.
	TimeoutUnit time.Duration
	// Retention bounds per-round bookkeeping; 0 keeps everything (the
	// paper-faithful default for experiments).
	Retention int64

	// Duration is the virtual run length. 0 means 20s.
	Duration time.Duration
	// SampleEvery is the leader-sampling period. 0 means 20ms.
	SampleEvery time.Duration
	// StartSpread staggers process start times in [0, StartSpread].
	// 0 means 5ms.
	StartSpread time.Duration

	// CheckSpread verifies the Lemma 8 invariant after every delivery
	// (only meaningful for fig3/fg).
	CheckSpread bool

	// Recovery attaches a recovery journal (star.WithRecovery): restarted
	// incarnations resume from their last periodic snapshot instead of
	// jumping to the round frontier. The zero value means no journal. The
	// store is caller-owned: with star.MemJournal() per config the run
	// stays a pure function of (options, seed).
	Recovery star.RecoveryStore
	// SnapshotEvery is the journal cadence (needs Recovery). 0 means the
	// star default.
	SnapshotEvery time.Duration

	// MaxEvents aborts runaway simulations. 0 means the star default.
	MaxEvents uint64

	// KeepTimeline retains the sampled leader timeline in the Result
	// (for plots and debugging; off by default to save memory).
	KeepTimeline bool
}

func (c Config) withDefaults() Config {
	if c.AlivePeriod == 0 {
		c.AlivePeriod = 10 * time.Millisecond
	}
	if c.TimeoutUnit == 0 {
		c.TimeoutUnit = time.Millisecond
	}
	if c.Duration == 0 {
		c.Duration = 20 * time.Second
	}
	if c.SampleEvery == 0 {
		c.SampleEvery = 20 * time.Millisecond
	}
	if c.StartSpread == 0 {
		c.StartSpread = 5 * time.Millisecond
	}
	return c
}

// Result aggregates everything a run produced.
type Result struct {
	Config Config

	// ScenarioName and ScenarioDescription echo the built scenario.
	ScenarioName        string
	ScenarioDescription string

	// Report is the eventual-leadership verdict.
	Report star.Stabilization
	// NetStats are the network counters (messages, bytes, drops).
	NetStats star.NetStats
	// Events is the number of simulator events executed.
	Events uint64

	// Core-algorithm observables (zero for baselines):
	MaxSuspLevel     int64  // largest susp_level entry ever seen
	BoundB           int64  // empirical B (min over targets of max level)
	BoundOK          bool   // Theorem 4 verdict
	SpreadViolations uint64 // Lemma 8 violations observed (want 0)
	RoundsDone       int64  // max receiving rounds completed by any node
	FinalTimeouts    []time.Duration
	TimeoutsStable   bool // all correct nodes' timeout series settled
	LeaderAtEnd      []int
	FinalLevels      [][]int64 // susp_level per process at end (core only)

	// Timeline is the sampled leader history (when KeepTimeline is set).
	Timeline []star.LeaderSample

	// CoreMetrics are the per-node counters (core algorithms only).
	CoreMetrics []star.NodeMetrics

	// Recovery summarizes the journal activity (all zero without
	// Config.Recovery).
	Recovery star.RecoveryStats

	// Elapsed is real (wall-clock) time spent simulating.
	Elapsed time.Duration
}

// StabilizationTime returns the virtual time at which the system stabilized
// (or -1 when it did not).
func (r *Result) StabilizationTime() time.Duration {
	if !r.Report.Stabilized {
		return -1
	}
	return r.Report.StabilizedAt
}

// options translates a defaulted Config into the star option list.
func (c Config) options() []star.Option {
	opts := []star.Option{
		star.N(c.N),
		star.Resilience(c.T),
		star.Seed(c.Seed),
		star.Algorithm(c.Algo),
		star.Scenario(c.Scenario),
		star.AlivePeriod(c.AlivePeriod),
		star.TimeoutUnit(c.TimeoutUnit),
		star.SampleEvery(c.SampleEvery),
		star.StartSpread(c.StartSpread),
	}
	if c.Alpha != 0 {
		opts = append(opts, star.Alpha(c.Alpha))
	}
	if c.Retention == 0 {
		// Experiments reproduce the paper: unbounded history unless the
		// config bounds it explicitly.
		opts = append(opts, star.UnboundedRetention())
	} else {
		opts = append(opts, star.Retention(c.Retention))
	}
	if c.MaxEvents != 0 {
		opts = append(opts, star.MaxEvents(c.MaxEvents))
	}
	if c.CheckSpread {
		opts = append(opts, star.CheckSpread())
	}
	if c.Recovery != (star.RecoveryStore{}) {
		opts = append(opts, star.WithRecovery(c.Recovery))
		if c.SnapshotEvery != 0 {
			opts = append(opts, star.SnapshotEvery(c.SnapshotEvery))
		}
	}
	return opts
}

// Run executes one configured simulation and returns its results.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	c, err := star.New(cfg.options()...)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	if err := c.Run(cfg.Duration); err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}
	return gather(cfg, c), nil
}

// gather shapes a finished cluster into a Result.
func gather(cfg Config, c *star.Cluster) *Result {
	rep := c.Report()
	m := c.Metrics()
	res := &Result{
		Config:              cfg,
		ScenarioName:        c.ScenarioName(),
		ScenarioDescription: c.ScenarioDescription(),
		Report:              rep.Stabilization,
		NetStats:            m.Net,
		Events:              m.Events,
		MaxSuspLevel:        rep.MaxSuspLevel,
		BoundB:              rep.BoundB,
		BoundOK:             rep.BoundOK,
		SpreadViolations:    rep.SpreadViolations,
		RoundsDone:          rep.RoundsDone,
		FinalTimeouts:       rep.FinalTimeouts,
		TimeoutsStable:      rep.TimeoutsStable,
		LeaderAtEnd:         rep.LeaderAtEnd,
		FinalLevels:         rep.FinalLevels,
		CoreMetrics:         m.Nodes,
		Recovery:            rep.Recovery,
		Elapsed:             m.Elapsed,
	}
	if cfg.KeepTimeline {
		res.Timeline = rep.Timeline
	}
	return res
}

// RunAll executes every config on a worker pool and returns results in
// input order (each run is deterministic and self-contained, so parallel
// execution cannot change any result). workers <= 0 means one per
// GOMAXPROCS; the first error wins.
func RunAll(cfgs []Config, workers int) ([]*Result, error) {
	results := make([]*Result, len(cfgs))
	errs := make([]error, len(cfgs))
	par.ForEach(len(cfgs), workers, func(i int) {
		results[i], errs[i] = Run(cfgs[i])
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}
