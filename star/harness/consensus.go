package harness

import (
	"fmt"
	"time"

	"repro/star"
)

// ConsensusConfig describes a Theorem 5 run: Ω and consensus co-hosted in
// every process, a batch of instances proposed by everyone, and a verdict
// over decisions.
type ConsensusConfig struct {
	// N, T and Seed parameterize the system; Theorem 5 needs t < n/2.
	N, T int
	Seed uint64

	// Scenario selects the assumption scenario (zero means Combined).
	Scenario star.ScenarioSpec

	// Algo is the Ω variant to co-host. Empty means star.Fig3.
	Algo star.Algo

	// Instances is how many consensus instances to run. 0 means 10.
	Instances int

	// ProposeAt is when every process proposes (virtual). 0 means 100ms.
	ProposeAt time.Duration

	// Duration is the virtual run length. 0 means 60s.
	Duration time.Duration
}

// ConsensusResult is the outcome of a Theorem 5 run.
type ConsensusResult struct {
	// Decided counts instances decided at every correct process.
	Decided int
	// Agreement and Validity report the safety checks.
	Agreement, Validity bool
	// FirstDecision and LastDecision are virtual decision times
	// (measured at the first process to learn each instance).
	FirstDecision, LastDecision time.Duration
	// MeanLatency is the mean instance latency from propose to the
	// first learn.
	MeanLatency time.Duration
	// NetStats aggregates network counters.
	NetStats star.NetStats
	// Ballots counts ballots started across all processes.
	Ballots uint64
}

// RunConsensus executes a Theorem 5 configuration through the façade: the
// consensus lane is enabled with star.WithConsensus, decision times are
// taken from the EventDecide stream, and the safety verdicts from Decided.
func RunConsensus(cfg ConsensusConfig) (*ConsensusResult, error) {
	if cfg.Algo == "" {
		cfg.Algo = star.Fig3
	}
	if cfg.Instances == 0 {
		cfg.Instances = 10
	}
	if cfg.ProposeAt == 0 {
		cfg.ProposeAt = 100 * time.Millisecond
	}
	if cfg.Duration == 0 {
		cfg.Duration = 60 * time.Second
	}
	if 2*cfg.T >= cfg.N {
		return nil, fmt.Errorf("%w: Theorem 5 needs t < n/2, got n=%d t=%d",
			star.ErrInvalidParams, cfg.N, cfg.T)
	}

	firstLearn := make(map[int64]time.Duration)
	c, err := star.New(
		star.N(cfg.N), star.Resilience(cfg.T), star.Seed(cfg.Seed),
		star.Algorithm(cfg.Algo), star.Scenario(cfg.Scenario),
		star.UnboundedRetention(),
		star.WithConsensus(nil),
		star.Observe(star.EventDecide, func(ev star.Event) {
			if _, ok := firstLearn[ev.Round]; !ok {
				firstLearn[ev.Round] = ev.At
			}
		}),
	)
	if err != nil {
		return nil, err
	}
	defer c.Close()

	if err := c.Run(cfg.ProposeAt); err != nil {
		return nil, err
	}
	for inst := 0; inst < cfg.Instances; inst++ {
		for p := 0; p < cfg.N; p++ {
			if err := c.Propose(p, int64(inst), int64(p*1000+inst)); err != nil {
				return nil, err
			}
		}
	}
	if err := c.Run(cfg.Duration - cfg.ProposeAt); err != nil {
		return nil, err
	}

	res := &ConsensusResult{Agreement: true, Validity: true, NetStats: c.Metrics().Net}
	var latencySum time.Duration
	for inst := 0; inst < cfg.Instances; inst++ {
		var val int64
		decidedEverywhere := true
		seen := false
		for p := 0; p < cfg.N; p++ {
			if c.EverCrashed(p) {
				// A churned process is faulty in the crash-stop model;
				// Theorem 5's verdicts cover the never-crashed set.
				continue
			}
			v, ok := c.Decided(p, int64(inst))
			if !ok {
				decidedEverywhere = false
				continue
			}
			if !seen {
				val, seen = v, true
			} else if v != val {
				res.Agreement = false
			}
		}
		if seen {
			valid := false
			for p := 0; p < cfg.N; p++ {
				if val == int64(p*1000+inst) {
					valid = true
				}
			}
			if !valid {
				res.Validity = false
			}
		}
		if decidedEverywhere && seen {
			res.Decided++
		}
		if at, ok := firstLearn[int64(inst)]; ok {
			latencySum += at - cfg.ProposeAt
			if res.FirstDecision == 0 || at < res.FirstDecision {
				res.FirstDecision = at
			}
			if at > res.LastDecision {
				res.LastDecision = at
			}
		}
	}
	if n := len(firstLearn); n > 0 {
		res.MeanLatency = latencySum / time.Duration(n)
	}
	res.Ballots = c.Ballots()
	return res, nil
}

// RunConsensusAll executes every config on a worker pool, results in input
// order; the first error wins.
func RunConsensusAll(cfgs []ConsensusConfig, workers int) ([]*ConsensusResult, error) {
	return runEach(cfgs, workers, RunConsensus)
}
