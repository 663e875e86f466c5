package harness

import (
	"time"

	"repro/star"
)

// ChurnSpec parameterizes the churn-heavy preset (experiment CH): processes
// repeatedly crash and come back as fresh incarnations on a rotating
// schedule while the protocol under test keeps electing among the
// never-crashed survivors.
type ChurnSpec struct {
	N, T int
	Seed uint64
	// Algo is the algorithm under churn. Empty means star.Fig3.
	Algo star.Algo
	// Start is when the first crash fires. 0 means 500ms.
	Start time.Duration
	// Period is the time between consecutive crashes. 0 means 2s.
	Period time.Duration
	// Downtime is how long each victim stays down. 0 means 600ms.
	Downtime time.Duration
	// Duration is the virtual run length. 0 means 30s.
	Duration time.Duration
	// Recovery attaches a fresh in-memory recovery journal: restarted
	// incarnations resume from their last snapshot (the crash-recovery
	// path) instead of the fresh-start round-frontier jump. The journal
	// is deterministic, so the run stays reproducible seed for seed.
	Recovery bool
}

func (s ChurnSpec) withDefaults() ChurnSpec {
	if s.Algo == "" {
		s.Algo = star.Fig3
	}
	if s.Start == 0 {
		s.Start = 500 * time.Millisecond
	}
	if s.Period == 0 {
		s.Period = 2 * time.Second
	}
	if s.Downtime == 0 {
		s.Downtime = 600 * time.Millisecond
	}
	if s.Duration == 0 {
		s.Duration = 30 * time.Second
	}
	return s
}

// ChurnConfig builds the Run configuration for one churn preset: the
// paper's A' (Combined) star with a rotating crash/restart schedule over
// the non-center processes. Rebooting peers restart their rounds at 1 while
// the survivors are thousands ahead, which is the adversarial round skew
// the ring-window bookkeeping must absorb (ring wrap on the rebooted side,
// late-round discards and perpetual re-suspicion on the survivors').
func ChurnConfig(spec ChurnSpec) Config {
	spec = spec.withDefaults()
	cfg := Config{
		N: spec.N, T: spec.T, Seed: spec.Seed,
		Scenario: star.Combined(),
		Algo:     spec.Algo,
		Duration: spec.Duration,
		Options:  []star.Option{star.Churn(spec.Start, spec.Period, spec.Downtime, spec.Duration)},
	}
	if spec.Recovery {
		cfg.Options = append(cfg.Options, star.WithRecovery(star.MemJournal()))
	}
	return cfg
}
