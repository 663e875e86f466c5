package harness

import (
	"time"

	"repro/internal/par"
	"repro/star"
)

// GridSpec configures the coverage grid (experiment C1): every algorithm
// runs under every assumption family, with the family realized by its most
// adversarial permitted execution (order adversary + unbounded spike drift),
// so that algorithms not designed for a family actually fail in it.
type GridSpec struct {
	N, T int
	Seed uint64
	// D is the intermittent gap for the intermittent families. 0 means 3.
	D int64
	// Duration per cell. 0 means 120s.
	Duration time.Duration
	// Families (family names, see star.Families) and Algos default to all.
	Families []string
	Algos    []star.Algo
	// Workers bounds the number of cells simulated concurrently; <= 0
	// means one per GOMAXPROCS. Each cell owns its cluster and random streams
	// and is seeded independently of the others, so the results are
	// byte-identical for every worker count.
	Workers int
}

// GridCell is one grid outcome.
type GridCell struct {
	Family string
	Algo   star.Algo
	Result *Result
	Err    error
}

// Stabilized reports whether leadership stabilized (false on error).
func (c GridCell) Stabilized() bool {
	return c.Err == nil && c.Result.Report.Stabilized
}

// Converged is the cell verdict: leadership stabilized AND (for the
// timer-based algorithms) the timeout values settled. A diverging
// algorithm/assumption pair shows up within a finite horizon as either
// visible leadership churn or timeouts that are still growing when the run
// ends: its suspicion levels grow without bound, so the leadership plateaus
// stretch with the round duration and can swallow any fixed observation
// window, but the growth itself cannot be hidden.
func (c GridCell) Converged() bool {
	return c.Err == nil && c.Result.Report.Stabilized && c.Result.TimeoutsStable
}

// RunGrid executes the full grid, fanning cells out across spec.Workers
// goroutines, and returns cells in (family-major, algorithm-minor) order —
// the same order, with the same per-cell results, for every worker count.
func RunGrid(spec GridSpec) []GridCell {
	spec = spec.withDefaults()
	cells := make([]GridCell, len(spec.Families)*len(spec.Algos))
	par.ForEach(len(cells), spec.Workers, func(i int) {
		fam := spec.Families[i/len(spec.Algos)]
		algo := spec.Algos[i%len(spec.Algos)]
		cfg, err := gridCellConfig(spec, fam, algo)
		if err != nil {
			// A bad family name is this cell's failure, not the grid's.
			cells[i] = GridCell{Family: fam, Algo: algo, Err: err}
			return
		}
		res, err := Run(cfg)
		cells[i] = GridCell{Family: fam, Algo: algo, Result: res, Err: err}
	})
	return cells
}

// GridCellConfig builds the Run configuration for one grid cell. Exposed so
// tests and benchmarks can run individual cells with statically known
// family names; it panics on an unknown one (RunGrid instead records the
// error in the cell).
func GridCellConfig(spec GridSpec, fam string, algo star.Algo) Config {
	cfg, err := gridCellConfig(spec.withDefaults(), fam, algo)
	if err != nil {
		panic(err)
	}
	return cfg
}

func (s GridSpec) withDefaults() GridSpec {
	if s.D == 0 {
		s.D = 3
	}
	if s.Duration == 0 {
		s.Duration = 120 * time.Second
	}
	if s.Families == nil {
		s.Families = star.Families()
	}
	if s.Algos == nil {
		s.Algos = star.Algorithms()
	}
	return s
}

// gridCellConfig builds one cell's configuration from a defaulted spec.
func gridCellConfig(spec GridSpec, fam string, algo star.Algo) (Config, error) {
	// The adversary the family's assumption permits: a large δ (so order
	// attacks dominate start-phase skew), unbounded spike drift and
	// growing link outages on unconstrained links, and the
	// reception-order attack (timely does not imply winning).
	opts := []star.ScenarioOption{
		star.Gap(spec.D),
		star.Delta(20 * time.Millisecond),
		star.Drift(2 * time.Millisecond),
		star.AdversarialOrder(),
		star.Outages(4*time.Second, 100*time.Millisecond),
	}
	if fam == "intermittentfg" {
		opts = append(opts, star.Growth(
			func(s int64) int64 { return s / 2 },
			func(rn int64) time.Duration { return time.Duration(rn) * 20 * time.Microsecond },
		))
	}
	sc, err := star.Family(fam, opts...)
	if err != nil {
		return Config{}, err
	}
	return Config{
		N: spec.N, T: spec.T, Seed: spec.Seed,
		Scenario: sc,
		Algo:     algo,
		Duration: spec.Duration,
	}, nil
}
