package harness

import (
	"testing"
	"time"

	"repro/star"
)

// TestC1CoverageKeyCells verifies the paper's containment story on the
// decisive grid cells (the full grid is produced by cmd/experiments):
//
//   - The heartbeat/timeout baseline needs every link from the leader to be
//     eventually timely: it works under AllTimely and breaks under the
//     eventual t-source (only t timely links) and under the time-free
//     message-pattern family (no timing at all).
//   - The time-free baseline needs winning ALIVEs: it works under the
//     (moving) message pattern and breaks under timeliness-only families —
//     the two assumption styles are incomparable (§1.2).
//   - Figure 1 handles every A' family but breaks under the intermittent
//     star; Figures 2/3 handle all of them (§5).
//   - Figure 3 breaks under growing gaps/delays (A_fg) where the §7 variant
//     still works.
func TestC1CoverageKeyCells(t *testing.T) {
	spec := GridSpec{N: 5, T: 2, Seed: 71}
	cases := []struct {
		family string
		algo   star.Algo
		want   bool
	}{
		{"alltimely", star.Stable, true},
		{"tsource", star.Stable, false},
		{"pattern", star.Stable, false},

		{"pattern", star.TimeFree, true},
		{"movingpattern", star.TimeFree, true},
		{"alltimely", star.TimeFree, false},
		{"tsource", star.TimeFree, false},

		{"tsource", star.Fig1, true},
		{"combined", star.Fig1, true},
		{"intermittent", star.Fig1, false},

		{"intermittent", star.Fig3, true},
		{"intermittentfg", star.FG, true},
	}
	for _, c := range cases {
		c := c
		t.Run(c.family+"/"+string(c.algo), func(t *testing.T) {
			t.Parallel()
			res, err := Run(GridCellConfig(spec, c.family, c.algo))
			if err != nil {
				t.Fatal(err)
			}
			if c.want {
				// Positive cells must satisfy the Ω property.
				if !res.Report.Stabilized {
					t.Errorf("%s under %s did not stabilize (changes=%d, lastDis=%v, leaders=%v)",
						c.algo, c.family, res.Report.Changes,
						res.Report.LastDisagreement, res.LeaderAtEnd)
				}
				return
			}
			// Negative cells must show divergence: churn, or timeouts
			// still growing at the horizon (see GridCell.Converged).
			if res.Report.Stabilized && res.TimeoutsStable {
				t.Errorf("%s under %s converged (stabilized with settled timeouts); expected divergence (changes=%d, maxLevel=%d)",
					c.algo, c.family, res.Report.Changes, res.MaxSuspLevel)
			}
		})
	}
}

// TestGridNeedsUnboundedRetention pins why Config.options passes
// star.UnboundedRetention: star's default retention is not
// observation-equivalent on the C1 grid. Its unbounded spike drift and
// growing outages stretch the SUSPICION lag past the default horizon. The
// cell is the cheapest C1 cell (seed 42) on which the default reads
// NodeMetrics.BelowHorizon > 0, run for the shortest horizon that shows it;
// a behaviour change that moves that first read needs a new cell or horizon.
func TestGridNeedsUnboundedRetention(t *testing.T) {
	cfg := GridCellConfig(GridSpec{N: 5, T: 2, Seed: 42}, "intermittent", star.TimeFree)
	cfg.Duration = 34400 * time.Millisecond
	below := func(m star.Metrics) uint64 {
		var b uint64
		for _, nm := range m.Nodes {
			b += nm.BelowHorizon
		}
		return b
	}

	c, err := star.New(star.N(cfg.N), star.Resilience(cfg.T), star.Seed(cfg.Seed),
		star.Algorithm(cfg.Algo), star.Scenario(cfg.Scenario))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Run(cfg.Duration); err != nil {
		t.Fatal(err)
	}
	if got := below(c.Metrics()); got == 0 {
		t.Fatal("default retention read BelowHorizon 0: the cell no longer shows the departure")
	}
	if got := below(run(t, cfg).Metrics); got != 0 {
		t.Fatalf("harness run read BelowHorizon %d, want 0 (unbounded history)", got)
	}
}
