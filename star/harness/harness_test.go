package harness

import (
	"reflect"
	"testing"
	"time"

	"repro/star"
)

// run is a test helper with common defaults.
func run(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// aPrimeFamilies are the A' special cases (every family the Figure 1
// algorithm handles).
func aPrimeFamilies() []string {
	return []string{"tsource", "movingsource", "pattern", "movingpattern", "combined"}
}

// F1: every core variant elects a correct common leader under every A'
// family (Figure 1's model and its special cases).
func TestF1CoreVariantsStabilizeUnderAPrimeFamilies(t *testing.T) {
	algos := []star.Algo{star.Fig1, star.Fig2, star.Fig3}
	for _, fam := range aPrimeFamilies() {
		for _, algo := range algos {
			fam, algo := fam, algo
			t.Run(fam+"/"+string(algo), func(t *testing.T) {
				t.Parallel()
				res := run(t, Config{
					N: 5, T: 2, Seed: 11,
					Scenario: star.MustFamily(fam),
					Algo:     algo,
				})
				if !res.Report.Stabilized {
					t.Fatalf("%s under %s did not stabilize (changes=%d, leaders=%v)",
						algo, fam, res.Report.Changes, res.LeaderAtEnd)
				}
			})
		}
	}
}

// F1 with crashes: points of the star may crash (A2 case (1)); the system
// still elects a correct leader even when the lowest ids crash.
func TestF1StabilizesDespiteCrashes(t *testing.T) {
	res := run(t, Config{
		N: 7, T: 3, Seed: 3,
		Scenario: star.Combined(
			star.Center(4),
			star.CrashAt(0, 2*time.Second),
			star.CrashAt(1, 4*time.Second),
			star.CrashAt(5, 6*time.Second),
		),
		Algo:     star.Fig3,
		Duration: 30 * time.Second,
	})
	if !res.Report.Stabilized {
		t.Fatalf("did not stabilize despite crashes: %+v", res.Report.Stabilization)
	}
	if res.Report.Leader == 0 || res.Report.Leader == 1 || res.Report.Leader == 5 {
		t.Fatalf("elected crashed process %d", res.Report.Leader)
	}
}

// F2: under the intermittent star (the paper's A), Figure 1 is not live —
// the adversary keeps every process's suspicion level racing so the minimum
// churns forever — while Figures 2 and 3 stabilize (Theorem 2/3).
func TestF2IntermittentSeparatesFig1FromFig2(t *testing.T) {
	// The run is long (virtual time is cheap) because stabilization under
	// the lose adversary is genuinely slow: the last victim's suspicion
	// level must cross the center's before leadership settles, and round
	// rate drops as timeouts calibrate.
	cfgFor := func(a star.Algo) Config {
		return Config{
			N: 5, T: 2, Seed: 17,
			Scenario: star.Intermittent(star.Gap(4)),
			Algo:     a,
			Duration: 120 * time.Second,
		}
	}
	// Figure 1 diverges: its suspicion levels race forever under the
	// leader-chasing adversary, which a finite horizon witnesses as
	// leadership churn or still-growing timeouts (the plateaus stretch
	// with the round duration, but the growth cannot be hidden).
	res1 := run(t, cfgFor(star.Fig1))
	if res1.Report.Stabilized && res1.TimeoutsStable {
		t.Errorf("fig1 converged under the intermittent star (leader %d, changes %d, maxLevel %d): the window test should be necessary",
			res1.Report.Leader, res1.Report.Changes, res1.MaxSuspLevel)
	}
	for _, a := range []star.Algo{star.Fig2, star.Fig3} {
		res := run(t, cfgFor(a))
		if !res.Report.Stabilized {
			t.Errorf("%s did not stabilize under the intermittent star (changes=%d)", a, res.Report.Changes)
		}
		if a == star.Fig3 && !res.TimeoutsStable {
			t.Errorf("fig3 timeouts did not settle under the intermittent star")
		}
	}
}

// F3: Figure 3's bounded-variable properties (Theorem 4, Lemma 8) hold on
// adversarial runs with crashes, and its timeouts stabilize. Figure 2's
// susp_level for the crashed process grows without bound on the same
// schedule (the motivation for §6).
func TestF3BoundedVariables(t *testing.T) {
	spec := star.Intermittent(
		star.Gap(3), star.Center(1),
		star.CrashAt(3, 3*time.Second),
	)
	res3 := run(t, Config{
		N: 5, T: 2, Seed: 23,
		Scenario: spec,
		Algo:     star.Fig3,
		Duration: 120 * time.Second,
		Options:  []star.Option{star.CheckSpread()},
	})
	if !res3.Report.Stabilized {
		t.Fatalf("fig3 did not stabilize: %+v", res3.Report.Stabilization)
	}
	if res3.SpreadViolations != 0 {
		t.Errorf("Lemma 8 violated %d times", res3.SpreadViolations)
	}
	if !res3.BoundOK {
		t.Errorf("Theorem 4 violated: max=%d B=%d", res3.MaxSuspLevel, res3.BoundB)
	}
	if !res3.TimeoutsStable {
		t.Errorf("fig3 timeouts did not stabilize: %v", res3.FinalTimeouts)
	}

	res2 := run(t, Config{
		N: 5, T: 2, Seed: 23,
		Scenario: spec,
		Algo:     star.Fig2,
		Duration: 120 * time.Second,
	})
	if res2.MaxSuspLevel <= 2*res3.MaxSuspLevel {
		t.Errorf("fig2 susp_level (max %d) did not outgrow fig3's (max %d) despite the crash",
			res2.MaxSuspLevel, res3.MaxSuspLevel)
	}
	if res2.TimeoutsStable {
		t.Error("fig2 timeouts stabilized despite a crashed process (they should grow forever)")
	}
}

// F4: under growing star gaps and growing delays (A_fg), the §7 algorithm
// (which knows f and g) stabilizes while plain Figure 3 loses the center
// protection and keeps raising suspicion levels.
func TestF4FGGeneralization(t *testing.T) {
	spec := star.IntermittentFG(
		star.Gap(4),
		star.Growth(
			func(s int64) int64 { return s / 2 },
			func(rn int64) time.Duration { return time.Duration(rn) * 20 * time.Microsecond }),
	)
	resFG := run(t, Config{
		N: 5, T: 2, Seed: 29,
		Scenario: spec,
		Algo:     star.FG,
		Duration: 120 * time.Second,
	})
	if !resFG.Report.Stabilized {
		t.Errorf("fg did not stabilize under A_fg (changes=%d)", resFG.Report.Changes)
	}
	res3 := run(t, Config{
		N: 5, T: 2, Seed: 29,
		Scenario: spec,
		Algo:     star.Fig3,
		Duration: 120 * time.Second,
	})
	if res3.Report.Stabilized && res3.Report.Leader == 0 {
		t.Errorf("fig3 stabilized on the center under growing gaps; expected the center protection to fail")
	}
	if res3.MaxSuspLevel <= resFG.MaxSuspLevel {
		t.Errorf("fig3 levels (max %d) did not outgrow fg's (max %d) under growing gaps",
			res3.MaxSuspLevel, resFG.MaxSuspLevel)
	}
}

// Determinism: identical configurations produce identical results.
func TestRunDeterministic(t *testing.T) {
	cfg := Config{
		N: 5, T: 2, Seed: 5,
		Scenario: star.Intermittent(star.Gap(2)),
		Algo:     star.Fig3,
		Duration: 5 * time.Second,
	}
	a := run(t, cfg)
	b := run(t, cfg)
	if a.Metrics.Events != b.Metrics.Events || a.Net.Sent != b.Net.Sent ||
		a.Report.Stabilized != b.Report.Stabilized ||
		a.Report.StabilizedAt != b.Report.StabilizedAt ||
		a.MaxSuspLevel != b.MaxSuspLevel {
		t.Fatalf("runs diverged:\n%+v\n%+v", a.Report.Stabilization, b.Report.Stabilization)
	}
}

// Different seeds explore different schedules (sanity check that the seed
// actually feeds the delay policy).
func TestSeedsDiffer(t *testing.T) {
	mk := func(seed uint64) *Result {
		return run(t, Config{
			N: 5, T: 2, Seed: seed,
			Scenario: star.TSource(),
			Algo:     star.Fig3,
			Duration: 5 * time.Second,
		})
	}
	if mk(1).Metrics.Events == mk(2).Metrics.Events {
		t.Fatal("different seeds produced identical event counts (suspicious)")
	}
}

// TestRunIsStarRun: Run adds nothing to a star cluster. Its Report equals,
// field for field, the Report of star.New with the same options run for the
// same virtual time — for a core algorithm, a baseline, and a config that
// passes extra star options through Options.
func TestRunIsStarRun(t *testing.T) {
	cfgs := []Config{
		{
			N: 5, T: 2, Seed: 31,
			Scenario: star.Intermittent(star.Gap(3), star.CrashAt(4, time.Second)),
			Algo:     star.Fig3,
			Duration: 4 * time.Second,
		},
		{
			N: 5, T: 2, Seed: 32,
			Scenario: star.AllTimely(),
			Algo:     star.Stable,
			Duration: 4 * time.Second,
		},
		{
			N: 5, T: 2, Seed: 33,
			Scenario: star.Combined(star.Center(1)),
			Algo:     star.Fig3,
			Duration: 4 * time.Second,
			Options: []star.Option{star.Alpha(4), star.TimeoutUnit(2 * time.Millisecond),
				star.CheckSpread(), star.Churn(500*time.Millisecond, time.Second, 300*time.Millisecond, 4*time.Second)},
		},
	}
	for _, cfg := range cfgs {
		cfg := cfg
		t.Run(string(cfg.Algo)+"/"+cfg.Scenario.Family(), func(t *testing.T) {
			t.Parallel()
			res := run(t, cfg)
			opts := append([]star.Option{
				star.N(cfg.N), star.Resilience(cfg.T), star.Seed(cfg.Seed),
				star.Algorithm(cfg.Algo), star.Scenario(cfg.Scenario),
				star.UnboundedRetention(),
			}, cfg.Options...)
			c, err := star.New(opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if err := c.Run(cfg.Duration); err != nil {
				t.Fatal(err)
			}
			if want := c.Report(); !reflect.DeepEqual(res.Report, *want) {
				t.Errorf("harness Report differs from star's:\n harness: %+v\n star:    %+v",
					res.Report.Stabilization, want.Stabilization)
			}
			if got, want := res.Metrics.Events, c.Metrics().Events; got != want {
				t.Errorf("harness ran %d events, star %d", got, want)
			}
		})
	}
}

func TestParseAlgorithm(t *testing.T) {
	for _, a := range star.Algorithms() {
		got, err := star.ParseAlgorithm(string(a))
		if err != nil || got != a {
			t.Errorf("ParseAlgorithm(%q) = %v, %v", a, got, err)
		}
	}
	if _, err := star.ParseAlgorithm("nope"); err == nil {
		t.Error("garbage algorithm accepted")
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	if _, err := star.Family("bogus"); err == nil {
		t.Error("bogus family accepted")
	}
	if _, err := Run(Config{N: 5, T: 2, Algo: "bogus"}); err == nil {
		t.Error("bogus algorithm accepted")
	}
	if _, err := Run(Config{N: 0, T: 0, Algo: star.Fig3}); err == nil {
		t.Error("bad params accepted")
	}
}
