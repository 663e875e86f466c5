// Command experiments runs the paper-reproduction experiment suite and
// prints each experiment's table as GitHub-flavored markdown. EXPERIMENTS.md
// embeds this output; regenerate it with:
//
//	go run ./cmd/experiments            # all experiments
//	go run ./cmd/experiments -run F2    # one experiment
//	go run ./cmd/experiments -quick     # smaller, faster configurations
//
// EXPERIMENTS.md is the aggregate of a full paper run:
//
//	go run ./cmd/experiments -grid scripts/experiments.json
//	go run ./cmd/experiments -analyze paper_runs/<stamp> > EXPERIMENTS.md
//
// -analyze reads an archived run back and collapses each experiment's
// repeats into one table whose numeric cells read mean±spread.
//
// Experiment ids (see DESIGN.md): F1, F2, F3, F4, T5, C1, Q1, Q2, Q3, A1, CH,
// FED.
//
// A grid file (-grid scripts/experiments.json) batches experiments with
// repeats: each entry names an experiment id and how many seeds to run it
// under; every repeat's tables are archived as CSV under the grid's output
// directory (paper_runs/ by convention), so a full paper run is one command.
//
// Runs within an experiment are independent deterministic simulations, so
// they fan out across a worker pool (-workers, default one per GOMAXPROCS); tables
// are emitted in the same order regardless of worker count. Everything is
// built on the public star API (repro/star + repro/star/harness).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/star"
	"repro/star/harness"
)

// experiment is one entry of the suite's registry.
type experiment struct {
	id   string
	name string
	run  func() error
}

func main() {
	runID := flag.String("run", "", "experiment id to run (default: all)")
	quick := flag.Bool("quick", false, "smaller configurations (for smoke runs)")
	seed := flag.Uint64("seed", 42, "base random seed")
	workers := flag.Int("workers", 0, "concurrent simulations per experiment (<=0: one per GOMAXPROCS)")
	out := flag.String("out", "", "archive each experiment's table as CSV under <out>/<stamp>/<id>.csv (e.g. -out paper_runs)")
	grid := flag.String("grid", "", "batch mode: run the experiment grid described by this JSON file (see scripts/experiments.json)")
	analyze := flag.String("analyze", "", "aggregate an archived paper run (a paper_runs/<stamp> directory) into mean±spread markdown tables on stdout, instead of running anything")
	flag.Parse()

	if *analyze != "" {
		if err := runAnalyze(*analyze); err != nil {
			fmt.Fprintf(os.Stderr, "analyze %s failed: %v\n", *analyze, err)
			os.Exit(1)
		}
		return
	}

	s := &suite{quick: *quick, seed: *seed, workers: *workers,
		outDir: *out, stamp: time.Now().Format("20060102-150405")}
	experiments := []experiment{
		{"F1", "Figure 1/Theorem 1 — election under every A' family", s.runF1},
		{"F2", "Figure 2/Theorem 2 — the intermittent star separates Figure 1 from Figures 2/3", s.runF2},
		{"F3", "Figure 3/Theorem 4+Lemma 8 — bounded variables and timeouts", s.runF3},
		{"F4", "Section 7 — growing gaps and delays (A_fg)", s.runF4},
		{"T5", "Theorem 5 — consensus from a majority plus an intermittent star", s.runT5},
		{"C1", "Coverage grid — every algorithm under every assumption family", s.runC1},
		{"Q1", "Stabilization time and level bound vs the intermittence gap D", s.runQ1},
		{"Q2", "Stabilization and message cost vs system size n", s.runQ2},
		{"Q3", "Bounded timeouts: level bound B vs the timer unit", s.runQ3},
		{"A1", "Ablations — each mechanism of Figure 3 is load-bearing", s.runA1},
		{"CH", "Churn — rotating crash/recovery, ring-window bookkeeping under round skew", s.runCH},
		{"FED", "Federated election — clusters-of-clusters vs a flat system, under both churn tiers", s.runFED},
	}

	if *grid != "" {
		if err := runGrid(*grid, s, experiments); err != nil {
			fmt.Fprintf(os.Stderr, "grid %s failed: %v\n", *grid, err)
			os.Exit(1)
		}
		return
	}

	want := strings.ToUpper(*runID)
	ran := false
	for _, e := range experiments {
		if want != "" && e.id != want {
			continue
		}
		ran = true
		s.curID, s.curName = e.id, e.name
		fmt.Printf("## %s — %s\n\n", e.id, e.name)
		start := time.Now()
		if err := e.run(); err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s failed: %v\n", e.id, err)
			os.Exit(1)
		}
		fmt.Printf("_(wall time %v)_\n\n", time.Since(start).Round(time.Millisecond))
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *runID)
		os.Exit(2)
	}
}

// gridFile is the -grid JSON schema: an output directory plus a list of
// experiments to batch, each with a repeat count. Repeat r of an entry runs
// under seed base+r and archives its tables as <id>-repN.csv, so a full
// paper run — every experiment, several seeds — is one command:
//
//	go run ./cmd/experiments -grid scripts/experiments.json
type gridFile struct {
	// Out is the archive root (the -out flag, when set, wins).
	Out string `json:"out"`
	// Quick applies -quick to the whole grid unless the flag already did.
	Quick bool `json:"quick"`
	Grid  []struct {
		ID      string `json:"id"`
		Repeats int    `json:"repeats"`
	} `json:"grid"`
}

// runGrid executes a gridFile against the experiment registry.
func runGrid(path string, s *suite, experiments []experiment) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var gf gridFile
	if err := json.Unmarshal(raw, &gf); err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	if s.outDir == "" {
		s.outDir = gf.Out
	}
	s.quick = s.quick || gf.Quick
	byID := make(map[string]experiment, len(experiments))
	for _, e := range experiments {
		byID[e.id] = e
	}
	baseSeed := s.seed
	for _, entry := range gf.Grid {
		e, ok := byID[strings.ToUpper(entry.ID)]
		if !ok {
			return fmt.Errorf("unknown experiment %q", entry.ID)
		}
		repeats := entry.Repeats
		if repeats <= 0 {
			repeats = 1
		}
		for rep := 0; rep < repeats; rep++ {
			s.curID, s.curName = e.id, e.name
			s.seed = baseSeed + uint64(rep)
			s.repTag = ""
			if repeats > 1 {
				s.repTag = fmt.Sprintf("-rep%d", rep)
			}
			fmt.Printf("## %s — %s (seed %d)\n\n", e.id, e.name, s.seed)
			start := time.Now()
			if err := e.run(); err != nil {
				return fmt.Errorf("experiment %s (seed %d): %w", e.id, s.seed, err)
			}
			fmt.Printf("_(wall time %v)_\n\n", time.Since(start).Round(time.Millisecond))
		}
	}
	s.seed = baseSeed
	return nil
}

type suite struct {
	quick   bool
	seed    uint64
	workers int

	// Archival (-out): every experiment's table is also written as CSV to
	// <outDir>/<stamp>/<id>.csv with a "# key=value" params header, so a
	// paper run is a directory of reproducible, diffable artifacts.
	outDir         string
	stamp          string
	curID, curName string
	repTag         string // "-repN" suffix in grid mode with repeats > 1
}

// print emits an experiment's table to stdout as markdown and, with -out
// set, archives it as CSV.
func (s *suite) print(tb *table) error {
	fmt.Println(tb.Markdown())
	if s.outDir == "" {
		return nil
	}
	dir := filepath.Join(s.outDir, s.stamp)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# experiment=%s\n", s.curID)
	fmt.Fprintf(&b, "# name=%s\n", s.curName)
	fmt.Fprintf(&b, "# seed=%d\n", s.seed)
	fmt.Fprintf(&b, "# quick=%v\n", s.quick)
	fmt.Fprintf(&b, "# generated=%s\n", time.Now().Format(time.RFC3339))
	b.WriteString(tb.CSV())
	return os.WriteFile(filepath.Join(dir, s.curID+s.repTag+".csv"), []byte(b.String()), 0o644)
}

// dur scales experiment durations down in -quick mode.
func (s *suite) dur(d time.Duration) time.Duration {
	if s.quick {
		return d / 4
	}
	return d
}

// runAll executes every harness config on the suite's worker pool.
func (s *suite) runAll(cfgs []harness.Config) ([]*harness.Result, error) {
	return harness.RunAll(cfgs, s.workers)
}

func verdict(ok bool) string {
	if ok {
		return "yes"
	}
	return "NO"
}

func (s *suite) runF1() error {
	families := []string{"tsource", "movingsource", "pattern", "movingpattern", "combined"}
	algos := []harness.Algorithm{harness.AlgoFig1, harness.AlgoFig2, harness.AlgoFig3}
	var cfgs []harness.Config
	for _, fam := range families {
		for _, algo := range algos {
			cfgs = append(cfgs, harness.Config{
				N: 5, T: 2, Seed: s.seed,
				Scenario: star.MustFamily(fam),
				Algo:     algo,
				Duration: s.dur(20 * time.Second),
			})
		}
	}
	results, err := s.runAll(cfgs)
	if err != nil {
		return err
	}
	tb := newTable("family", "algorithm", "stabilized", "t_stab", "leader", "changes", "maxLevel", "B", "msgs", "events")
	for i, res := range results {
		tb.AddRow(cfgs[i].Scenario.Family(), cfgs[i].Algo, verdict(res.Report.Stabilized), res.StabilizationTime(),
			res.Report.Leader, res.Report.Changes, res.MaxSuspLevel, res.BoundB,
			res.NetStats.Sent, res.Events)
	}
	if err := s.print(tb); err != nil {
		return err
	}
	return nil
}

func (s *suite) runF2() error {
	var cfgs []harness.Config
	var gaps []int64 // D per config, for the table (specs don't echo knobs)
	for _, d := range []int64{2, 4, 8, 16} {
		for _, algo := range []harness.Algorithm{harness.AlgoFig1, harness.AlgoFig2, harness.AlgoFig3} {
			cfgs = append(cfgs, harness.Config{
				N: 5, T: 2, Seed: s.seed,
				Scenario: star.Intermittent(star.Gap(d)),
				Algo:     algo,
				Duration: s.dur(120 * time.Second),
			})
			gaps = append(gaps, d)
		}
	}
	results, err := s.runAll(cfgs)
	if err != nil {
		return err
	}
	tb := newTable("D", "algorithm", "stabilized", "timeouts stable", "converged", "changes", "maxLevel", "t_stab")
	for i, res := range results {
		tb.AddRow(gaps[i], cfgs[i].Algo, verdict(res.Report.Stabilized), verdict(res.TimeoutsStable),
			verdict(res.Report.Stabilized && res.TimeoutsStable),
			res.Report.Changes, res.MaxSuspLevel, res.StabilizationTime())
	}
	if err := s.print(tb); err != nil {
		return err
	}
	fmt.Println("Expected shape: fig1 never converges (churn or growing timeouts);" +
		" fig2 and fig3 stabilize for every D.")
	fmt.Println()
	return nil
}

func (s *suite) runF3() error {
	spec := star.Intermittent(
		star.Gap(3), star.Center(1),
		star.CrashAt(3, 3*time.Second),
	)
	var cfgs []harness.Config
	for _, algo := range []harness.Algorithm{harness.AlgoFig2, harness.AlgoFig3} {
		cfgs = append(cfgs, harness.Config{
			N: 5, T: 2, Seed: s.seed,
			Scenario:    spec,
			Algo:        algo,
			Duration:    s.dur(120 * time.Second),
			CheckSpread: algo == harness.AlgoFig3,
		})
	}
	results, err := s.runAll(cfgs)
	if err != nil {
		return err
	}
	tb := newTable("algorithm", "stabilized", "maxLevel ever", "B", "maxLevel<=B+1", "Lemma8 violations", "timeouts stable", "final timeout")
	for i, res := range results {
		algo := cfgs[i].Algo
		spread := "n/a"
		if algo == harness.AlgoFig3 {
			spread = fmt.Sprintf("%d", res.SpreadViolations)
		}
		bound := "n/a"
		if algo == harness.AlgoFig3 {
			bound = verdict(res.BoundOK)
		}
		var maxTO time.Duration
		for _, to := range res.FinalTimeouts {
			if to > maxTO {
				maxTO = to
			}
		}
		tb.AddRow(algo, verdict(res.Report.Stabilized), res.MaxSuspLevel, res.BoundB,
			bound, spread, verdict(res.TimeoutsStable), maxTO)
	}
	if err := s.print(tb); err != nil {
		return err
	}
	fmt.Println("Expected shape: with a crashed process, fig2's susp_level and timeouts grow" +
		" without bound while fig3 keeps every variable within B+1 (Theorem 4) and its" +
		" timeouts settle; the per-process spread never exceeds 1 (Lemma 8).")
	fmt.Println()
	return nil
}

func (s *suite) runF4() error {
	spec := star.IntermittentFG(
		star.Gap(4),
		star.Growth(
			func(k int64) int64 { return k / 2 },
			func(rn int64) time.Duration { return time.Duration(rn) * 20 * time.Microsecond }),
	)
	var cfgs []harness.Config
	for _, algo := range []harness.Algorithm{harness.AlgoFig3, harness.AlgoFG} {
		cfgs = append(cfgs, harness.Config{
			N: 5, T: 2, Seed: s.seed,
			Scenario: spec,
			Algo:     algo,
			Duration: s.dur(120 * time.Second),
		})
	}
	results, err := s.runAll(cfgs)
	if err != nil {
		return err
	}
	tb := newTable("algorithm", "stabilized", "leader", "maxLevel", "changes")
	for i, res := range results {
		tb.AddRow(cfgs[i].Algo, verdict(res.Report.Stabilized), res.Report.Leader,
			res.MaxSuspLevel, res.Report.Changes)
	}
	if err := s.print(tb); err != nil {
		return err
	}
	fmt.Println("Expected shape: with gaps growing as D+f(s_k) and delays as delta+g(rn)," +
		" plain fig3 loses the center protection (its levels keep climbing) while the" +
		" §7 algorithm, knowing f and g, stabilizes.")
	fmt.Println()
	return nil
}

func (s *suite) runT5() error {
	tb := newTable("scenario", "decided", "agreement", "validity", "mean latency", "ballots", "msgs")
	cases := []struct {
		name string
		cfg  harness.ConsensusConfig
	}{
		{"combined, no crashes", harness.ConsensusConfig{
			N: 5, T: 2, Seed: s.seed,
			Scenario:  star.Combined(),
			Instances: 10,
			Duration:  s.dur(60 * time.Second),
		}},
		{"intermittent D=3, 1 crash", harness.ConsensusConfig{
			N: 5, T: 2, Seed: s.seed,
			Scenario:  star.Intermittent(star.Gap(3), star.CrashAt(4, time.Second)),
			Instances: 10,
			Duration:  s.dur(90 * time.Second),
		}},
		{"intermittent D=8, 2 crashes", harness.ConsensusConfig{
			N: 7, T: 3, Seed: s.seed,
			Scenario: star.Intermittent(star.Gap(8),
				star.CrashAt(5, time.Second),
				star.CrashAt(6, 2*time.Second)),
			Instances: 10,
			Duration:  s.dur(90 * time.Second),
		}},
	}
	cfgs := make([]harness.ConsensusConfig, len(cases))
	for i := range cases {
		cfgs[i] = cases[i].cfg
	}
	results, err := harness.RunConsensusAll(cfgs, s.workers)
	if err != nil {
		return err
	}
	for i, c := range cases {
		res := results[i]
		tb.AddRow(c.name, fmt.Sprintf("%d/%d", res.Decided, c.cfg.Instances),
			verdict(res.Agreement), verdict(res.Validity), res.MeanLatency,
			res.Ballots, res.NetStats.Sent)
	}
	if err := s.print(tb); err != nil {
		return err
	}
	fmt.Println("Theorem 5: majority of correct processes + intermittent rotating t-star" +
		" => consensus terminates with agreement and validity.")
	fmt.Println()
	return nil
}

func (s *suite) runC1() error {
	spec := harness.GridSpec{N: 5, T: 2, Seed: s.seed, Duration: s.dur(120 * time.Second), Workers: s.workers}
	cells := harness.RunGrid(spec)
	// Pivot: one row per family, one column per algorithm.
	byFam := map[string]map[harness.Algorithm]harness.GridCell{}
	for _, c := range cells {
		if byFam[c.Family] == nil {
			byFam[c.Family] = map[harness.Algorithm]harness.GridCell{}
		}
		byFam[c.Family][c.Algo] = c
	}
	algos := harness.Algorithms()
	header := []string{"family"}
	for _, a := range algos {
		header = append(header, string(a))
	}
	tb := newTable(header...)
	for _, fam := range star.Families() {
		row := []any{fam}
		for _, a := range algos {
			c := byFam[fam][a]
			switch {
			case c.Err != nil:
				row = append(row, "err")
			case c.Converged():
				row = append(row, "converge")
			case c.Stabilized():
				row = append(row, "unbounded") // stable leader, growing timeouts
			default:
				row = append(row, "diverge")
			}
		}
		tb.AddRow(row...)
	}
	if err := s.print(tb); err != nil {
		return err
	}
	fmt.Println("Cells: converge = common correct leader with settled timeouts;" +
		" unbounded = leadership settled within the horizon but timeouts still growing" +
		" (divergence in the limit); diverge = leadership churned to the end.")
	fmt.Println()
	return nil
}

func (s *suite) runQ1() error {
	ds := []int64{1, 2, 4, 8, 16}
	var cfgs []harness.Config
	for _, d := range ds {
		cfgs = append(cfgs, harness.Config{
			N: 5, T: 2, Seed: s.seed,
			Scenario: star.Intermittent(star.Gap(d)),
			Algo:     harness.AlgoFig3,
			Duration: s.dur(120 * time.Second),
		})
	}
	results, err := s.runAll(cfgs)
	if err != nil {
		return err
	}
	tb := newTable("D", "t_stab", "maxLevel", "B", "final timeout", "rounds")
	for i, res := range results {
		var maxTO time.Duration
		for _, to := range res.FinalTimeouts {
			if to > maxTO {
				maxTO = to
			}
		}
		tb.AddRow(ds[i], res.StabilizationTime(), res.MaxSuspLevel, res.BoundB, maxTO, res.RoundsDone)
	}
	if err := s.print(tb); err != nil {
		return err
	}
	fmt.Println("Expected shape: the level bound B (and hence the calibrated timeout)" +
		" grows with the intermittence gap D — susp_level absorbs the gap (§5).")
	fmt.Println()
	return nil
}

func (s *suite) runQ2() error {
	var cfgs []harness.Config
	for _, n := range []int{3, 5, 7, 9, 13} {
		cfgs = append(cfgs, harness.Config{
			N: n, T: (n - 1) / 2, Seed: s.seed,
			Scenario: star.Combined(),
			Algo:     harness.AlgoFig3,
			Duration: s.dur(20 * time.Second),
		})
	}
	results, err := s.runAll(cfgs)
	if err != nil {
		return err
	}
	tb := newTable("n", "t", "t_stab", "msgs total", "msgs/round/proc", "bytes", "events")
	for i, res := range results {
		n := cfgs[i].N
		perRound := "n/a"
		if res.RoundsDone > 0 {
			perRound = fmt.Sprintf("%.1f", float64(res.NetStats.Sent)/float64(res.RoundsDone)/float64(n))
		}
		tb.AddRow(n, cfgs[i].T, res.StabilizationTime(), res.NetStats.Sent, perRound,
			res.NetStats.Bytes, res.Events)
	}
	if err := s.print(tb); err != nil {
		return err
	}
	fmt.Println("Message complexity per process per round is ~(n-1) ALIVE + n SUSPICION" +
		" sends, i.e. linear in n (quadratic system-wide), as the algorithm prescribes.")
	fmt.Println()
	return nil
}

func (s *suite) runQ3() error {
	// §6's structural claim, measured: the suspicion-level bound B is set
	// by the assumption's shape (the gap D forces the window to absorb ~D
	// rounds), NOT by the timer unit, so the stabilized timeout is simply
	// ~B x unit. Level counts are the only "clock" the algorithm keeps;
	// scaling the unit rescales time without changing the
	// bounded-variable structure.
	var cfgs []harness.Config
	for _, unit := range []time.Duration{
		200 * time.Microsecond, time.Millisecond,
		5 * time.Millisecond, 20 * time.Millisecond,
	} {
		cfgs = append(cfgs, harness.Config{
			N: 5, T: 2, Seed: s.seed,
			Scenario:    star.Intermittent(star.Gap(3)),
			Algo:        harness.AlgoFig3,
			TimeoutUnit: unit,
			Duration:    s.dur(60 * time.Second),
		})
	}
	results, err := s.runAll(cfgs)
	if err != nil {
		return err
	}
	tb := newTable("timeout unit", "B", "maxLevel", "final timeout", "t_stab")
	for i, res := range results {
		var maxTO time.Duration
		for _, to := range res.FinalTimeouts {
			if to > maxTO {
				maxTO = to
			}
		}
		tb.AddRow(cfgs[i].TimeoutUnit.String(), res.BoundB, res.MaxSuspLevel, maxTO, res.StabilizationTime())
	}
	if err := s.print(tb); err != nil {
		return err
	}
	fmt.Println("Expected shape: B stays at the structure-determined value (compare Q1's" +
		" D column) across a 100x change of the timer unit; the stabilized timeout is" +
		" ~B x unit. All variables except round numbers stay bounded (§6).")
	fmt.Println()
	return nil
}

func (s *suite) runA1() error {
	spec := star.Intermittent(
		star.Gap(3), star.Center(1),
		star.CrashAt(3, 3*time.Second),
	)
	rows := []struct {
		label, notes string
		cfg          harness.Config
	}{
		{"fig1 (no *, no **)", "window test removed: diverges under intermittence",
			harness.Config{N: 5, T: 2, Seed: s.seed, Scenario: spec,
				Algo: harness.AlgoFig1, Duration: s.dur(120 * time.Second)}},
		{"fig2 (*, no **)", "min test removed: unbounded levels after a crash",
			harness.Config{N: 5, T: 2, Seed: s.seed, Scenario: spec,
				Algo: harness.AlgoFig2, Duration: s.dur(120 * time.Second)}},
		{"fig3 (* and **)", "full algorithm: bounded and stable",
			harness.Config{N: 5, T: 2, Seed: s.seed, Scenario: spec,
				Algo: harness.AlgoFig3, Duration: s.dur(120 * time.Second)}},
		// Ablation 4 uses a stricter reception threshold alpha
		// (footnote 5): n - actual crashes, a valid lower bound here.
		{"fig3, alpha=4 (=n-f)", "footnote 5: any lower bound on #correct works",
			harness.Config{N: 5, T: 2, Seed: s.seed, Alpha: 4, Scenario: spec,
				Algo: harness.AlgoFig3, Duration: s.dur(120 * time.Second)}},
	}
	cfgs := make([]harness.Config, len(rows))
	for i := range rows {
		cfgs[i] = rows[i].cfg
	}
	results, err := s.runAll(cfgs)
	if err != nil {
		return err
	}
	tb := newTable("configuration", "stabilized", "timeouts stable", "maxLevel", "notes")
	for i, res := range results {
		tb.AddRow(rows[i].label, verdict(res.Report.Stabilized), verdict(res.TimeoutsStable),
			res.MaxSuspLevel, rows[i].notes)
	}
	if err := s.print(tb); err != nil {
		return err
	}
	return nil
}

// runCH is the churn experiment: processes rotate through crash/recovery
// every couple of seconds while the core algorithm keeps electing among the
// never-crashed survivors. Every algorithm runs head to head in both rejoin
// modes — "jump" (fresh incarnation joins the round frontier) and
// "recover" (resume from the last journaled snapshot) — so the table shows
// what durable crash-recovery buys and costs: a restored peer keeps its
// pre-crash susp_level vector (no re-learning, so the level bound drops)
// but resumes behind the frontier and catches up through the out-of-window
// machinery. Both modes are deterministic seed for seed (the recovery
// journal is in-memory and virtual-time driven).
func (s *suite) runCH() error {
	algos := []harness.Algorithm{harness.AlgoFig1, harness.AlgoFig2, harness.AlgoFig3}
	modes := []struct {
		name     string
		recovery bool
	}{{"jump", false}, {"recover", true}}
	type row struct {
		algo harness.Algorithm
		mode string
	}
	var rows []row
	var cfgs []harness.Config
	for _, algo := range algos {
		for _, mode := range modes {
			rows = append(rows, row{algo, mode.name})
			cfgs = append(cfgs, harness.ChurnConfig(harness.ChurnSpec{
				N: 5, T: 2, Seed: s.seed, Algo: algo,
				Duration: s.dur(60 * time.Second),
				Recovery: mode.recovery,
			}))
		}
	}
	results, err := s.runAll(cfgs)
	if err != nil {
		return err
	}
	tb := newTable("algorithm", "rejoin", "stabilized", "leader", "maxLevel", "late ALIVEs", "overflow hits", "restores", "fallbacks", "rounds", "events")
	for i, res := range results {
		var late, over uint64
		for _, m := range res.CoreMetrics {
			late += m.LateAlive
			over += m.WindowOverflow
		}
		tb.AddRow(rows[i].algo, rows[i].mode, verdict(res.Report.Stabilized), res.Report.Leader,
			res.MaxSuspLevel, late, over, res.Recovery.Restores, res.Recovery.Fallbacks,
			res.RoundsDone, res.Events)
	}
	if err := s.print(tb); err != nil {
		return err
	}
	fmt.Println("Expected shape: every variant keeps a never-crashed leader through the" +
		" churn in both modes. In jump mode rebooting peers restart at round 1 and" +
		" re-learn suspicion levels from scratch (higher maxLevel); in recover mode" +
		" every restart resumes from its journaled snapshot (restores > 0," +
		" fallbacks = 0) with its pre-crash state — maxLevel drops, while catching" +
		" up from behind the frontier routes more lookups through the overflow map.")
	fmt.Println()
	return nil
}

// runFED is the federated-election experiment: S shards of M processes each
// run Ω internally, their leaders participate by proxy in a tier-2 cluster
// of S delegates, and the tier's election names the global
// leader-of-leaders. Each shape runs plain, under shard-local churn
// (members inside every shard rotate through crash/restart) and under
// delegate churn (tier members themselves are killed), next to the flat
// control — one monolithic cluster of S*M processes — whose O(n^2)
// message load is exactly what the hierarchy avoids.
func (s *suite) runFED() error {
	type shape struct{ shards, size int }
	shapes := []shape{{8, 16}, {16, 32}, {32, 32}}
	fedDur, flatBase := 10*time.Second, 4*time.Second
	if s.quick {
		shapes = []shape{{3, 4}, {4, 8}}
		fedDur, flatBase = 3*time.Second, 2*time.Second
	}
	// The flat control's horizon shrinks with n: a 1024-process simulation
	// costs O(n^2) messages per virtual second, and the stabilization
	// verdict needs only a settled tail, not a long one.
	flatDur := func(n int) time.Duration {
		switch {
		case n <= 128:
			return flatBase
		case n <= 512:
			return flatBase / 2
		default:
			return flatBase / 4
		}
	}

	tb := newTable("configuration", "shape", "n", "stabilized", "t_stab",
		"handoffs", "pressure", "rejected", "violations", "gseq", "agree",
		"events", "wall")
	for _, sh := range shapes {
		n := sh.shards * sh.size
		label := fmt.Sprintf("%dx%d", sh.shards, sh.size)
		base := harness.FedSpec{
			Shards: sh.shards, ShardSize: sh.size, Seed: s.seed, Duration: fedDur,
		}
		churned := base
		churned.ShardChurnStart = fedDur / 8
		churned.ShardChurnPeriod = fedDur / 5
		churned.ShardChurnDowntime = fedDur / 20
		delchurn := base
		delchurn.DelegateChurnStart = fedDur / 8
		delchurn.DelegateChurnPeriod = fedDur / 5
		delchurn.DelegateChurnDowntime = fedDur / 20
		delchurn.DelegateChurnUntil = fedDur * 3 / 4
		// Global-lane traffic rides the same shape.
		lanes := base
		lanes.Traffic = 4

		for _, row := range []struct {
			label string
			spec  harness.FedSpec
		}{
			{"federated", base},
			{"federated+shardchurn", churned},
			{"federated+delchurn", delchurn},
			{"federated+lanes", lanes},
		} {
			res, err := harness.RunFed(row.spec)
			if err != nil {
				return err
			}
			fr := res.Federation
			gseq, agree := "n/a", "n/a"
			if row.spec.Traffic > 0 {
				gseq, agree = fmt.Sprint(res.GlobalSeq), verdict(res.GlobalAgree)
			}
			tb.AddRow(row.label, label, n, verdict(fr.TierStabilized), fr.TierStabilization,
				fr.Handoffs, fr.Pressure, fr.RejectedFrames, fr.TotalViolations,
				gseq, agree, res.Events, res.Elapsed.Round(time.Millisecond))
		}

		flat := harness.FlatConfig(base)
		flat.Duration = flatDur(n)
		// The flat control is a deliberate O(n^2) message burn — at n=1024
		// it legitimately executes >200M events in its single virtual
		// second, which is exactly the default runaway budget. Raise the
		// ceiling so the row can finish; a true runaway still aborts.
		flat.MaxEvents = 1_000_000_000
		res, err := harness.Run(flat)
		if err != nil {
			return err
		}
		tb.AddRow("flat control", "1x"+fmt.Sprint(n), n, verdict(res.Report.Stabilized),
			res.StabilizationTime(), "n/a", "n/a", "n/a", "n/a", "n/a", "n/a",
			res.Events, res.Elapsed.Round(time.Millisecond))
	}
	if err := s.print(tb); err != nil {
		return err
	}
	fmt.Println("Expected shape: every federated configuration elects a stable global" +
		" leader-of-leaders with zero invariant violations, under both churn tiers." +
		" The flat control stabilizes too but burns O(n^2) messages per virtual" +
		" second — compare the events and wall columns at equal n; the federation's" +
		" cost is O(S*M^2 + S^2), so the gap widens with scale. The lane row" +
		" commits every submission to one global sequence that all live members" +
		" agree on (gseq, agree).")
	fmt.Println()
	return nil
}
