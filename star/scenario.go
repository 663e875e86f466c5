package star

import (
	"fmt"
	"time"

	"repro/internal/scenario"
	"repro/internal/sim"
)

// toSimTime converts a public wall/virtual duration into the simulator's
// absolute timestamp (virtual time starts at 0).
func toSimTime(d time.Duration) sim.Time { return sim.Time(d) }

// ScenarioSpec describes an assumption scenario — one of the paper's
// synchrony-assumption families plus its knobs — independently of the
// cluster it will run in. Build one with a family constructor (Combined,
// Intermittent, ...) and pass it to New via the Scenario option; the cluster
// contributes N, Resilience, Alpha and Seed at build time.
//
// The zero ScenarioSpec is valid and means Combined() — the paper's A'.
type ScenarioSpec struct {
	family string
	opts   []ScenarioOption
}

// Family returns the assumption family's name ("combined", "intermittent",
// ...), or "" for the zero spec (which builds as "combined").
func (s ScenarioSpec) Family() string { return s.family }

// churnWindows is the rotating crash/restart schedule requested by Churn.
type churnWindows struct {
	start, period, downtime, until time.Duration
}

// ScenarioOption tunes one ScenarioSpec. Options are applied in the order
// given; cluster-level parameters (N, Resilience, Alpha, Seed) are merged in
// first.
type ScenarioOption struct {
	f func(*scenario.Params)
}

// Center picks the star's center process (default 0). Experiments that
// crash processes must keep the center correct.
func Center(id int) ScenarioOption {
	return ScenarioOption{func(p *scenario.Params) { p.Center = id }}
}

// Gap sets D, the intermittence gap: the star exists only on rounds 1,
// 1+D, 1+2D, ... (default 1: every round). Only the
// Intermittent and IntermittentFG families make rounds outside the
// subsequence adversarial.
func Gap(d int64) ScenarioOption {
	return ScenarioOption{func(p *scenario.Params) { p.D = d }}
}

// Delta sets δ, the (unknown to the algorithm) bound on timely transfer
// delays. Default 2ms.
func Delta(d time.Duration) ScenarioOption {
	return ScenarioOption{func(p *scenario.Params) { p.Delta = d }}
}

// BaseDelay bounds ordinary asynchronous link delays to [lo, hi].
// Default 1ms..8ms.
func BaseDelay(lo, hi time.Duration) ScenarioOption {
	return ScenarioOption{func(p *scenario.Params) { p.BaseLo, p.BaseHi = lo, hi }}
}

// Spikes makes a fraction prob of asynchronous messages spike to a delay in
// [lo, hi]. Default 10% up to 60ms.
func Spikes(prob float64, lo, hi time.Duration) ScenarioOption {
	return ScenarioOption{func(p *scenario.Params) {
		p.SpikeProb, p.SpikeLo, p.SpikeHi = prob, lo, hi
	}}
}

// Drift makes delay spikes grow without bound: a spiked message sent at
// virtual time τ is additionally delayed by d·(τ/1s). This is what "no bound
// on transfer delays" means operationally; coverage experiments set it.
func Drift(d time.Duration) ScenarioOption {
	return ScenarioOption{func(p *scenario.Params) { p.Drift = d }}
}

// AdversarialOrder enables the reception-order adversary: δ-timely messages
// are pushed to the top of their budget while unconstrained ones race ahead,
// so being timely no longer implies winning reception races (the two
// assumption styles are incomparable, §1.2).
func AdversarialOrder() ScenarioOption {
	return ScenarioOption{func(p *scenario.Params) { p.AdversarialOrder = true }}
}

// Outages enables deterministic per-link outages on unconstrained links:
// every period, each directed link goes dark for a window starting at base
// and growing. Bursts — not single slow messages — are what break
// freshness-based failure detectors.
func Outages(period, base time.Duration) ScenarioOption {
	return ScenarioOption{func(p *scenario.Params) {
		p.OutagePeriod, p.OutageBase = period, base
	}}
}

// Growth sets the §7 functions for the IntermittentFG family: star gaps grow
// as D + f(s_k) and timely delays as δ + g(rn). Both are assumed known by
// the FG algorithm, as the paper requires.
func Growth(f func(k int64) int64, g func(rn int64) time.Duration) ScenarioOption {
	return ScenarioOption{func(p *scenario.Params) { p.F, p.G = f, g }}
}

// CrashAt schedules a crash-stop failure of process id at virtual time at.
func CrashAt(id int, at time.Duration) ScenarioOption {
	return ScenarioOption{func(p *scenario.Params) {
		p.Crashes = append(p.Crashes, scenario.Crash{ID: id, At: toSimTime(at)})
	}}
}

// RestartAt schedules a fresh incarnation of a previously crashed process
// (churn). Every restart must follow a crash of the same process; in the
// crash-stop model the recovered process counts as faulty, and eventual
// leadership is owed only to the never-crashed set.
func RestartAt(id int, at time.Duration) ScenarioOption {
	return ScenarioOption{func(p *scenario.Params) {
		p.Restarts = append(p.Restarts, scenario.Restart{ID: id, At: toSimTime(at)})
	}}
}

// The family constructors, from strongest to weakest assumption.

// AllTimely builds the strongest model: every link eventually timely
// (after a 200ms asynchronous prefix).
func AllTimely(opts ...ScenarioOption) ScenarioSpec {
	return ScenarioSpec{family: string(scenario.FamilyAllTimely), opts: opts}
}

// TSource builds the eventual t-source model [2]: one correct process whose
// ALIVEs reach a fixed set of t processes within δ.
func TSource(opts ...ScenarioOption) ScenarioSpec {
	return ScenarioSpec{family: string(scenario.FamilyTSource), opts: opts}
}

// MovingSource builds the eventual t-moving-source model [10]: like TSource
// but the receiving set may change every round.
func MovingSource(opts ...ScenarioOption) ScenarioSpec {
	return ScenarioSpec{family: string(scenario.FamilyMovingSource), opts: opts}
}

// Pattern builds the message-pattern model [16]: a fixed set always receives
// the center's round message among the winners; no timing bound anywhere.
func Pattern(opts ...ScenarioOption) ScenarioSpec {
	return ScenarioSpec{family: string(scenario.FamilyPattern), opts: opts}
}

// MovingPattern builds the rotating generalization of Pattern (one of the
// new special cases the paper's A' admits).
func MovingPattern(opts ...ScenarioOption) ScenarioSpec {
	return ScenarioSpec{family: string(scenario.FamilyMovingPattern), opts: opts}
}

// Combined builds the paper's A': a rotating star where each point is,
// independently per round, either δ-timely or winning. The default scenario.
func Combined(opts ...ScenarioOption) ScenarioSpec {
	return ScenarioSpec{family: string(scenario.FamilyCombined), opts: opts}
}

// Intermittent builds the paper's A: the Combined star exists only on a
// round subsequence with gaps bounded by Gap(d); outside it an adversary
// holds the center's messages until their receivers' rounds have passed.
func Intermittent(opts ...ScenarioOption) ScenarioSpec {
	return ScenarioSpec{family: string(scenario.FamilyIntermittent), opts: opts}
}

// IntermittentFG builds the §7 A_{f,g} model: star gaps grow as D + f(s_k)
// and timely delays as δ + g(rn); see Growth.
func IntermittentFG(opts ...ScenarioOption) ScenarioSpec {
	return ScenarioSpec{family: string(scenario.FamilyIntermittentFG), opts: opts}
}

// Families lists every assumption family name in strength order.
func Families() []string {
	fams := scenario.Families()
	out := make([]string, len(fams))
	for i, f := range fams {
		out[i] = string(f)
	}
	return out
}

// Family builds a spec from a family name (as printed by Families), for CLI
// and table-driven callers.
func Family(name string, opts ...ScenarioOption) (ScenarioSpec, error) {
	for _, f := range Families() {
		if f == name {
			return ScenarioSpec{family: name, opts: opts}, nil
		}
	}
	return ScenarioSpec{}, fmt.Errorf("%w: %q (want one of %v)", ErrUnknownFamily, name, Families())
}

// MustFamily is Family for statically known names; it panics on error.
func MustFamily(name string, opts ...ScenarioOption) ScenarioSpec {
	s, err := Family(name, opts...)
	if err != nil {
		panic(err)
	}
	return s
}

// build assembles the internal scenario from the spec plus the cluster's
// system-level parameters and its Churn windows, which apply last.
func (s ScenarioSpec) build(n, t, alpha int, seed uint64, churn *churnWindows) (*scenario.Scenario, error) {
	fam := s.family
	if fam == "" {
		fam = string(scenario.FamilyCombined)
	}
	p := scenario.Params{N: n, T: t, Alpha: alpha, Seed: seed}
	for _, o := range s.opts {
		o.f(&p)
	}
	if w := churn; w != nil {
		if w.period <= 0 || w.downtime <= 0 || w.downtime >= w.period {
			return nil, fmt.Errorf("%w: churn needs 0 < downtime < period, got period=%v downtime=%v",
				ErrInvalidParams, w.period, w.downtime)
		}
		p = scenario.WithChurn(p, w.start, w.period, w.downtime, w.until)
	}
	sc, err := scenario.Build(scenario.Family(fam), p)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidParams, err)
	}
	return sc, nil
}
