package scenario

import (
	"fmt"
	"time"

	"repro/internal/sim"
)

// Family enumerates the assumption families; see the package documentation.
type Family string

// The assumption families, from strongest to weakest.
const (
	FamilyAllTimely      Family = "alltimely"
	FamilyTSource        Family = "tsource"
	FamilyMovingSource   Family = "movingsource"
	FamilyPattern        Family = "pattern"
	FamilyMovingPattern  Family = "movingpattern"
	FamilyCombined       Family = "combined"
	FamilyIntermittent   Family = "intermittent"
	FamilyIntermittentFG Family = "intermittentfg"
)

// Families lists all families in strength order (for grid experiments).
func Families() []Family {
	return []Family{
		FamilyAllTimely, FamilyTSource, FamilyMovingSource, FamilyPattern,
		FamilyMovingPattern, FamilyCombined, FamilyIntermittent, FamilyIntermittentFG,
	}
}

// Build constructs the scenario of the given family.
func Build(f Family, p Params) (*Scenario, error) {
	switch f {
	case FamilyAllTimely:
		return AllTimely(p)
	case FamilyTSource:
		return TSource(p)
	case FamilyMovingSource:
		return MovingSource(p)
	case FamilyPattern:
		return Pattern(p)
	case FamilyMovingPattern:
		return MovingPattern(p)
	case FamilyCombined:
		return Combined(p)
	case FamilyIntermittent:
		return Intermittent(p)
	case FamilyIntermittentFG:
		return IntermittentFG(p)
	default:
		return nil, fmt.Errorf("scenario: unknown family %q", f)
	}
}

// AllTimely builds the strongest model: every link eventually timely. The
// asynchronous prefix lasts 200ms of virtual time.
func AllTimely(p Params) (*Scenario, error) {
	p = p.withDefaults()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Scenario{
		Name:        string(FamilyAllTimely),
		Description: "every link timely (delay <= delta) after a 200ms asynchronous prefix",
		Params:      p,
		Policy:      &allTimelyPolicy{params: p, stabilize: sim.Time(200 * time.Millisecond)},
		Crashes:     p.Crashes,
		Restarts:    p.Restarts,
	}, nil
}

// TSource builds the eventual t-source model [2]: a fixed star with fixed Q
// and δ-timely points from round 1 on; all other links asynchronous.
func TSource(p Params) (*Scenario, error) {
	return buildStar(p, FamilyTSource,
		"eventual t-source: fixed Q, delta-timely center->Q links",
		func(p Params) StarSchedule { return newFixedStar(p, ModeTimely) })
}

// MovingSource builds the eventual t-moving-source model [10]: Q(rn)
// rotates every round, points δ-timely.
func MovingSource(p Params) (*Scenario, error) {
	return buildStar(p, FamilyMovingSource,
		"eventual t-moving source: rotating Q(rn), delta-timely points",
		func(p Params) StarSchedule { return newRotatingStar(p, ModeTimely, false) })
}

// Pattern builds the message-pattern model [16]: fixed Q, winning points,
// no timing bound anywhere (delays remain fully asynchronous).
func Pattern(p Params) (*Scenario, error) {
	return buildStar(p, FamilyPattern,
		"message pattern: fixed Q, center's round messages always winning",
		func(p Params) StarSchedule { return newFixedStar(p, ModeWinning) })
}

// MovingPattern builds the rotating generalization of the message-pattern
// model (one of the new special cases the paper's A' admits).
func MovingPattern(p Params) (*Scenario, error) {
	return buildStar(p, FamilyMovingPattern,
		"moving message pattern: rotating Q(rn), winning points",
		func(p Params) StarSchedule { return newRotatingStar(p, ModeWinning, false) })
}

// Combined builds the paper's A': a rotating star where each point is,
// independently per round, δ-timely or winning.
func Combined(p Params) (*Scenario, error) {
	return buildStar(p, FamilyCombined,
		"A': rotating star, per-point mix of timely and winning",
		func(p Params) StarSchedule { return newRotatingStar(p, ModeNone, true) })
}

// Intermittent builds the paper's A: the Combined star exists only on the
// round subsequence S = {1, 1+D, 1+2D, ...}; outside S the adversary
// delays the center's messages beyond every timeout (ModeLose).
func Intermittent(p Params) (*Scenario, error) {
	p.RotateLoseVictims = true
	return buildStar(p, FamilyIntermittent,
		fmt.Sprintf("A: intermittent rotating star, gap D=%d, adversarial outside S", p.D),
		func(p Params) StarSchedule {
			return &intermittentStar{
				inner:  newRotatingStar(p, ModeNone, true),
				member: fixedGapMembership(startRN, p.D),
			}
		})
}

// IntermittentFG builds the §7 A_{f,g} model: star gaps grow as D + F(s_k)
// and timely delays grow as δ + G(rn).
func IntermittentFG(p Params) (*Scenario, error) {
	p.RotateLoseVictims = true
	if p.F == nil {
		p.F = func(int64) int64 { return 0 }
	}
	if p.G == nil {
		p.G = func(int64) time.Duration { return 0 }
	}
	return buildStar(p, FamilyIntermittentFG,
		fmt.Sprintf("A_fg: growing star gaps D=%d + f(s_k), growing delays delta + g(rn)", p.D),
		func(p Params) StarSchedule {
			return &intermittentStar{
				inner:  newRotatingStar(p, ModeNone, true),
				member: growingGapMembership(startRN, p.D, p.F),
			}
		})
}

// buildStar assembles the shared star-scenario plumbing.
func buildStar(p Params, fam Family, desc string, mk func(Params) StarSchedule) (*Scenario, error) {
	p = p.withDefaults()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	sched := mk(p)
	pol := &starPolicy{params: p, schedule: sched}
	gate := newWinningGate(p, sched, p.Alpha)
	return &Scenario{
		Name:        string(fam),
		Description: desc,
		Params:      p,
		Schedule:    sched,
		Policy:      pol,
		Gate:        gate,
		Crashes:     p.Crashes,
		Restarts:    p.Restarts,
		star:        pol,
		gate:        gate,
	}, nil
}
