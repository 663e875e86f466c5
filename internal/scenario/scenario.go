// Package scenario constructs executions of the simulated system that
// satisfy, by construction, exactly one of the synchrony assumptions studied
// in the paper:
//
//   - AllTimely: every link is eventually timely (the strongest model, [14]).
//   - TSource: an eventual t-source [2] — one correct process whose ALIVE
//     messages reach a FIXED set Q of t processes within δ.
//   - MovingSource: an eventual t-moving source [10] — like TSource but
//     Q(rn) may change each round.
//   - Pattern: the message-pattern assumption [16] — a fixed Q whose members
//     always receive the center's round-rn message among the first n-t such
//     messages ("winning"); no timing bound anywhere.
//   - MovingPattern: the rotating generalization of Pattern (new in the
//     paper).
//   - Combined: the paper's A' — a rotating star where each point is,
//     independently per round, either δ-timely or winning.
//   - Intermittent: the paper's A — Combined, but the star only exists on a
//     round subsequence S with gaps bounded by D; outside S an adversary
//     holds the center's messages until their receivers' rounds have passed.
//   - IntermittentFG: the §7 A_{f,g} model — star gaps grow as D + f(s_k)
//     and timely delays grow as δ + g(rn).
//
// A Scenario bundles a delay policy, an optional order gate (for the
// winning-message property and the lose adversary, which constrain
// reception order rather than time), and a crash schedule. The adversaries
// observe the system through one Probes value (Scenario.Attach). Scenarios
// are deterministic given their seed.
package scenario

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/netsim"
	"repro/internal/proc"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Mode is the constraint the star schedule places on one message.
type Mode int

// Constraint modes for the center's round-tagged messages.
const (
	// ModeNone leaves the message to the base asynchronous delays.
	ModeNone Mode = iota
	// ModeTimely bounds the transfer delay by δ (+ g(rn) under FG).
	ModeTimely
	// ModeWinning guarantees the message is received among the first
	// alpha-1 same-round messages of its receiver (order, not time).
	ModeWinning
	// ModeLose is the adversary: the order gate holds the message until
	// its receiver's receiving round has passed the message's round, so
	// it is neither timely nor winning (used outside the subsequence S
	// to attack non-intermittent algorithms). The delay itself is
	// ordinary asynchrony.
	ModeLose
)

func (m Mode) String() string {
	switch m {
	case ModeNone:
		return "none"
	case ModeTimely:
		return "timely"
	case ModeWinning:
		return "winning"
	case ModeLose:
		return "lose"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Crash schedules one process failure.
type Crash struct {
	ID proc.ID
	At sim.Time
}

// Restart schedules one fresh incarnation of a previously crashed process
// (the churn scenarios pair every Crash with a later Restart). The restarted
// process starts from empty state — this is churn in a crash-stop world, not
// crash-recovery with stable storage — so correctness checkers must treat it
// as faulty (star.Cluster.EverCrashed); what churn exercises is everyone ELSE's
// bookkeeping under the adversarial round skew a rebooting peer produces.
type Restart struct {
	ID proc.ID
	At sim.Time
}

// startRN is RN₀, the first round the star constrains: rounds before it
// are unconstrained. Rounds are numbered from 1, so the star holds from the
// start.
const startRN = 1

// RoundTag extracts the round tag from a payload, reporting ok=false for
// untagged messages. Round-tagged kinds are ALIVE (core algorithms and the
// time-free baseline; tag is the sending round) and HEARTBEAT (the timeout
// baseline; tag is the beacon sequence). wire.Mux envelopes are unwrapped.
func RoundTag(payload any) (tag int64, ok bool) {
	for {
		switch m := payload.(type) {
		case *wire.Mux:
			payload = m.Inner
		case *wire.Alive:
			return m.RN, true
		case *wire.Heartbeat:
			return m.Seq, true
		default:
			return 0, false
		}
	}
}

// StarSchedule decides, per round and receiver, how the center's message is
// constrained. Implementations must be deterministic.
type StarSchedule interface {
	// Center returns the star's center process p.
	Center() proc.ID
	// Mode returns the constraint on the center's round-rn message to q.
	Mode(rn int64, q proc.ID) Mode
}

// Scenario is a fully assembled execution environment.
type Scenario struct {
	// Name identifies the assumption family (used in reports).
	Name string
	// Description is a one-line human-readable summary.
	Description string
	// Params echoes the parameters the scenario was built from.
	Params Params
	// Schedule is the star schedule (nil for AllTimely).
	Schedule StarSchedule
	// Policy is the delay policy to install in the network.
	Policy netsim.DelayPolicy
	// Gate is the order gate (nil unless winning modes are used).
	Gate netsim.Gate
	// Crashes is the crash schedule.
	Crashes []Crash
	// Restarts is the churn schedule (fresh incarnations of crashed
	// processes; empty for the pure crash-stop scenarios).
	Restarts []Restart

	gate *winningGate // retained for Attach and GateStats
}

// Probes is the adversary's view of the system it attacks: the delay policy
// and the order gate observe the cluster through it and nothing else. The
// gate calls it on every arrival and delivery, so every method must be
// cheap. A scenario that is never attached answers each method with its
// "unknown" value, which disarms the observation that method feeds.
type Probes interface {
	// Crashed reports whether process q is down now: a crashed center
	// releases its order constraints (A2's case (1)), and messages to a
	// crashed receiver are never held.
	Crashed(q proc.ID) bool
	// Down counts the processes down now; it sizes the lose budget.
	// Unknown: 0.
	Down() int
	// Round returns q's current receiving round. The lose holds and the
	// victim pacing act only on a known round. Unknown: -1, also for a
	// process that has no receiving round (the Stable baseline), which
	// the lose adversary therefore never holds.
	Round(q proc.ID) int64
	// Leader returns the leader estimate the order and lose adversaries
	// chase (see the policy docs). Unknown: proc.None, no chase.
	Leader() proc.ID
	// MaxTimeout returns the largest receiving-round timeout armed by a
	// correct process; victim pacing scales with it. Unknown: 0.
	MaxTimeout() time.Duration
}

// unattached is the view of a scenario that was never attached: every probe
// answers "unknown".
type unattached struct{}

func (unattached) Crashed(proc.ID) bool      { return false }
func (unattached) Down() int                 { return 0 }
func (unattached) Round(proc.ID) int64       { return -1 }
func (unattached) Leader() proc.ID           { return proc.None }
func (unattached) MaxTimeout() time.Duration { return 0 }

// Attach installs the adversary's view of the system: the delay policy and
// the order gate read crashes, rounds, the leader and timeouts through p
// from then on. Call it once, before the run starts.
func (s *Scenario) Attach(p Probes) {
	switch pol := s.Policy.(type) {
	case *starPolicy:
		pol.probes = p
	case *allTimelyPolicy:
		pol.probes = p
	}
	if s.gate != nil {
		s.gate.probes = p
	}
}

// GateStats returns how many messages the order gate held under the winning
// constraint and under the lose constraint (0,0 when the scenario has no
// gate). Useful to verify the adversary/assumption machinery actually
// engaged during a run.
func (s *Scenario) GateStats() (winning, lose uint64) {
	if s.gate == nil {
		return 0, 0
	}
	return s.gate.holdsWinning, s.gate.holdsLose
}

// Params configures scenario construction. Zero fields take defaults.
type Params struct {
	N, T int    // system size and resilience (required)
	Seed uint64 // determinism seed

	// Center is the star center; default 0. Experiments that crash the
	// center must pick a correct one instead.
	Center proc.ID

	// Delta is δ, the (unknown to the algorithm) bound on timely
	// messages. Default 2ms.
	Delta time.Duration

	// BaseLo/BaseHi bound ordinary asynchronous link delays; spikes
	// occasionally stretch to SpikeHi with probability SpikeProb.
	// Defaults: 1ms..8ms, 10% spikes up to 60ms.
	BaseLo, BaseHi time.Duration
	SpikeProb      float64
	SpikeLo        time.Duration
	SpikeHi        time.Duration

	// D is the intermittent gap bound: the star exists on rounds
	// 1, 1+D, 1+2D, ... Default 1 (every round).
	D int64

	// F and G are the §7 growth functions (IntermittentFG only).
	F func(k int64) int64
	G func(rn int64) time.Duration

	// Drift makes delay spikes grow without bound: a spiked message sent
	// at virtual time τ is additionally delayed by Drift·(τ/1s). This is
	// what "no bound on transfer delays" means operationally — with
	// Drift = 0 every delay is bounded by SpikeHi and any adaptive
	// timeout eventually calibrates, masking the differences between
	// assumption families. Coverage experiments set it positive.
	Drift time.Duration

	// AdversarialOrder enables the order adversary: unconstrained
	// messages become very fast ([Delta/20, Delta/10]) while δ-timely
	// messages are pushed to the top of their budget ([0.8δ, δ]) and a
	// per-round rotating victim's round-rn messages are delayed to the
	// top of the legal budget. Being timely then no longer implies
	// winning reception races, which separates the time-free algorithms
	// from the timer-based ones exactly as the models predict (the two
	// assumption styles are incomparable, §1.2).
	AdversarialOrder bool

	// RotateLoseVictims extends the ModeLose adversary to non-center
	// processes: the chased leader (Probes.Leader) has its round-rn
	// messages held by the order gate until each receiver's receiving
	// round has passed rn, and the other processes' round-tagged messages
	// are paced to arrive near their receiver's round. Without it, an
	// algorithm lacking the window test (Figure 1) can still luck into a
	// stable non-center leader because the unattacked processes look
	// permanently well-behaved; a real asynchronous adversary owes them
	// nothing. The holds are keyed on rounds, not on wall time: receiving
	// rounds slow down as timeouts grow, and a time-based attack would
	// eventually land inside the round again and quietly disarm itself.
	// The Intermittent constructors set it.
	RotateLoseVictims bool

	// OutagePeriod/OutageBase enable deterministic per-link outages on
	// unconstrained links: every OutagePeriod, each directed link goes
	// dark for a window that starts at OutageBase and doubles every four
	// periods (capped at OutagePeriod/2); messages sent during the
	// window are delivered at its end. Outages are what "unbounded
	// delays" means against freshness-based failure detectors: single
	// slow messages never break heartbeat freshness (the next heartbeat
	// refreshes it), only bursts do. 0 disables outages.
	OutagePeriod time.Duration
	OutageBase   time.Duration

	// Alpha is the reception threshold used to size winning-order
	// budgets; 0 means N-T.
	Alpha int

	// Crashes is the crash schedule to attach.
	Crashes []Crash

	// Restarts schedules fresh incarnations of crashed processes (churn).
	// Every restart must follow a crash of the same process, and at no
	// instant may more than T processes be down simultaneously.
	Restarts []Restart
}

func (p Params) withDefaults() Params {
	if p.Delta == 0 {
		p.Delta = 2 * time.Millisecond
	}
	if p.BaseLo == 0 {
		p.BaseLo = time.Millisecond
	}
	if p.BaseHi == 0 {
		p.BaseHi = 8 * time.Millisecond
	}
	if p.SpikeProb == 0 {
		p.SpikeProb = 0.1
	}
	if p.SpikeLo == 0 {
		p.SpikeLo = 20 * time.Millisecond
	}
	if p.SpikeHi == 0 {
		p.SpikeHi = 60 * time.Millisecond
	}
	if p.D == 0 {
		p.D = 1
	}
	if p.Alpha == 0 {
		p.Alpha = p.N - p.T
	}
	return p
}

// Validate reports configuration errors.
func (p Params) Validate() error {
	if p.N < 2 {
		return fmt.Errorf("scenario: N must be >= 2, got %d", p.N)
	}
	if p.T < 0 || p.T >= p.N {
		return fmt.Errorf("scenario: T must be in [0,%d), got %d", p.N, p.T)
	}
	if p.Center < 0 || p.Center >= p.N {
		return fmt.Errorf("scenario: center %d out of range", p.Center)
	}
	for _, c := range p.Crashes {
		if c.ID < 0 || c.ID >= p.N {
			return fmt.Errorf("scenario: crash of invalid process %d", c.ID)
		}
		if c.At < 0 {
			return fmt.Errorf("scenario: crash of process %d at negative time %v", c.ID, c.At)
		}
		if c.ID == p.Center {
			return fmt.Errorf("scenario: the star center %d must be correct", c.ID)
		}
	}
	for _, r := range p.Restarts {
		if r.ID < 0 || r.ID >= p.N {
			return fmt.Errorf("scenario: restart of invalid process %d", r.ID)
		}
		if r.At < 0 {
			return fmt.Errorf("scenario: restart of process %d at negative time %v", r.ID, r.At)
		}
	}
	if len(p.Restarts) == 0 {
		// Crash-stop only: the resilience bound is simply a count.
		if crashed := len(p.Crashes); crashed > p.T {
			return fmt.Errorf("scenario: %d crashes exceed T=%d", crashed, p.T)
		}
		return nil
	}
	return p.validateChurn()
}

// validateChurn sweeps the crash/restart schedule in time order and checks
// that (1) the schedule holds no exact duplicate entries, (2) every restart
// follows — strictly after, a zero-length downtime would mis-simulate — a
// crash of the same process, (3) no process crashes twice without an
// intervening restart, and (4) at no instant are more than T processes
// down. Ties are broken pessimistically (crashes apply before restarts at
// the same instant).
func (p Params) validateChurn() error {
	type ev struct {
		at      sim.Time
		id      proc.ID
		restart bool
	}
	evs := make([]ev, 0, len(p.Crashes)+len(p.Restarts))
	for _, c := range p.Crashes {
		evs = append(evs, ev{c.At, c.ID, false})
	}
	for _, r := range p.Restarts {
		evs = append(evs, ev{r.At, r.ID, true})
	}
	seen := make(map[ev]bool, len(evs))
	for _, e := range evs {
		if seen[e] {
			kind := "crash"
			if e.restart {
				kind = "restart"
			}
			return fmt.Errorf("scenario: duplicate %s of process %d at %v", kind, e.id, e.at)
		}
		seen[e] = true
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].at != evs[j].at {
			return evs[i].at < evs[j].at
		}
		return !evs[i].restart && evs[j].restart
	})
	down := make([]bool, p.N)
	downAt := make([]sim.Time, p.N)
	ndown := 0
	for _, e := range evs {
		if e.restart {
			if !down[e.id] {
				return fmt.Errorf("scenario: restart of process %d at %v without a prior crash", e.id, e.at)
			}
			if e.at <= downAt[e.id] {
				return fmt.Errorf("scenario: restart of process %d at %v must come strictly after its crash at %v",
					e.id, e.at, downAt[e.id])
			}
			down[e.id] = false
			ndown--
			continue
		}
		if down[e.id] {
			return fmt.Errorf("scenario: process %d crashes at %v while already down", e.id, e.at)
		}
		down[e.id] = true
		downAt[e.id] = e.at
		ndown++
		if ndown > p.T {
			return fmt.Errorf("scenario: %d processes down at %v exceeds T=%d", ndown, e.at, p.T)
		}
	}
	return nil
}
