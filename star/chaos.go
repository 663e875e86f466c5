package star

import (
	"fmt"
	"time"

	"repro/internal/chaos"
	"repro/internal/journal"
	"repro/internal/proc"
)

// ChaosSchedule is a deterministic fault timeline: typed steps applied at
// offsets from the cluster's start. Build one fluently, parse one from the
// JSON schedule format, or draw one from a seed with SampleChaosSchedule,
// then install it with WithChaos. The same schedule runs on every transport
// that declares CapChaos: on the simulator the whole run (fault timeline
// included) is a pure function of (options, seed); on the live and network
// transports the steps fire on wall-clock timers.
//
// Builder methods record the first error and keep chaining; WithChaos
// surfaces it from New.
type ChaosSchedule struct {
	sched chaos.Schedule
	err   error
}

// NewChaosSchedule returns an empty fault timeline to build on.
func NewChaosSchedule() *ChaosSchedule { return &ChaosSchedule{} }

// ParseChaosSchedule reads the JSON schedule format (the same format
// cmd/starnet -chaos loads and failing soaks print for replay).
func ParseChaosSchedule(data []byte) (*ChaosSchedule, error) {
	s := &ChaosSchedule{}
	if err := s.sched.UnmarshalJSON(data); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidParams, err)
	}
	return s, nil
}

// SampleChaosSchedule draws a randomized but fully deterministic soak
// schedule for an (n, t) cluster: a minority partition, asymmetric cuts,
// loss/jitter/slow windows, kill+restart pairs within the resilience bound,
// and (with withJournal) a journal-fault window — all healed well before
// horizon so the run must end re-elected. The same seed always yields the
// same schedule; print a failing seed's JSON() to replay it byte for byte.
func SampleChaosSchedule(seed uint64, n, t int, horizon time.Duration, withJournal bool) *ChaosSchedule {
	return &ChaosSchedule{sched: chaos.Sample(seed, n, t, horizon, withJournal)}
}

// JSON renders the schedule in the schedule file format.
func (s *ChaosSchedule) JSON() ([]byte, error) {
	if s.err != nil {
		return nil, s.err
	}
	return s.sched.MarshalJSON()
}

// Len returns the number of steps (window reversions not included).
func (s *ChaosSchedule) Len() int { return len(s.sched.Steps) }

func (s *ChaosSchedule) add(st chaos.Step) *ChaosSchedule {
	s.sched.Steps = append(s.sched.Steps, st)
	return s
}

// Partition cuts every link between processes in different groups (both
// directions) at time at. Processes not listed form one implicit extra
// group. Cuts compose; HealAll clears them.
func (s *ChaosSchedule) Partition(at time.Duration, groups ...[]int) *ChaosSchedule {
	return s.add(chaos.Step{At: at, Kind: chaos.StepPartition, Groups: groups})
}

// HealAll removes every active cut (partitions and asymmetric cuts) at at.
func (s *ChaosSchedule) HealAll(at time.Duration) *ChaosSchedule {
	return s.add(chaos.Step{At: at, Kind: chaos.StepHeal})
}

// Cut severs the directed link from -> to at at (asymmetric partition).
func (s *ChaosSchedule) Cut(at time.Duration, from, to int) *ChaosSchedule {
	return s.add(chaos.Step{At: at, Kind: chaos.StepCut, From: from, To: to})
}

// HealLink restores the directed link from -> to at at.
func (s *ChaosSchedule) HealLink(at time.Duration, from, to int) *ChaosSchedule {
	return s.add(chaos.Step{At: at, Kind: chaos.StepHealLink, From: from, To: to})
}

// Loss sets the uniform per-message drop probability to pct at at. A
// window > 0 reverts to 0 at at+window; window == 0 is sticky.
func (s *ChaosSchedule) Loss(at time.Duration, pct float64, window time.Duration) *ChaosSchedule {
	return s.add(chaos.Step{At: at, Kind: chaos.StepLoss, Pct: pct, Window: window})
}

// Jitter delays every admitted message a uniform extra duration in [lo, hi]
// from at. Windowed like Loss.
func (s *ChaosSchedule) Jitter(at, lo, hi, window time.Duration) *ChaosSchedule {
	return s.add(chaos.Step{At: at, Kind: chaos.StepJitter, Lo: lo, Hi: hi, Window: window})
}

// SlowNode adds extra delay to every message sent or received by id from
// at. Windowed like Loss.
func (s *ChaosSchedule) SlowNode(at time.Duration, id int, extra, window time.Duration) *ChaosSchedule {
	return s.add(chaos.Step{At: at, Kind: chaos.StepSlow, Proc: id, Extra: extra, Window: window})
}

// Kill crashes process id at at (crash-stop).
func (s *ChaosSchedule) Kill(at time.Duration, id int) *ChaosSchedule {
	return s.add(chaos.Step{At: at, Kind: chaos.StepKill, Proc: id})
}

// Restart brings the killed process id back as a fresh incarnation at at.
// Every Restart must be preceded by a Kill of the same process.
func (s *ChaosSchedule) Restart(at time.Duration, id int) *ChaosSchedule {
	return s.add(chaos.Step{At: at, Kind: chaos.StepRestart, Proc: id})
}

// JournalFault injects recovery-journal I/O faults for process id (or every
// process with id == -1) from at: mode is "eio", "enospc", "short-write",
// "bitflip", or "off". Windowed like Loss. Requires WithRecovery.
func (s *ChaosSchedule) JournalFault(at time.Duration, id int, mode string, window time.Duration) *ChaosSchedule {
	m, err := journal.ParseFaultMode(mode)
	if err != nil && s.err == nil {
		s.err = fmt.Errorf("%w: %v", ErrInvalidParams, err)
	}
	return s.add(chaos.Step{At: at, Kind: chaos.StepJournal, Proc: id, Fault: m, Window: window})
}

// WithChaos installs a fault timeline: the cluster fires each step at its
// offset on the transport's clock, and a continuous invariant monitor checks
// re-election and agreement against the ChaosBound deadline plus the safety
// rules (no deliveries to dead or superseded incarnations, restores never
// regress suspicion state, journal faults never escalate past the recovery
// degradation ladder). Requires the CapChaos capability; schedules with
// journal-fault steps additionally require WithRecovery. Results land in
// Report().Chaos.
func WithChaos(s *ChaosSchedule) Option {
	return optionFunc(func(c *config) error {
		if s == nil {
			return fmt.Errorf("%w: WithChaos(nil)", ErrInvalidParams)
		}
		if s.err != nil {
			return s.err
		}
		// Copy the steps so later builder mutations don't reach into a
		// validated config (group slices are shared: treat built schedules
		// as immutable once installed).
		cp := chaos.Schedule{Steps: append([]chaos.Step(nil), s.sched.Steps...)}
		c.chaos = &cp
		return nil
	})
}

// ChaosBound sets the chaos monitor's re-election deadline: after the last
// disruption (step fired, crash, restart, or active noise window), a
// connected majority must agree on a live leader within d before the
// monitor records a violation. Default DefaultChaosBound.
func ChaosBound(d time.Duration) Option {
	return optionFunc(func(c *config) error { c.chaosBound = d; return nil })
}

// ChaosApplied is one fired timeline entry: when it fired on the
// transport's clock, and the step's deterministic description. On the
// simulated transport the applied timeline is the replay-identity artifact:
// two runs of the same (options, seed, schedule) produce identical ones.
type ChaosApplied struct {
	At   time.Duration
	Desc string
}

// Violation is one invariant breach a monitor observed: when it fired on
// the run's clock, the rule's stable name, and a human-readable detail.
type Violation struct {
	At     time.Duration
	Rule   string
	Detail string
}

// violations converts a monitor's kept breaches.
func violations(vs []chaos.Violation) []Violation {
	var out []Violation
	for _, v := range vs {
		out = append(out, Violation(v))
	}
	return out
}

// ChaosReport summarizes a WithChaos run: the applied timeline (window
// reversions included) and the monitor's verdict.
type ChaosReport struct {
	// StepsApplied counts fired actions; Timeline lists them in order.
	StepsApplied int
	Timeline     []ChaosApplied
	// Violations lists observed invariant breaches (capped at 64);
	// TotalViolations counts all of them. A clean run has 0.
	Violations      []Violation
	TotalViolations uint64
}

// chaosInjector adapts the cluster's seams to the orchestrator (link steps
// land on c.chaosFaults, which the orchestrator owns): kill/restart on the
// cluster's one crash path, journal faults on the FaultStore wrapped around
// the recovery store. Ids come from a validated schedule.
type chaosInjector struct{ c *Cluster }

// Kill crashes a live hosted process; a remote member's own process fires
// the same schedule step, and killing an already-down process is a no-op
// (Validate rejects such schedules; manual crashes can still race one).
func (j chaosInjector) Kill(id int) { j.c.crash(id) }

func (j chaosInjector) Restart(id int) { j.c.restart(id) }

func (j chaosInjector) JournalFault(p int, mode journal.FaultMode) {
	if j.c.chaosJournal != nil {
		j.c.chaosJournal.SetFault(p, mode)
	}
}

var _ chaos.Injector = chaosInjector{}

// chaosGuard wraps a process endpoint to feed the monitor's delivery
// invariants: a delivery reaching a crashed process or a superseded
// incarnation is a transport bug, not protocol behavior. The guard is
// rebuilt with the process (buildProcess), so its incarnation stamp always
// matches the wrapped node's.
type chaosGuard struct {
	c     *Cluster
	id    int
	inc   uint64
	inner proc.Node
}

// Start runs the wrapped node's init (which applies any staged snapshot
// restore), then verifies the restore-regression invariant against the floor
// buildProcess recorded: suspicion state is monotone, so the incarnation
// must come up with at least its journaled levels.
func (g *chaosGuard) Start(env proc.Env) {
	g.inner.Start(env)
	c := g.c
	if fl := c.chaosFloor[g.id]; fl != nil {
		c.chaosFloor[g.id] = nil
		if cn := c.cores[g.id]; cn != nil {
			post := cn.SuspLevel()
			for i, lv := range fl {
				if i < len(post) && post[i] < lv {
					c.chaosMon.Violate(c.engNow(), chaos.RuleRestoreRegression,
						fmt.Sprintf("process %d: susp_level[%d] restored to %d, below journaled %d",
							g.id, i, post[i], lv))
				}
			}
		}
	}
}

func (g *chaosGuard) OnMessage(from proc.ID, msg any) {
	g.c.checkChaosDelivery(g.id, g.inc)
	g.inner.OnMessage(from, msg)
}

func (g *chaosGuard) OnTimer(key proc.TimerKey) { g.inner.OnTimer(key) }

// OnCrash forwards when the wrapped node observes crashes. The guard always
// implements Crashable so wrapping never hides the inner node's interest.
func (g *chaosGuard) OnCrash() {
	if cr, ok := g.inner.(proc.Crashable); ok {
		cr.OnCrash()
	}
}

var (
	_ proc.Node      = (*chaosGuard)(nil)
	_ proc.Crashable = (*chaosGuard)(nil)
)

// checkChaosDelivery runs on the delivery path, under the receiving
// process's callback lock — the same lock the restart rebuild holds — so
// the incarnation read is race-free on every transport.
func (c *Cluster) checkChaosDelivery(id int, inc uint64) {
	if c.eng == nil {
		return
	}
	if c.down(id) {
		c.chaosMon.Violate(c.eng.now(), chaos.RuleDeadDelivery,
			fmt.Sprintf("message delivered to crashed process %d", id))
	}
	if cur := c.incarnations[id]; inc != cur {
		c.chaosMon.Violate(c.eng.now(), chaos.RuleStaleDelivery,
			fmt.Sprintf("message delivered to process %d incarnation %d (current %d)", id, inc, cur))
	}
}
