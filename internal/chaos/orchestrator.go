package chaos

import (
	"sync"
	"time"

	"repro/internal/journal"
)

// Injector is what the orchestrator drives beyond the link faults: the
// cluster-side seams a process or journal step lands on. The star engines
// implement it over the engine's crash/restart machinery and the journal
// FaultStore.
type Injector interface {
	Kill(id int)
	Restart(id int)
	JournalFault(proc int, mode journal.FaultMode)
}

// Applied is one fired timeline entry: when it fired (transport time) and
// the deterministic step description. The applied timeline is the replay
// identity artifact — on the simulated transport two runs of the same
// (options, seed, schedule) produce identical timelines.
type Applied struct {
	At   time.Duration
	Desc string
}

// Orchestrator expands a validated Schedule into timed actions and records
// the applied timeline. It is the one writer of the cluster's link-fault
// state: link steps land on its Faults, the rest on its Injector. The
// engine owns scheduling: it asks for Actions() once and fires each at its
// At on the transport's clock (virtual or wall).
type Orchestrator struct {
	faults *Faults
	inj    Injector
	mon    *Monitor
	ops    []expStep

	mu       sync.Mutex
	timeline []Applied
}

// NewOrchestrator prepares sched (already validated) for injection: link
// steps into faults, process and journal steps through inj. Each applied
// step is reported to mon (may be nil), which from then on reads the link
// state from faults; call it before the monitor's first sample.
func NewOrchestrator(sched Schedule, faults *Faults, inj Injector, mon *Monitor) *Orchestrator {
	if mon != nil {
		mon.faults = faults
	}
	return &Orchestrator{faults: faults, inj: inj, mon: mon, ops: sched.expand()}
}

// Action is one expanded step bound to its orchestrator, ready to fire.
type Action struct {
	At time.Duration // schedule offset the engine should fire this at

	o *Orchestrator
	i int
}

// Actions returns the expanded steps in firing order (window reversions
// included). Each must be fired exactly once.
func (o *Orchestrator) Actions() []Action {
	out := make([]Action, len(o.ops))
	for i := range o.ops {
		out[i] = Action{At: o.ops[i].step.At, o: o, i: i}
	}
	return out
}

// Fire applies the action at transport time now: mutates the faults or
// the injector, notifies the monitor, and appends to the applied timeline.
func (a Action) Fire(now time.Duration) {
	o := a.o
	st := o.ops[a.i].step
	switch st.Kind {
	case StepPartition:
		o.faults.PartitionGroups(st.Groups)
	case StepHeal:
		o.faults.HealAll()
	case StepCut:
		o.faults.Cut(st.From, st.To)
	case StepHealLink:
		o.faults.HealLink(st.From, st.To)
	case StepLoss:
		o.faults.SetLoss(st.Pct)
	case StepJitter:
		o.faults.SetJitter(st.Lo, st.Hi)
	case StepSlow:
		o.faults.SetSlow(st.Proc, st.Extra)
	case StepKill:
		o.inj.Kill(st.Proc)
	case StepRestart:
		o.inj.Restart(st.Proc)
	case StepJournal:
		o.inj.JournalFault(st.Proc, st.Fault)
	}
	if o.mon != nil {
		o.mon.noteStep(now, st)
	}
	o.mu.Lock()
	o.timeline = append(o.timeline, Applied{At: now, Desc: st.Desc()})
	o.mu.Unlock()
}

// Timeline returns a copy of the applied timeline so far.
func (o *Orchestrator) Timeline() []Applied {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]Applied, len(o.timeline))
	copy(out, o.timeline)
	return out
}

// StepsApplied returns how many actions have fired.
func (o *Orchestrator) StepsApplied() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.timeline)
}
