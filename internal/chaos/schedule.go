// Package chaos turns the repository's individual fault knobs — link cuts
// and loss (the proc.LinkFault seam), crash/restart churn,
// and journal I/O faults — into one deterministic, seed-replayable fault
// timeline that runs identically (in schedule terms) on all three
// transports. A Schedule is a list of typed, timestamped steps; an
// Orchestrator expands it into timed actions an engine fires, applying link
// steps to the one Faults the transport consults and the rest through an
// Injector; a Monitor checks the protocol's liveness and safety invariants
// continuously while the timeline executes; a generator (Sample) draws
// randomized schedules from a seed for soak testing, with the schedule JSON
// as the replay artifact.
//
// Determinism contract: a Schedule is plain data. On the simulated transport
// the expanded actions fire at exact virtual times and every loss/jitter
// draw comes from a seeded stream, so (options, seed, schedule) fully
// determine the run — replaying a soak seed reproduces the fault timeline
// and the domain metrics byte for byte. On the live and network transports
// the same schedule fires on wall-clock timers: the fault pattern is
// reproduced, the interleaving around it is real.
package chaos

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/journal"
)

// StepKind discriminates schedule steps.
type StepKind uint8

const (
	// StepPartition cuts every link between processes in different groups
	// (both directions). Processes not listed in any group form one
	// implicit extra group. Cuts compose with earlier cuts; StepHeal clears
	// them all.
	StepPartition StepKind = iota + 1
	// StepHeal removes every active cut (partitions and asymmetric cuts).
	StepHeal
	// StepCut severs the directed link From -> To (asymmetric partition).
	StepCut
	// StepHealLink restores the directed link From -> To.
	StepHealLink
	// StepLoss sets the uniform per-message drop probability to Pct. With
	// Window > 0 the loss reverts to 0 at At+Window; Window == 0 is sticky.
	StepLoss
	// StepJitter holds every admitted message back a uniform duration in
	// [Lo, Hi]. Windowed like StepLoss.
	StepJitter
	// StepSlow adds Extra delay to every message sent or received by Proc.
	// Windowed like StepLoss.
	StepSlow
	// StepKill crashes process Proc (crash-stop).
	StepKill
	// StepRestart brings killed process Proc back as a fresh incarnation.
	StepRestart
	// StepJournal sets the recovery journal's injected fault mode for Proc
	// (journal.FaultAll for every process). Windowed like StepLoss.
	StepJournal
)

var kindNames = map[StepKind]string{
	StepPartition: "partition",
	StepHeal:      "heal",
	StepCut:       "cut",
	StepHealLink:  "heal-link",
	StepLoss:      "loss",
	StepJitter:    "jitter",
	StepSlow:      "slow",
	StepKill:      "kill",
	StepRestart:   "restart",
	StepJournal:   "journal",
}

// String renders the schedule-format name of the kind.
func (k StepKind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("StepKind(%d)", uint8(k))
}

// Step is one timed fault transition. Which fields are meaningful depends on
// Kind; see the kind constants.
type Step struct {
	At   time.Duration
	Kind StepKind

	Groups   [][]int           // StepPartition
	From, To int               // StepCut, StepHealLink
	Pct      float64           // StepLoss
	Lo, Hi   time.Duration     // StepJitter
	Extra    time.Duration     // StepSlow
	Window   time.Duration     // StepLoss/Jitter/Slow/Journal: 0 = sticky
	Proc     int               // StepSlow/Kill/Restart/Journal (journal.FaultAll allowed for StepJournal)
	Fault    journal.FaultMode // StepJournal
}

// Desc renders the step as the deterministic one-line description used in
// applied timelines (the replay-comparison artifact).
func (s Step) Desc() string {
	switch s.Kind {
	case StepPartition:
		return fmt.Sprintf("partition %v", s.Groups)
	case StepHeal:
		return "heal-all"
	case StepCut:
		return fmt.Sprintf("cut %d->%d", s.From, s.To)
	case StepHealLink:
		return fmt.Sprintf("heal %d->%d", s.From, s.To)
	case StepLoss:
		if s.Pct == 0 {
			return "loss off"
		}
		return fmt.Sprintf("loss %g", s.Pct)
	case StepJitter:
		if s.Hi == 0 {
			return "jitter off"
		}
		return fmt.Sprintf("jitter %v..%v", s.Lo, s.Hi)
	case StepSlow:
		if s.Extra == 0 {
			return fmt.Sprintf("slow %d off", s.Proc)
		}
		return fmt.Sprintf("slow %d +%v", s.Proc, s.Extra)
	case StepKill:
		return fmt.Sprintf("kill %d", s.Proc)
	case StepRestart:
		return fmt.Sprintf("restart %d", s.Proc)
	case StepJournal:
		return fmt.Sprintf("journal %v proc=%d", s.Fault, s.Proc)
	}
	return fmt.Sprintf("unknown(%d)", uint8(s.Kind))
}

// Schedule is a fault timeline: steps applied at their At offsets from the
// cluster's start. Step order within one instant follows slice order.
type Schedule struct {
	Steps []Step
}

// Validate checks the schedule against a cluster of n processes: ids in
// range, well-formed groups, windows and probabilities in range, and every
// restart preceded by a kill of the same process that is still in effect.
func (s Schedule) Validate(n int) error {
	type timed struct {
		idx int
		st  Step
	}
	ordered := make([]timed, 0, len(s.Steps))
	for i, st := range s.Steps {
		if st.At < 0 {
			return fmt.Errorf("chaos: step %d (%s): negative time %v", i, st.Kind, st.At)
		}
		if st.Window < 0 {
			return fmt.Errorf("chaos: step %d (%s): negative window %v", i, st.Kind, st.Window)
		}
		if st.At > math.MaxInt64-st.Window {
			return fmt.Errorf("chaos: step %d (%s): window %v from %v ends past the largest time", i, st.Kind, st.Window, st.At)
		}
		switch st.Kind {
		case StepPartition:
			if len(st.Groups) < 2 {
				return fmt.Errorf("chaos: step %d: partition needs at least 2 groups", i)
			}
			seen := make(map[int]bool)
			for _, g := range st.Groups {
				if len(g) == 0 {
					return fmt.Errorf("chaos: step %d: empty partition group", i)
				}
				for _, id := range g {
					if id < 0 || id >= n {
						return fmt.Errorf("chaos: step %d: partition member %d out of range [0,%d)", i, id, n)
					}
					if seen[id] {
						return fmt.Errorf("chaos: step %d: process %d in two partition groups", i, id)
					}
					seen[id] = true
				}
			}
		case StepHeal:
			// no parameters
		case StepCut, StepHealLink:
			if st.From < 0 || st.From >= n || st.To < 0 || st.To >= n {
				return fmt.Errorf("chaos: step %d (%s): link %d->%d out of range [0,%d)", i, st.Kind, st.From, st.To, n)
			}
			if st.From == st.To {
				return fmt.Errorf("chaos: step %d (%s): self-link %d->%d", i, st.Kind, st.From, st.To)
			}
		case StepLoss:
			if st.Pct < 0 || st.Pct > 1 {
				return fmt.Errorf("chaos: step %d: loss probability %g outside [0,1]", i, st.Pct)
			}
		case StepJitter:
			if st.Lo < 0 || st.Hi < st.Lo {
				return fmt.Errorf("chaos: step %d: jitter range %v..%v invalid", i, st.Lo, st.Hi)
			}
		case StepSlow:
			if st.Proc < 0 || st.Proc >= n {
				return fmt.Errorf("chaos: step %d: slow process %d out of range [0,%d)", i, st.Proc, n)
			}
			if st.Extra < 0 {
				return fmt.Errorf("chaos: step %d: negative slow delay %v", i, st.Extra)
			}
		case StepKill, StepRestart:
			if st.Proc < 0 || st.Proc >= n {
				return fmt.Errorf("chaos: step %d (%s): process %d out of range [0,%d)", i, st.Kind, st.Proc, n)
			}
			ordered = append(ordered, timed{i, st})
		case StepJournal:
			if st.Proc != journal.FaultAll && (st.Proc < 0 || st.Proc >= n) {
				return fmt.Errorf("chaos: step %d: journal process %d out of range (or journal.FaultAll)", i, st.Proc)
			}
		default:
			return fmt.Errorf("chaos: step %d: unknown kind %d", i, uint8(st.Kind))
		}
	}
	// Kill/restart pairing in time order (ties resolve in slice order).
	sort.SliceStable(ordered, func(a, b int) bool { return ordered[a].st.At < ordered[b].st.At })
	down := make(map[int]bool)
	for _, t := range ordered {
		switch t.st.Kind {
		case StepKill:
			if down[t.st.Proc] {
				return fmt.Errorf("chaos: step %d: kill %d while already down", t.idx, t.st.Proc)
			}
			down[t.st.Proc] = true
		case StepRestart:
			if !down[t.st.Proc] {
				return fmt.Errorf("chaos: step %d: restart %d without a preceding kill", t.idx, t.st.Proc)
			}
			down[t.st.Proc] = false
		}
	}
	return nil
}

// HasJournalFaults reports whether any step injects journal faults (such a
// schedule needs a recovery store to inject into).
func (s Schedule) HasJournalFaults() bool {
	for _, st := range s.Steps {
		if st.Kind == StepJournal {
			return true
		}
	}
	return false
}

// Quiesce returns the time of the last fault transition in the schedule,
// window expirations included — after it the fault state no longer changes.
func (s Schedule) Quiesce() time.Duration {
	var q time.Duration
	for _, st := range s.Steps {
		end := st.At + st.Window
		if end > q {
			q = end
		}
	}
	return q
}

// expStep is one expanded action: a (possibly synthesized) step plus the
// stable ordering key used for ties.
type expStep struct {
	step Step
	ord  int
}

// expand flattens the schedule into firing order: every step at its At, plus
// a synthesized reversion step at At+Window for each windowed fault. Ties
// fire original steps in slice order, then reversions in slice order.
func (s Schedule) expand() []expStep {
	out := make([]expStep, 0, len(s.Steps)*2)
	for i, st := range s.Steps {
		out = append(out, expStep{step: st, ord: i})
		if st.Window <= 0 {
			continue
		}
		off := Step{At: st.At + st.Window, Kind: st.Kind, Proc: st.Proc}
		switch st.Kind {
		case StepLoss, StepJitter, StepSlow:
			// zero-valued fields revert the knob
		case StepJournal:
			off.Fault = journal.FaultOff
		default:
			continue // windows only apply to the knob steps
		}
		out = append(out, expStep{step: off, ord: len(s.Steps) + i})
	}
	sort.SliceStable(out, func(a, b int) bool {
		if out[a].step.At != out[b].step.At {
			return out[a].step.At < out[b].step.At
		}
		return out[a].ord < out[b].ord
	})
	return out
}

// stepJSON is the schedule file format: durations as Go duration strings,
// kinds and fault modes by name. It is what cmd/starnet -chaos reads and
// what soak failures print for replay.
type stepJSON struct {
	At     string  `json:"at"`
	Kind   string  `json:"kind"`
	Groups [][]int `json:"groups,omitempty"`
	From   *int    `json:"from,omitempty"`
	To     *int    `json:"to,omitempty"`
	Pct    float64 `json:"pct,omitempty"`
	Lo     string  `json:"lo,omitempty"`
	Hi     string  `json:"hi,omitempty"`
	Extra  string  `json:"extra,omitempty"`
	Window string  `json:"for,omitempty"`
	Proc   *int    `json:"proc,omitempty"`
	Fault  string  `json:"fault,omitempty"`
}

type scheduleJSON struct {
	Steps []stepJSON `json:"steps"`
}

// MarshalJSON implements json.Marshaler using the schedule file format.
func (s Schedule) MarshalJSON() ([]byte, error) {
	out := scheduleJSON{Steps: make([]stepJSON, 0, len(s.Steps))}
	dur := func(d time.Duration) string {
		if d == 0 {
			return ""
		}
		return d.String()
	}
	for _, st := range s.Steps {
		j := stepJSON{At: st.At.String(), Kind: st.Kind.String(), Window: dur(st.Window)}
		switch st.Kind {
		case StepPartition:
			j.Groups = st.Groups
		case StepCut, StepHealLink:
			from, to := st.From, st.To
			j.From, j.To = &from, &to
		case StepLoss:
			j.Pct = st.Pct
		case StepJitter:
			j.Lo, j.Hi = dur(st.Lo), dur(st.Hi)
		case StepSlow:
			p := st.Proc
			j.Proc = &p
			j.Extra = dur(st.Extra)
		case StepKill, StepRestart:
			p := st.Proc
			j.Proc = &p
		case StepJournal:
			p := st.Proc
			j.Proc = &p
			j.Fault = st.Fault.String()
		}
		out.Steps = append(out.Steps, j)
	}
	return json.Marshal(out)
}

// UnmarshalJSON implements json.Unmarshaler for the schedule file format.
func (s *Schedule) UnmarshalJSON(data []byte) error {
	var in scheduleJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("chaos: parsing schedule: %w", err)
	}
	parseDur := func(i int, field, v string) (time.Duration, error) {
		if v == "" {
			return 0, nil
		}
		d, err := time.ParseDuration(v)
		if err != nil {
			return 0, fmt.Errorf("chaos: step %d: bad %s %q: %v", i, field, v, err)
		}
		return d, nil
	}
	steps := make([]Step, 0, len(in.Steps))
	for i, j := range in.Steps {
		var st Step
		var err error
		if st.At, err = parseDur(i, "at", j.At); err != nil {
			return err
		}
		if st.Window, err = parseDur(i, "for", j.Window); err != nil {
			return err
		}
		kind := StepKind(0)
		for k, name := range kindNames {
			if name == j.Kind {
				kind = k
				break
			}
		}
		if kind == 0 {
			return fmt.Errorf("chaos: step %d: unknown kind %q", i, j.Kind)
		}
		st.Kind = kind
		needInt := func(field string, p *int) (int, error) {
			if p == nil {
				return 0, fmt.Errorf("chaos: step %d (%s): missing %q", i, j.Kind, field)
			}
			return *p, nil
		}
		switch kind {
		case StepPartition:
			st.Groups = j.Groups
		case StepCut, StepHealLink:
			if st.From, err = needInt("from", j.From); err != nil {
				return err
			}
			if st.To, err = needInt("to", j.To); err != nil {
				return err
			}
		case StepLoss:
			st.Pct = j.Pct
		case StepJitter:
			if st.Lo, err = parseDur(i, "lo", j.Lo); err != nil {
				return err
			}
			if st.Hi, err = parseDur(i, "hi", j.Hi); err != nil {
				return err
			}
		case StepSlow:
			if st.Proc, err = needInt("proc", j.Proc); err != nil {
				return err
			}
			if st.Extra, err = parseDur(i, "extra", j.Extra); err != nil {
				return err
			}
		case StepKill, StepRestart:
			if st.Proc, err = needInt("proc", j.Proc); err != nil {
				return err
			}
		case StepJournal:
			if st.Proc, err = needInt("proc", j.Proc); err != nil {
				return err
			}
			if st.Fault, err = journal.ParseFaultMode(j.Fault); err != nil {
				return fmt.Errorf("chaos: step %d: %v", i, err)
			}
		}
		steps = append(steps, st)
	}
	s.Steps = steps
	return nil
}
