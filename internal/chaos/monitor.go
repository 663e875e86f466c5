package chaos

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/journal"
	"repro/internal/proc"
)

// Invariant rule names, as reported in violations.
const (
	// RuleReelection: the network is fully healed and quiet, yet no
	// connected majority agreed on a live leader within the bound.
	RuleReelection = "reelection-bound"
	// RuleAgreement: a connected majority component exists (possibly under
	// partition), yet its members disagreed on the leader — or followed a
	// dead or unreachable one — past the bound.
	RuleAgreement = "majority-agreement"
	// RuleDeadDelivery: a message was delivered to a crashed process.
	RuleDeadDelivery = "dead-delivery"
	// RuleStaleDelivery: a message was delivered to a superseded
	// incarnation of a restarted process.
	RuleStaleDelivery = "stale-incarnation-delivery"
	// RuleRestoreRegression: a recovery restore left a process with lower
	// suspicion counters than its journaled snapshot (suspicion state is
	// monotone; a regression re-trusts processes the snapshot had already
	// outwaited).
	RuleRestoreRegression = "restore-regression"
	// RuleJournalEscalation: a recovery path reported an error although no
	// journal fault was ever injected — the degradation ladder let an
	// unexplained failure through.
	RuleJournalEscalation = "journal-escalation"
)

// Violation is one invariant breach: when it fired, which rule, and why.
type Violation struct {
	At     time.Duration
	Rule   string
	Detail string
}

// maxStoredViolations caps a violationLog's kept list; its total keeps
// rising.
const maxStoredViolations = 64

// violationLog is the record every rule reports into: the first 64
// breaches are kept, Total counts all of them. Not safe for concurrent use.
type violationLog struct {
	kept  []Violation
	total uint64
}

func (l *violationLog) add(at time.Duration, rule, detail string) {
	l.total++
	if len(l.kept) < maxStoredViolations {
		l.kept = append(l.kept, Violation{At: at, Rule: rule, Detail: detail})
	}
}

// Violations returns a copy of the kept breaches.
func (l *violationLog) Violations() []Violation { return append([]Violation{}, l.kept...) }

// Total counts every breach, including those past the cap.
func (l *violationLog) Total() uint64 { return l.total }

// deadline is a rule's once-per-breach-window clock. A window runs from
// since; expired fires at most once per window, when a sample lands more
// than the bound past since. hold pushes since forward without re-arming a
// window that already fired; reset and end re-arm it. since never moves
// backwards within a window.
type deadline struct {
	since time.Duration
	open  bool
	fired bool
}

// begin starts a window at at unless one is already running.
func (d *deadline) begin(at time.Duration) {
	if !d.open {
		d.open, d.since = true, at
	}
}

// hold restarts the running window's clock at at; a fired window stays
// fired.
func (d *deadline) hold(at time.Duration) {
	if !d.open || at > d.since {
		d.since = at
	}
	d.open = true
}

// reset starts a fresh, re-armed window at at.
func (d *deadline) reset(at time.Duration) {
	d.fired = false
	d.hold(at)
}

// end closes the window and re-arms.
func (d *deadline) end() { d.open, d.fired = false, false }

// expired reports whether the window has outlasted bound at time at; it
// returns true once per window.
func (d *deadline) expired(at, bound time.Duration) bool {
	if !d.open || d.fired || at-d.since <= bound {
		return false
	}
	d.fired = true
	return true
}

// MonitorConfig configures a Monitor.
type MonitorConfig struct {
	N     int
	Bound time.Duration // re-election/agreement deadline after the last disruption
	// Hosted marks the processes whose oracle state this cluster can read.
	// nil means all of them. Remote members (multi-process runs) count for
	// connectivity but cannot be checked for agreement.
	Hosted []bool
}

// Monitor checks the protocol's invariants continuously during a chaos run.
// It reads the partition topology and whether noise is active from the
// Faults its orchestrator drives, receives a leader/liveness sample per
// collection tick, and records violations:
//
//   - Liveness: within Bound of the last disruption, every connected
//     majority component must have all its (hosted, live) members agreeing
//     on one live member of that component as leader. While loss, jitter or
//     slow-node noise is active the clock is held — the paper only promises
//     elections once the rotating-star assumption holds again. The settle
//     deadline is always open: crashes, restarts, recovery errors and noise
//     hold it; an agreeing sample or a schedule step resets it, so only
//     those re-arm a breach already reported.
//   - Safety, fed by the cluster seams: no deliveries to dead or superseded
//     incarnations, restores never regress suspicion state, journal faults
//     never escalate past the degradation ladder.
//
// All methods are safe for concurrent use. Lock order is Monitor.mu, then
// Faults.mu.
type Monitor struct {
	mu  sync.Mutex
	cfg MonitorConfig

	faults      *Faults // set by NewOrchestrator; nil reads as clean links
	journalEver bool    // some journal fault was injected at least once

	settle deadline
	log    violationLog

	comp  []int // scratch: component index per process
	queue []int // scratch: BFS queue
}

// NewMonitor returns a monitor for an n-process chaos run.
func NewMonitor(cfg MonitorConfig) *Monitor {
	return &Monitor{
		cfg:    cfg,
		settle: deadline{open: true}, // the settle clock runs from time 0
		comp:   make([]int, cfg.N),
		queue:  make([]int, 0, cfg.N),
	}
}

// noteStep restarts the settle clock for an applied schedule step and
// remembers whether a journal fault was ever injected.
func (m *Monitor) noteStep(at time.Duration, st Step) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.settle.reset(at) // a new disruption starts a new episode
	if st.Kind == StepJournal && st.Fault != journal.FaultOff {
		m.journalEver = true
	}
}

// NoteCrash records a crash (scheduled, chaos-injected, or explicit) so the
// settle clock restarts.
func (m *Monitor) NoteCrash(at time.Duration, id int) {
	m.mu.Lock()
	m.settle.hold(at)
	m.mu.Unlock()
}

// NoteRestart records a process rejoining.
func (m *Monitor) NoteRestart(at time.Duration, id int) {
	m.mu.Lock()
	m.settle.hold(at)
	m.mu.Unlock()
}

// NoteRecovery records the outcome of a journal restore during a restart. A
// recovery error is expected while journal faults are being injected (the
// degradation ladder absorbs it); one with no fault ever injected is an
// escalation violation.
func (m *Monitor) NoteRecovery(at time.Duration, id int, err error) {
	if err == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.settle.hold(at)
	if !m.journalEver {
		m.log.add(at, RuleJournalEscalation,
			fmt.Sprintf("process %d: recovery error with no journal fault injected: %v", id, err))
	}
}

// Violate records an externally detected violation (the cluster seams use
// this for delivery and restore checks).
func (m *Monitor) Violate(at time.Duration, rule, detail string) {
	m.mu.Lock()
	m.log.add(at, rule, detail)
	m.mu.Unlock()
}

// OnSample feeds one collection tick: per-process leader estimates (negative
// = unknown; indexes into the same id space) and the crashed mask. Remote
// members report down=false and leader unknown; the hosted mask keeps them
// out of the agreement check.
func (m *Monitor) OnSample(at time.Duration, leaders []proc.ID, down []bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := m.faults
	if f != nil {
		f.mu.Lock()
		defer f.mu.Unlock()
		if f.noisyLocked() {
			// Noise windows hold the settle clock; the bound starts at the
			// last noisy sample.
			m.settle.hold(at)
		}
	}
	if m.majorityAgrees(leaders, down) {
		m.settle.reset(at)
		return
	}
	if m.cfg.Bound > 0 && m.settle.expired(at, m.cfg.Bound) {
		rule := RuleReelection
		if f != nil && f.partitionedLocked() {
			rule = RuleAgreement
		}
		m.log.add(at, rule, fmt.Sprintf(
			"no agreeing connected majority for %v (bound %v); leaders=%v down=%v",
			at-m.settle.since, m.cfg.Bound, leaders, down))
	}
}

// majorityAgrees reports whether the current sample satisfies the liveness
// invariant: if a connected component of live processes holds a strict
// majority of the cluster, all its hosted members must agree on one live,
// in-component leader. With no majority component (or none we can observe)
// the check is vacuously true — the paper promises nothing there. Callers
// hold m.mu and, when m.faults is set, its lock.
func (m *Monitor) majorityAgrees(leaders []proc.ID, down []bool) bool {
	n := m.cfg.N
	// Connected components over live processes; edges need both directions
	// uncut.
	for i := range m.comp {
		m.comp[i] = -1
	}
	next := 0
	for s := 0; s < n; s++ {
		if down[s] || m.comp[s] >= 0 {
			continue
		}
		m.comp[s] = next
		m.queue = append(m.queue[:0], s)
		for len(m.queue) > 0 {
			u := m.queue[len(m.queue)-1]
			m.queue = m.queue[:len(m.queue)-1]
			for v := 0; v < n; v++ {
				if v == u || down[v] || m.comp[v] >= 0 {
					continue
				}
				if f := m.faults; f != nil && (f.cutLocked(u, v) || f.cutLocked(v, u)) {
					continue
				}
				m.comp[v] = next
				m.queue = append(m.queue, v)
			}
		}
		next++
	}
	// The (unique, if any) component holding a strict majority.
	major := -1
	for c := 0; c < next; c++ {
		size := 0
		for id := 0; id < n; id++ {
			if !down[id] && m.comp[id] == c {
				size++
			}
		}
		if 2*size > n {
			major = c
			break
		}
	}
	if major < 0 {
		return true
	}
	leader := -1
	for id := 0; id < n; id++ {
		if down[id] || m.comp[id] != major {
			continue
		}
		if m.cfg.Hosted != nil && !m.cfg.Hosted[id] {
			continue // remote: counts for connectivity, unobservable
		}
		l := int(leaders[id])
		if l < 0 || l >= n {
			return false // no estimate yet
		}
		if down[l] || m.comp[l] != major {
			return false // following a dead or unreachable leader
		}
		if leader < 0 {
			leader = l
		} else if l != leader {
			return false // disagreement inside the majority
		}
	}
	// Vacuously true when the majority holds no hosted member to check.
	return true
}

// Violations returns a copy of the recorded violations (capped at 64).
func (m *Monitor) Violations() []Violation {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.log.Violations()
}

// Total returns the number of violations observed, including any beyond
// the stored cap.
func (m *Monitor) Total() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.log.Total()
}
