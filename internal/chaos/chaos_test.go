package chaos

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/journal"
)

// validSchedule uses every step kind on a 5-process cluster.
var validSchedule = Schedule{Steps: []Step{
	{At: 10 * time.Millisecond, Kind: StepPartition, Groups: [][]int{{1, 2}, {0, 3, 4}}},
	{At: 20 * time.Millisecond, Kind: StepCut, From: 0, To: 3},
	{At: 30 * time.Millisecond, Kind: StepLoss, Pct: 0.2, Window: 40 * time.Millisecond},
	{At: 35 * time.Millisecond, Kind: StepJitter, Lo: time.Millisecond, Hi: 3 * time.Millisecond, Window: 20 * time.Millisecond},
	{At: 40 * time.Millisecond, Kind: StepSlow, Proc: 2, Extra: 5 * time.Millisecond, Window: 20 * time.Millisecond},
	{At: 50 * time.Millisecond, Kind: StepKill, Proc: 4},
	{At: 60 * time.Millisecond, Kind: StepJournal, Proc: journal.FaultAll, Fault: journal.FaultEIO, Window: 30 * time.Millisecond},
	{At: 90 * time.Millisecond, Kind: StepRestart, Proc: 4},
	{At: 100 * time.Millisecond, Kind: StepHeal},
}}

func TestScheduleValidate(t *testing.T) {
	good := validSchedule
	if err := good.Validate(5); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}

	bad := []Schedule{
		{Steps: []Step{{At: -time.Millisecond, Kind: StepHeal}}},
		{Steps: []Step{{Kind: StepPartition, Groups: [][]int{{0, 1, 2, 3, 4}}}}},
		{Steps: []Step{{Kind: StepPartition, Groups: [][]int{{0, 1}, {1, 2}}}}},
		{Steps: []Step{{Kind: StepPartition, Groups: [][]int{{0}, {7}}}}},
		{Steps: []Step{{Kind: StepCut, From: 2, To: 2}}},
		{Steps: []Step{{Kind: StepCut, From: 0, To: 5}}},
		{Steps: []Step{{Kind: StepLoss, Pct: 1.5}}},
		{Steps: []Step{{Kind: StepJitter, Lo: 5 * time.Millisecond, Hi: time.Millisecond}}},
		{Steps: []Step{{Kind: StepSlow, Proc: 9}}},
		{Steps: []Step{{Kind: StepRestart, Proc: 1}}},
		{Steps: []Step{
			{At: 0, Kind: StepKill, Proc: 1},
			{At: time.Millisecond, Kind: StepKill, Proc: 1},
		}},
		{Steps: []Step{{Kind: StepJournal, Proc: -2, Fault: journal.FaultEIO}}},
		{Steps: []Step{{At: math.MaxInt64, Kind: StepLoss, Pct: 0.5, Window: time.Nanosecond}}},
	}
	for i, s := range bad {
		if err := s.Validate(5); err == nil {
			t.Errorf("bad schedule %d accepted", i)
		}
	}
}

// roundTripSchedule is a 5-process schedule in whole and half seconds.
var roundTripSchedule = Schedule{Steps: []Step{
	{At: time.Second, Kind: StepPartition, Groups: [][]int{{1, 2}, {0, 3, 4}}},
	{At: 1500 * time.Millisecond, Kind: StepCut, From: 0, To: 3},
	{At: 2 * time.Second, Kind: StepLoss, Pct: 0.25, Window: time.Second},
	{At: 2 * time.Second, Kind: StepJitter, Lo: time.Millisecond, Hi: 4 * time.Millisecond, Window: 500 * time.Millisecond},
	{At: 3 * time.Second, Kind: StepSlow, Proc: 2, Extra: 2 * time.Millisecond, Window: time.Second},
	{At: 3 * time.Second, Kind: StepKill, Proc: 4},
	{At: 4 * time.Second, Kind: StepRestart, Proc: 4},
	{At: 4 * time.Second, Kind: StepJournal, Proc: journal.FaultAll, Fault: journal.FaultBitflip, Window: time.Second},
	{At: 6 * time.Second, Kind: StepHeal},
}}

func TestScheduleJSONRoundTrip(t *testing.T) {
	s := roundTripSchedule
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Schedule
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(s, back) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", back, s)
	}
	// Marshaling again must be byte-identical (replay artifact stability).
	data2, err := json.Marshal(back)
	if err != nil {
		t.Fatalf("re-marshal: %v", err)
	}
	if string(data) != string(data2) {
		t.Fatalf("non-stable JSON:\n %s\n %s", data, data2)
	}
}

func TestScheduleExpandWindows(t *testing.T) {
	s := Schedule{Steps: []Step{
		{At: 10 * time.Millisecond, Kind: StepLoss, Pct: 0.3, Window: 20 * time.Millisecond},
		{At: 15 * time.Millisecond, Kind: StepKill, Proc: 1},
	}}
	exp := s.expand()
	var descs []string
	var ats []time.Duration
	for _, e := range exp {
		descs = append(descs, e.step.Desc())
		ats = append(ats, e.step.At)
	}
	wantDescs := []string{"loss 0.3", "kill 1", "loss off"}
	wantAts := []time.Duration{10 * time.Millisecond, 15 * time.Millisecond, 30 * time.Millisecond}
	if !reflect.DeepEqual(descs, wantDescs) || !reflect.DeepEqual(ats, wantAts) {
		t.Fatalf("expand = %v @ %v, want %v @ %v", descs, ats, wantDescs, wantAts)
	}
	if got, want := s.Quiesce(), 30*time.Millisecond; got != want {
		t.Fatalf("Quiesce = %v, want %v", got, want)
	}
}

func TestGeneratorDeterministicAndValid(t *testing.T) {
	const horizon = 8 * time.Second
	for seed := uint64(1); seed <= 50; seed++ {
		a := Sample(seed, 5, 1, horizon, true)
		b := Sample(seed, 5, 1, horizon, true)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: Sample not deterministic", seed)
		}
		if err := a.Validate(5); err != nil {
			t.Fatalf("seed %d: generated schedule invalid: %v", seed, err)
		}
		if q := a.Quiesce(); q > horizon*11/20 {
			t.Fatalf("seed %d: quiesce %v past target %v", seed, q, horizon*11/20)
		}
		if !a.HasJournalFaults() {
			t.Fatalf("seed %d: withJournal schedule has no journal step", seed)
		}
		// Tail must be quiet: last transition is the heal-all.
		last := a.Steps[len(a.Steps)-1]
		if last.Kind != StepHeal {
			t.Fatalf("seed %d: schedule does not end with heal-all", seed)
		}
	}
	if Sample(7, 3, 0, time.Second, false).HasJournalFaults() {
		t.Fatal("journal-free schedule has journal steps")
	}
}

func TestFaultsCutLossSlow(t *testing.T) {
	f := NewFaults(4, 42)
	f.Cut(0, 1)
	if f.Admit(0, 1) {
		t.Fatal("cut link admitted")
	}
	if !f.Admit(1, 0) {
		t.Fatal("cut is directed; reverse should admit")
	}
	f.HealLink(0, 1)
	if !f.Admit(0, 1) {
		t.Fatal("healed link refused")
	}

	f.PartitionGroups([][]int{{0, 1}, {2}}) // 3 unlisted: implicit group
	if f.Admit(0, 2) || f.Admit(2, 1) || f.Admit(3, 0) || f.Admit(2, 3) {
		t.Fatal("cross-group link admitted under partition")
	}
	if !f.Admit(0, 1) || !f.Admit(1, 0) {
		t.Fatal("intra-group link refused under partition")
	}
	f.HealAll()
	if !f.Admit(0, 2) || !f.Admit(2, 3) {
		t.Fatal("heal-all left cuts behind")
	}

	f.SetLoss(1)
	if f.Admit(0, 1) {
		t.Fatal("loss=1 admitted a message")
	}
	f.SetLoss(0)
	if !f.Admit(0, 1) {
		t.Fatal("loss=0 dropped a message")
	}

	if d := f.Delay(0, 1); d != 0 {
		t.Fatalf("clean delay = %v, want 0", d)
	}
	f.SetSlow(1, 3*time.Millisecond)
	if d := f.Delay(0, 1); d != 3*time.Millisecond {
		t.Fatalf("slow receiver delay = %v", d)
	}
	if d := f.Delay(1, 2); d != 3*time.Millisecond {
		t.Fatalf("slow sender delay = %v", d)
	}
	if d := f.Delay(2, 3); d != 0 {
		t.Fatalf("unrelated link delay = %v", d)
	}
	f.SetJitter(time.Millisecond, 2*time.Millisecond)
	if d := f.Delay(2, 3); d < time.Millisecond || d > 2*time.Millisecond {
		t.Fatalf("jitter delay %v outside range", d)
	}
}

// fakeInjector records calls for orchestrator tests.
type fakeInjector struct {
	calls []string
}

func (f *fakeInjector) Kill(id int)    { f.calls = append(f.calls, "kill") }
func (f *fakeInjector) Restart(id int) { f.calls = append(f.calls, "restart") }
func (f *fakeInjector) JournalFault(p int, m journal.FaultMode) {
	f.calls = append(f.calls, "journal")
}

func TestOrchestratorTimeline(t *testing.T) {
	const ms = time.Millisecond
	s := Schedule{Steps: []Step{
		{At: 5 * ms, Kind: StepPartition, Groups: [][]int{{1}, {0, 2}}},
		{At: 10 * ms, Kind: StepLoss, Pct: 1, Window: 10 * ms},
		{At: 12 * ms, Kind: StepSlow, Proc: 0, Extra: 3 * ms},
		{At: 15 * ms, Kind: StepKill, Proc: 2},
		{At: 25 * ms, Kind: StepRestart, Proc: 2},
		{At: 26 * ms, Kind: StepJournal, Proc: journal.FaultAll, Fault: journal.FaultEIO},
		{At: 30 * ms, Kind: StepHeal},
	}}
	f := NewFaults(3, 1)
	inj := &fakeInjector{}
	o := NewOrchestrator(s, f, inj, nil)
	acts := o.Actions()
	if len(acts) != 8 { // + loss-off reversion
		t.Fatalf("got %d actions, want 8", len(acts))
	}
	// What the faults admit and delay once each action has fired.
	type links struct {
		admit01, admit02 bool
		delay02          time.Duration
	}
	want := []links{
		{false, true, 0},       // partition: 1 alone
		{false, false, 0},      // loss 1
		{false, false, 3 * ms}, // slow 0
		{false, false, 3 * ms}, // kill: links unchanged
		{false, true, 3 * ms},  // loss off
		{false, true, 3 * ms},  // restart
		{false, true, 3 * ms},  // journal
		{true, true, 3 * ms},   // heal-all leaves the slow node
	}
	for i, a := range acts {
		a.Fire(a.At)
		got := links{f.Admit(0, 1), f.Admit(0, 2), f.Delay(0, 2)}
		if got != want[i] {
			t.Fatalf("after action %d: links %+v, want %+v", i, got, want[i])
		}
	}
	if want := []string{"kill", "restart", "journal"}; !reflect.DeepEqual(inj.calls, want) {
		t.Fatalf("calls = %v, want %v", inj.calls, want)
	}
	var descs []string
	for _, a := range o.Timeline() {
		descs = append(descs, a.Desc)
	}
	wantDescs := []string{"partition [[1] [0 2]]", "loss 1", "slow 0 +3ms", "kill 2",
		"loss off", "restart 2", "journal eio proc=-1", "heal-all"}
	if !reflect.DeepEqual(descs, wantDescs) {
		t.Fatalf("timeline = %q, want %q", descs, wantDescs)
	}
	if tl := o.Timeline(); tl[4].At != 20*ms {
		t.Fatalf("loss reverted at %v, want 20ms", tl[4].At)
	}
	if o.StepsApplied() != 8 {
		t.Fatalf("StepsApplied = %d", o.StepsApplied())
	}
}

// fireUntil wires m to a fresh n-process Faults through one orchestrator
// over steps and returns a function that fires, in order, every action due
// by at: an engine's timeline, driven by hand.
func fireUntil(m *Monitor, n int, steps ...Step) func(at time.Duration) {
	acts := NewOrchestrator(Schedule{Steps: steps}, NewFaults(n, 1), &fakeInjector{}, m).Actions()
	return func(at time.Duration) {
		for len(acts) > 0 && acts[0].At <= at {
			acts[0].Fire(acts[0].At)
			acts = acts[1:]
		}
	}
}

func TestMonitorAgreementAndBound(t *testing.T) {
	m := NewMonitor(MonitorConfig{N: 5, Bound: 100 * time.Millisecond})
	leaders := []int{0, 0, 0, 0, 0}
	down := make([]bool, 5)

	m.OnSample(10*time.Millisecond, leaders, down)
	if m.Total() != 0 {
		t.Fatal("agreeing sample flagged")
	}

	// Disagreement starts at t=20ms; within bound no violation, past it one.
	leaders[2] = 1
	m.OnSample(50*time.Millisecond, leaders, down)
	if m.Total() != 0 {
		t.Fatal("violation before bound elapsed")
	}
	m.OnSample(200*time.Millisecond, leaders, down)
	if m.Total() != 1 {
		t.Fatalf("want 1 violation, got %d", m.Total())
	}
	// Episode latch: continued disagreement is the same violation.
	m.OnSample(250*time.Millisecond, leaders, down)
	if m.Total() != 1 {
		t.Fatalf("episode double counted: %d", m.Total())
	}
	if v := m.Violations(); v[0].Rule != RuleReelection {
		t.Fatalf("rule = %q", v[0].Rule)
	}
	// Recovery resets the latch.
	leaders[2] = 0
	m.OnSample(300*time.Millisecond, leaders, down)
	leaders[2] = 3
	m.OnSample(500*time.Millisecond, leaders, down)
	if m.Total() != 2 {
		t.Fatalf("second episode not counted: %d", m.Total())
	}
}

// TestMonitorHoldDoesNotRearm: a crash or restart moves the settle clock but
// leaves a reported episode reported; only a schedule step (or an agreeing
// sample) starts a new one.
func TestMonitorHoldDoesNotRearm(t *testing.T) {
	m := NewMonitor(MonitorConfig{N: 3, Bound: 50 * time.Millisecond})
	fire := fireUntil(m, 3, Step{At: 310 * time.Millisecond, Kind: StepHeal})
	leaders := []int{-1, -1, -1}
	down := make([]bool, 3)
	m.OnSample(100*time.Millisecond, leaders, down)
	if m.Total() != 1 {
		t.Fatalf("want 1 violation, got %d", m.Total())
	}
	m.NoteCrash(110*time.Millisecond, 1)
	m.NoteRestart(120*time.Millisecond, 1)
	m.OnSample(300*time.Millisecond, leaders, down)
	if m.Total() != 1 {
		t.Fatalf("crash/restart re-armed the episode: %d", m.Total())
	}
	fire(310 * time.Millisecond)
	m.OnSample(340*time.Millisecond, leaders, down)
	if m.Total() != 1 {
		t.Fatalf("fired inside the bound after the step: %d", m.Total())
	}
	m.OnSample(400*time.Millisecond, leaders, down)
	if m.Total() != 2 {
		t.Fatalf("schedule step did not re-arm: %d", m.Total())
	}
}

func TestMonitorPartitionSemantics(t *testing.T) {
	m := NewMonitor(MonitorConfig{N: 5, Bound: 50 * time.Millisecond})
	fire := fireUntil(m, 5,
		Step{Kind: StepPartition, Groups: [][]int{{3, 4}, {0, 1, 2}}},
		Step{At: 300 * time.Millisecond, Kind: StepHeal})
	fire(0)
	down := make([]bool, 5)

	// Majority side {0,1,2} agreeing on 0: minority may disagree freely.
	leaders := []int{0, 0, 0, 4, 4}
	m.OnSample(100*time.Millisecond, leaders, down)
	if m.Total() != 0 {
		t.Fatal("partitioned minority disagreement flagged")
	}

	// Majority following a leader outside its component is a violation
	// (after the bound), attributed to the agreement rule.
	leaders = []int{4, 4, 4, 4, 4}
	m.OnSample(200*time.Millisecond, leaders, down)
	m.OnSample(300*time.Millisecond, leaders, down)
	if m.Total() != 1 {
		t.Fatalf("cross-partition leader not flagged: %d", m.Total())
	}
	if v := m.Violations(); v[0].Rule != RuleAgreement {
		t.Fatalf("rule = %q", v[0].Rule)
	}

	// Heal; following a crashed leader is also a violation.
	fire(300 * time.Millisecond)
	down[4] = true
	m.OnSample(400*time.Millisecond, leaders, down)
	if m.Total() != 2 {
		t.Fatalf("dead leader not flagged: %d", m.Total())
	}
}

func TestMonitorNoiseSuppression(t *testing.T) {
	m := NewMonitor(MonitorConfig{N: 3, Bound: 50 * time.Millisecond})
	fire := fireUntil(m, 3,
		Step{Kind: StepLoss, Pct: 0.5},
		Step{At: 400 * time.Millisecond, Kind: StepLoss, Pct: 0})
	fire(0)
	leaders := []int{-1, -1, -1}
	down := make([]bool, 3)
	for at := time.Duration(0); at <= 400*time.Millisecond; at += 10 * time.Millisecond {
		m.OnSample(at, leaders, down)
	}
	if m.Total() != 0 {
		t.Fatal("violation during active loss window")
	}
	// Noise off: the bound now runs.
	fire(400 * time.Millisecond)
	m.OnSample(500*time.Millisecond, leaders, down)
	if m.Total() != 1 {
		t.Fatalf("no violation after noise ended: %d", m.Total())
	}
}

func TestMonitorJournalEscalation(t *testing.T) {
	m := NewMonitor(MonitorConfig{N: 3, Bound: time.Second})
	m.NoteRecovery(10*time.Millisecond, 1, nil)
	if m.Total() != 0 {
		t.Fatal("clean recovery flagged")
	}
	m.NoteRecovery(20*time.Millisecond, 1, journal.ErrCorrupt)
	if m.Total() != 1 {
		t.Fatal("unexplained recovery error not flagged")
	}
	// With a journal fault injected, recovery errors are expected.
	m.noteStep(30*time.Millisecond, Step{Kind: StepJournal, Proc: journal.FaultAll, Fault: journal.FaultEIO})
	m.NoteRecovery(40*time.Millisecond, 2, journal.ErrCorrupt)
	if m.Total() != 1 {
		t.Fatal("expected recovery error flagged as escalation")
	}
}

func TestMonitorHostedMask(t *testing.T) {
	// Only 0 and 1 hosted; remote members (2..4) report leader -1 but count
	// as live for connectivity.
	m := NewMonitor(MonitorConfig{N: 5, Bound: 50 * time.Millisecond, Hosted: []bool{true, true, false, false, false}})
	leaders := []int{0, 0, -1, -1, -1}
	down := make([]bool, 5)
	m.OnSample(100*time.Millisecond, leaders, down)
	m.OnSample(200*time.Millisecond, leaders, down)
	if m.Total() != 0 {
		t.Fatalf("remote members' unknown leaders flagged: %d", m.Total())
	}
}

func TestFedMonitorGlobalLiveness(t *testing.T) {
	m := NewFedMonitor(4, 50*time.Millisecond)
	leaders := []int{0, 1, -1, 2} // 3/4 healthy: majority

	// Healthy majority, no global leader: the clock arms but does not fire
	// within the bound.
	m.OnSample(10*time.Millisecond, leaders, -1, 8)
	m.OnSample(40*time.Millisecond, leaders, -1, 8)
	if m.Total() != 0 {
		t.Fatalf("fired before the bound: %d", m.Total())
	}
	// Past the bound: exactly one violation per continuous window.
	m.OnSample(70*time.Millisecond, leaders, -1, 8)
	m.OnSample(90*time.Millisecond, leaders, -1, 8)
	if m.Total() != 1 {
		t.Fatalf("violations = %d, want 1", m.Total())
	}
	if v := m.Violations(); len(v) != 1 || v[0].Rule != RuleGlobalLiveness {
		t.Fatalf("unexpected violations: %+v", v)
	}

	// A global leader appearing clears and re-arms.
	m.OnSample(100*time.Millisecond, leaders, 9, 8)
	m.OnSample(200*time.Millisecond, leaders, -1, 8)
	m.OnSample(210*time.Millisecond, leaders, -1, 8)
	if m.Total() != 1 {
		t.Fatalf("re-fired inside the new window: %d", m.Total())
	}
}

func TestFedMonitorStaleGlobal(t *testing.T) {
	m := NewFedMonitor(2, 50*time.Millisecond)
	// Global leader is shard 1 local 3 (flat 1*8+3 = 11), but shard 1's own
	// election says 5.
	leaders := []int{0, 5}
	m.OnSample(0, leaders, 11, 8)
	m.OnSample(30*time.Millisecond, leaders, 11, 8)
	if m.Total() != 0 {
		t.Fatalf("fired before the bound: %d", m.Total())
	}
	m.OnSample(80*time.Millisecond, leaders, 11, 8)
	if m.Total() != 1 {
		t.Fatalf("violations = %d, want 1", m.Total())
	}
	if v := m.Violations(); v[0].Rule != RuleStaleGlobal {
		t.Fatalf("unexpected rule: %q", v[0].Rule)
	}
	// Handoff catches up: condition clears.
	m.OnSample(90*time.Millisecond, []int{0, 3}, 11, 8)
	m.OnSample(200*time.Millisecond, []int{0, 3}, 11, 8)
	if m.Total() != 1 {
		t.Fatalf("fired after clearing: %d", m.Total())
	}
}

// TestViolationLogContract: both rule sets keep the first 64 breaches, count
// every one, and hand out copies.
func TestViolationLogContract(t *testing.T) {
	const breaches = 100
	cluster := NewMonitor(MonitorConfig{N: 3, Bound: 10 * time.Millisecond})
	leaders := []int{-1, -1, -1}
	down := make([]bool, 3)
	fed := NewFedMonitor(2, 10*time.Millisecond)
	for i := 0; i < breaches; i++ {
		at := time.Duration(i) * 100 * time.Millisecond
		// Each agreeing sample re-arms the liveness rule; the bad one past
		// the bound is a new breach window.
		cluster.OnSample(at, []int{0, 0, 0}, down)
		cluster.OnSample(at+50*time.Millisecond, leaders, down)
		// Likewise a global leader clears the federation liveness rule.
		fed.OnSample(at, []int{0, 1}, 0, 4)
		fed.OnSample(at+time.Millisecond, []int{0, 1}, -1, 4)
		fed.OnSample(at+50*time.Millisecond, []int{0, 1}, -1, 4)
	}
	for name, m := range map[string]interface {
		Violations() []Violation
		Total() uint64
	}{"cluster": cluster, "federation": fed} {
		if m.Total() != breaches {
			t.Fatalf("%s: total = %d, want %d", name, m.Total(), breaches)
		}
		v := m.Violations()
		if len(v) != maxStoredViolations {
			t.Fatalf("%s: kept %d, want %d", name, len(v), maxStoredViolations)
		}
		want := v[0]
		v[0].Rule = "mutated"
		if got := m.Violations()[0]; got != want {
			t.Fatalf("%s: Violations aliases the log: %+v", name, got)
		}
	}
}
