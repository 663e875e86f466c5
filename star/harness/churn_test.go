package harness

import (
	"errors"
	"testing"
	"time"

	"repro/star"
)

// TestChurnPresetElectsAmongSurvivors runs the churn preset end to end: the
// rotating crash/restart schedule must execute (restarts actually bring
// processes back), leadership must settle on a never-crashed process, and
// the same seed must reproduce identical domain metrics.
func TestChurnPresetElectsAmongSurvivors(t *testing.T) {
	cfg := ChurnConfig(ChurnSpec{N: 5, T: 2, Seed: 11, Duration: 20 * time.Second})
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.Stabilized {
		t.Fatalf("churn run did not stabilize: %+v", res.Report.Stabilization)
	}
	// The center (0) never churns and must be electable; the agreed
	// leader must be a never-crashed process — under this preset's full
	// rotation that means the center itself.
	if res.Report.Leader != 0 {
		t.Fatalf("leader = %d, want the never-crashed center 0", res.Report.Leader)
	}
	// Rebooting peers force the late/skewed paths: the survivors keep
	// discarding the rebooted processes' ancient ALIVEs.
	var lateAlive uint64
	for _, m := range res.Metrics.Nodes {
		lateAlive += m.LateAlive
	}
	if lateAlive == 0 {
		t.Fatal("churn produced no late ALIVEs (round skew not exercised)")
	}

	res2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := domainSignature(res), domainSignature(res2); a != b {
		t.Errorf("churn run not deterministic:\n run1: %s\n run2: %s", a, b)
	}
}

// TestChurnTimeFreeBaselineRejoins pins the baseline's rejoin rule: without
// JoinCurrentRound a restarted time-free node rejoins thousands of beacon
// rounds behind, its beacons never count toward any survivor's alpha quorum
// again, and the baseline churn cells diverge by construction. With the
// rule (the core algorithm's, ported), the survivors keep closing rounds
// and end the run agreeing on a never-crashed leader.
func TestChurnTimeFreeBaselineRejoins(t *testing.T) {
	cfg := ChurnConfig(ChurnSpec{N: 5, T: 2, Seed: 11, Algo: star.TimeFree, Duration: 20 * time.Second})
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Robust per-seed assertions (churn keeps knocking leaders over, so
	// the strict 20%-tail criterion is not owed): every live process ends
	// agreeing on one never-crashed leader.
	for id, l := range res.LeaderAtEnd {
		if l == star.None {
			continue // still down at the horizon
		}
		if l != 0 {
			t.Fatalf("process %d ends on leader %d, want the never-crashed center 0 (all: %v)",
				id, l, res.LeaderAtEnd)
		}
	}
	if !res.Report.Stabilized {
		t.Fatalf("baseline churn cell did not stabilize: %+v", res.Report.Stabilization)
	}
}

// TestChurnRecoveryPreset drives the crash-recovery rejoin mode through the
// harness: every restart restores from the in-memory journal (no
// fallbacks), the cluster stabilizes on the never-crashed center, and the
// run — journal included — is deterministic seed for seed.
func TestChurnRecoveryPreset(t *testing.T) {
	mk := func() *Result {
		cfg := ChurnConfig(ChurnSpec{N: 5, T: 2, Seed: 11, Duration: 20 * time.Second, Recovery: true})
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := mk()
	if !res.Report.Stabilized || res.Report.Leader != 0 {
		t.Fatalf("recovery churn: stabilized=%v leader=%d, want center 0", res.Report.Stabilized, res.Report.Leader)
	}
	if res.Recovery.Snapshots == 0 || res.Recovery.Restores == 0 {
		t.Fatalf("recovery never engaged: %+v", res.Recovery)
	}
	if res.Recovery.Fallbacks != 0 || res.Recovery.SaveErrors != 0 {
		t.Fatalf("clean MemJournal run degraded: %+v", res.Recovery)
	}
	res2 := mk()
	if a, b := domainSignature(res), domainSignature(res2); a != b {
		t.Errorf("recovery churn not deterministic:\n run1: %s\n run2: %s", a, b)
	}
	if res.Recovery != res2.Recovery {
		t.Errorf("recovery counters diverged: %+v vs %+v", res.Recovery, res2.Recovery)
	}
}

// TestChurnScheduleValidation covers the resilience sweep for churn
// schedules (through the façade's scenario options).
func TestChurnScheduleValidation(t *testing.T) {
	build := func(opts ...star.ScenarioOption) error {
		c, err := star.New(star.N(4), star.Resilience(1), star.Scenario(star.Combined(opts...)))
		if err == nil {
			c.Close()
		}
		return err
	}
	// Overlapping downtimes of two processes exceed T=1.
	if err := build(
		star.CrashAt(1, time.Second), star.CrashAt(2, 1500*time.Millisecond),
		star.RestartAt(1, 2*time.Second), star.RestartAt(2, 2500*time.Millisecond),
	); err == nil {
		t.Fatal("overlapping downtimes accepted")
	}
	// Sequential churn of the same two processes is fine.
	if err := build(
		star.CrashAt(1, time.Second), star.RestartAt(1, 2*time.Second),
		star.CrashAt(2, 3*time.Second), star.RestartAt(2, 4*time.Second),
	); err != nil {
		t.Fatalf("sequential churn rejected: %v", err)
	}
	// A restart without a crash is a schedule bug.
	if err := build(star.RestartAt(1, time.Second)); err == nil {
		t.Fatal("orphan restart accepted")
	}
	// Re-crash without an intervening restart is a schedule bug.
	if err := build(
		star.CrashAt(1, time.Second), star.CrashAt(1, 2*time.Second),
		star.RestartAt(1, 3*time.Second),
	); err == nil {
		t.Fatal("double crash accepted")
	}
	// A restart at the exact crash instant is a zero-length downtime:
	// rejected, and as ErrInvalidParams like every other schedule bug.
	if err := build(
		star.CrashAt(1, time.Second), star.RestartAt(1, time.Second),
	); !errors.Is(err, star.ErrInvalidParams) {
		t.Fatalf("restart at crash instant: err = %v, want ErrInvalidParams", err)
	}
	// Exact duplicate entries are schedule bugs, not idempotent no-ops.
	if err := build(
		star.CrashAt(1, time.Second), star.CrashAt(1, time.Second),
		star.RestartAt(1, 2*time.Second),
	); !errors.Is(err, star.ErrInvalidParams) {
		t.Fatalf("duplicate crash: err = %v, want ErrInvalidParams", err)
	}
	if err := build(
		star.CrashAt(1, time.Second),
		star.RestartAt(1, 2*time.Second), star.RestartAt(1, 2*time.Second),
	); !errors.Is(err, star.ErrInvalidParams) {
		t.Fatalf("duplicate restart: err = %v, want ErrInvalidParams", err)
	}
	// Negative instants and out-of-range ids never reach the engines.
	if err := build(star.CrashAt(1, -time.Second)); !errors.Is(err, star.ErrInvalidParams) {
		t.Fatalf("negative crash time: err = %v, want ErrInvalidParams", err)
	}
	if err := build(
		star.CrashAt(1, time.Second), star.RestartAt(9, 2*time.Second),
	); !errors.Is(err, star.ErrInvalidParams) {
		t.Fatalf("out-of-range restart id: err = %v, want ErrInvalidParams", err)
	}
}
