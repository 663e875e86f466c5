package star_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/star"
)

// runFed builds and runs a federation, failing the test on any error.
func runFed(t *testing.T, d time.Duration, opts ...star.FedOption) *star.Federation {
	t.Helper()
	f, err := star.NewFederation(opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	if err := f.Run(d); err != nil {
		t.Fatal(err)
	}
	return f
}

// checkGlobal asserts the report's global leader is internally consistent:
// it names a shard whose own recorded leader matches the flat id.
func checkGlobal(t *testing.T, fr *star.FederationReport) {
	t.Helper()
	if fr.GlobalLeader == star.None {
		t.Fatal("no global leader at end of run")
	}
	shard := fr.GlobalLeader / fr.ShardSize
	local := fr.GlobalLeader % fr.ShardSize
	if shard < 0 || shard >= fr.Shards {
		t.Fatalf("global leader %d names shard %d outside [0,%d)", fr.GlobalLeader, shard, fr.Shards)
	}
	if sl := fr.ShardLeaders[shard]; sl != local {
		t.Fatalf("global leader %d (shard %d local %d) but shard's leader is %d", fr.GlobalLeader, shard, local, sl)
	}
}

func TestFederationElectsGlobalLeader(t *testing.T) {
	f := runFed(t, 8*time.Second, star.FedShape(3, 4), star.FedSeed(7))
	rep := f.Report()
	fr := rep.Federation
	if fr == nil {
		t.Fatal("Report().Federation is nil on a federation report")
	}
	checkGlobal(t, fr)
	if !fr.TierStabilized || fr.TierStabilization < 0 {
		t.Fatalf("tier did not stabilize: %+v", fr)
	}
	if fr.Handoffs < uint64(fr.Shards) {
		t.Fatalf("handoffs = %d, want >= one per shard (%d)", fr.Handoffs, fr.Shards)
	}
	if fr.TotalViolations != 0 {
		t.Fatalf("federation invariant violations: %+v", fr.Violations)
	}
	if !rep.Stabilized {
		t.Fatal("tier cluster's own election did not stabilize")
	}
	if g := f.GlobalLeader(); g != fr.GlobalLeader {
		t.Fatalf("GlobalLeader() = %d, report says %d", g, fr.GlobalLeader)
	}
}

// TestFederationDeterminism is the replay-identity guarantee: on the
// simulated transport the whole two-tier run is a pure function of
// (options, seed), so the Federation report is byte-identical seed-for-seed.
func TestFederationDeterminism(t *testing.T) {
	run := func() []byte {
		f := runFed(t, 6*time.Second, star.FedShape(4, 3), star.FedSeed(42),
			star.FedDelegateChurn(time.Second, 800*time.Millisecond, 200*time.Millisecond, 4*time.Second))
		rep := f.Report()
		blob, err := json.Marshal(rep.Federation)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("same seed, different federation reports:\n%s\n%s", a, b)
	}
	if !f3Cap(t) {
		t.Fatal("unreachable")
	}
}

// f3Cap double-checks the capability surface the determinism claim rests
// on: an all-simulated federation must report CapDeterminism.
func f3Cap(t *testing.T) bool {
	t.Helper()
	f, err := star.NewFederation(star.FedShape(2, 3), star.FedSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if !f.Capabilities().Has(star.CapDeterminism) {
		t.Fatal("all-sim federation does not declare CapDeterminism")
	}
	return true
}

// TestFederationHandoffRaceSim kills the global leader's shard-local
// process while the tier is mid-round (kills land between bridge epochs;
// tier rounds are an order of magnitude shorter, so delegate traffic is
// always in flight). The federation must depose the delegate, hand off to
// the shard's next leader, and re-elect a global leader — with the
// superseded delegate's frames rejected rather than applied.
func TestFederationHandoffRaceSim(t *testing.T) {
	var globalChanges atomic.Int64
	f, err := star.NewFederation(star.FedShape(3, 4), star.FedSeed(11),
		star.FedObserve(star.EventGlobalLeader, func(ev star.Event) {
			if ev.Kind != star.EventGlobalLeader {
				t.Errorf("unexpected event kind %v through EventGlobalLeader mask", ev.Kind)
			}
			globalChanges.Add(1)
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Run(6 * time.Second); err != nil {
		t.Fatal(err)
	}

	g := f.GlobalLeader()
	if g == star.None {
		t.Fatal("no global leader before the kill")
	}
	shard, local := g/f.ShardSize(), g%f.ShardSize()
	before := f.Report().Federation.Handoffs
	if err := f.Shard(shard).Crash(local); err != nil {
		t.Fatal(err)
	}
	if err := f.Run(8 * time.Second); err != nil {
		t.Fatal(err)
	}

	fr := f.Report().Federation
	checkGlobal(t, fr)
	if fr.GlobalLeader == g {
		t.Fatalf("global leader still %d after its process was killed", g)
	}
	if fr.Handoffs <= before {
		t.Fatalf("no handoff after shard leader kill (%d before, %d after)", before, fr.Handoffs)
	}
	if fr.TotalViolations != 0 {
		t.Fatalf("federation invariant violations: %+v", fr.Violations)
	}
	if globalChanges.Load() < 2 {
		t.Fatalf("EventGlobalLeader fired %d times, want >= 2 (election, re-election)", globalChanges.Load())
	}
}

// raceFed runs the handoff-race scenario on non-deterministic transports:
// elect, kill the global leader's process, assert re-election within a
// wall-clock budget (behavioral invariants, not replay identity).
func raceFed(t *testing.T, shardOpts func(shard int) []star.Option) {
	t.Helper()
	f, err := star.NewFederation(star.FedShape(2, 3), star.FedSeed(5),
		star.FedEpoch(50*time.Millisecond),
		star.FedShardOptions(shardOpts))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	deadline := time.Now().Add(30 * time.Second)
	g := star.None
	for g == star.None && time.Now().Before(deadline) {
		if err := f.Run(500 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		g = f.GlobalLeader()
	}
	if g == star.None {
		t.Fatal("no global leader within the budget")
	}

	shard, local := g/f.ShardSize(), g%f.ShardSize()
	if err := f.Shard(shard).Crash(local); err != nil {
		t.Fatal(err)
	}
	for time.Now().Before(deadline) {
		if err := f.Run(500 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		if ng := f.GlobalLeader(); ng != star.None && ng != g {
			fr := f.Report().Federation
			if fr.TotalViolations != 0 {
				t.Fatalf("federation invariant violations: %+v", fr.Violations)
			}
			return
		}
	}
	t.Fatalf("global leader did not move off killed process %d within the budget", g)
}

// TestFederationHandoffRaceLive runs the race on goroutine shards
// (wall-clock timers, nondeterministic scheduling).
func TestFederationHandoffRaceLive(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock federation in -short")
	}
	raceFed(t, func(shard int) []star.Option {
		return []star.Option{star.Live()}
	})
}

// TestFederationHandoffRaceTCP runs the race with every shard on real TCP
// loopback sockets (CI runs it under -race).
func TestFederationHandoffRaceTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("socket federation in -short")
	}
	raceFed(t, func(shard int) []star.Option {
		addrs := make([]string, 3)
		for i := range addrs {
			addrs[i] = net.JoinHostPort("127.0.0.1", "0")
		}
		return []star.Option{star.Network(addrs)}
	})
}

// TestFederationChaosShardPartition wires internal/chaos at shard
// granularity: a minority of shards is partitioned away at the tier, and
// the invariant monitors (the tier's chaos monitor and the federation
// monitor) must agree that the majority-of-shards component elected a
// global leader — and that healing reunites the federation cleanly.
func TestFederationChaosShardPartition(t *testing.T) {
	sched := star.NewChaosSchedule().
		Partition(2*time.Second, []int{0, 1, 2}, []int{3, 4}). // majority component vs minority shards
		HealAll(4 * time.Second)
	f := runFed(t, 8*time.Second, star.FedShape(5, 3), star.FedSeed(13),
		star.FedChaos(sched))
	rep := f.Report()
	fr := rep.Federation
	checkGlobal(t, fr)
	if fr.TotalViolations != 0 {
		t.Fatalf("federation invariant violations: %+v", fr.Violations)
	}
	if rep.Chaos == nil {
		t.Fatal("tier report carries no chaos verdict")
	}
	if rep.Chaos.StepsApplied < 2 {
		t.Fatalf("chaos steps applied = %d, want >= 2", rep.Chaos.StepsApplied)
	}
	if rep.Chaos.TotalViolations != 0 {
		t.Fatalf("tier chaos violations: %+v", rep.Chaos.Violations)
	}
}

// TestFederationDelegateChurn exercises the tier-2 churn knob: delegates
// are killed on a rotation, the tier's suspicion of them rises, and the
// pressure mapping deposes shard leaders into fresh elections. The run must
// still end with a stable global leader and no invariant violations.
func TestFederationDelegateChurn(t *testing.T) {
	f := runFed(t, 10*time.Second, star.FedShape(3, 4), star.FedSeed(21),
		star.FedDelegateChurn(2*time.Second, time.Second, 400*time.Millisecond, 6*time.Second))
	fr := f.Report().Federation
	checkGlobal(t, fr)
	if !fr.TierStabilized {
		t.Fatal("tier did not re-stabilize after delegate churn")
	}
	if fr.TotalViolations != 0 {
		t.Fatalf("federation invariant violations: %+v", fr.Violations)
	}
	if fr.Handoffs < uint64(fr.Shards) {
		t.Fatalf("handoffs = %d, want >= %d", fr.Handoffs, fr.Shards)
	}
}

// TestFederationRecoverySim restores both tiers through journals under
// churn on the simulated transport (the real-process-death version lives in
// the cmd/starnet e2e): every shard and the tier snapshot into MemJournals,
// delegate churn restarts tier members and shard churn restarts shard
// members, and both restore paths must be exercised.
func TestFederationRecoverySim(t *testing.T) {
	shardStores := make([]star.RecoveryStore, 3)
	for i := range shardStores {
		shardStores[i] = star.MemJournal()
	}
	tierStore := star.MemJournal()
	f := runFed(t, 12*time.Second, star.FedShape(3, 4), star.FedSeed(31),
		star.FedShardOptions(func(shard int) []star.Option {
			return []star.Option{
				star.WithRecovery(shardStores[shard]),
				star.SnapshotEvery(100 * time.Millisecond),
				star.Churn(2*time.Second, 1500*time.Millisecond, 300*time.Millisecond, 8*time.Second),
			}
		}),
		star.FedTierOptions(star.WithRecovery(tierStore), star.SnapshotEvery(100*time.Millisecond)),
		star.FedDelegateChurn(2*time.Second, 1200*time.Millisecond, 300*time.Millisecond, 8*time.Second))
	rep := f.Report()
	fr := rep.Federation
	checkGlobal(t, fr)
	if fr.ShardRecovery.Restores == 0 {
		t.Fatalf("no shard-tier journal restores: %+v", fr.ShardRecovery)
	}
	if rep.Recovery.Restores == 0 {
		t.Fatalf("no tier journal restores: %+v", rep.Recovery)
	}
	if fr.TotalViolations != 0 {
		t.Fatalf("federation invariant violations: %+v", fr.Violations)
	}
}

// TestFederationLarge is the acceptance-scale run: a 32×32 federation
// (1024 processes) elects a stable global leader with a measured
// TierStabilization, byte-identical seed-for-seed.
func TestFederationLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-process federation in -short")
	}
	run := func() ([]byte, *star.FederationReport) {
		f := runFed(t, 4*time.Second, star.FedShape(32, 32), star.FedSeed(1))
		rep := f.Report()
		blob, err := json.Marshal(rep.Federation)
		if err != nil {
			t.Fatal(err)
		}
		return blob, rep.Federation
	}
	a, fr := run()
	checkGlobal(t, fr)
	if !fr.TierStabilized || fr.TierStabilization <= 0 {
		t.Fatalf("no measured tier stabilization: %v", fr.TierStabilization)
	}
	t.Logf("32x32: global=%d stab=%v handoffs=%d", fr.GlobalLeader, fr.TierStabilization, fr.Handoffs)
	b, _ := run()
	if !bytes.Equal(a, b) {
		t.Fatal("32x32 federation not byte-identical seed-for-seed")
	}
}

func TestFederationOptionValidation(t *testing.T) {
	cases := [][]star.FedOption{
		{},                    // no shape
		{star.FedShape(1, 4)}, // too few shards
		{star.FedShape(4, 1)}, // too small shards
		{star.FedShape(2, 3), star.FedEpoch(0)},
		{star.FedShape(2, 3), star.FedObserve(star.EventAll, nil)},
		{star.FedShape(2, 3), star.FedChaos(nil)},
		{star.FedShape(2, 3), star.FedDelegateChurn(0, 0, 0, 0)},
	}
	for i, opts := range cases {
		if f, err := star.NewFederation(opts...); err == nil {
			f.Close()
			t.Fatalf("case %d: invalid federation accepted", i)
		}
	}
}

func TestFederationRunAfterClose(t *testing.T) {
	f, err := star.NewFederation(star.FedShape(2, 3), star.FedSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Run(time.Second); err == nil {
		t.Fatal("Run after Close succeeded")
	} else if fmt.Sprint(err) == "" {
		t.Fatal("empty error")
	}
}
