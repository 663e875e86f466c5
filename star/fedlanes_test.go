package star_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/star"
)

// laneFedOpts is the baseline global-lane federation every sim test here
// starts from.
func laneFedOpts(extra ...star.FedOption) []star.FedOption {
	return append([]star.FedOption{
		star.FedShape(3, 3), star.FedSeed(7), star.FedAppLanes(),
	}, extra...)
}

// checkLaneSequence asserts the committed global sequence holds exactly
// the given payload multiset, each exactly once, and that every
// never-crashed member of every shard delivered exactly that sequence.
func checkLaneSequence(t *testing.T, f *star.Federation, want []int64) {
	t.Helper()
	seq := f.GlobalSequence()
	if len(seq) != len(want) {
		t.Fatalf("global sequence has %d entries, want %d: %+v", len(seq), len(want), seq)
	}
	seen := make(map[int64]int)
	for i, e := range seq {
		if e.GSeq != uint64(i) {
			t.Fatalf("entry %d carries gseq %d", i, e.GSeq)
		}
		seen[e.Payload]++
	}
	for _, p := range want {
		if seen[p] != 1 {
			t.Fatalf("payload %d delivered %d times, want exactly once (seq %+v)", p, seen[p], seq)
		}
	}
	for s := 0; s < f.Shards(); s++ {
		for p := 0; p < f.ShardSize(); p++ {
			if f.Shard(s).EverCrashed(p) {
				// Ever-crashed members are owed a prefix, not the suffix.
				continue
			}
			log := f.GlobalLog(s, p)
			if len(log) != len(seq) {
				t.Fatalf("member %d/%d delivered %d of %d global entries", s, p, len(log), len(seq))
			}
			for i := range log {
				if log[i] != seq[i] {
					t.Fatalf("member %d/%d diverges at %d: %+v != %+v", s, p, i, log[i], seq[i])
				}
			}
		}
	}
}

// TestFederationGlobalLanes is the happy path: submissions from members of
// different shards all commit into one global total order that every live
// member of every shard delivers identically, and Propose submissions land
// in the numbered decision sequence.
func TestFederationGlobalLanes(t *testing.T) {
	var decides atomic.Int64
	f, err := star.NewFederation(laneFedOpts(
		star.FedObserve(star.EventGlobalDecide, func(ev star.Event) {
			if ev.Kind != star.EventGlobalDecide {
				t.Errorf("unexpected kind %v through EventGlobalDecide mask", ev.Kind)
			}
			decides.Add(1)
		}))...)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}

	if err := f.Broadcast(0, 1, 100); err != nil {
		t.Fatal(err)
	}
	if err := f.Broadcast(2, 2, 200); err != nil {
		t.Fatal(err)
	}
	if err := f.Propose(1, 0, 300); err != nil {
		t.Fatal(err)
	}
	if err := f.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	checkLaneSequence(t, f, []int64{100, 200, 300})
	fr := f.Report().Federation
	checkGlobal(t, fr)
	if fr.GlobalDecisions != 3 {
		t.Fatalf("GlobalDecisions = %d, want 3", fr.GlobalDecisions)
	}
	if fr.TotalViolations != 0 {
		t.Fatalf("federation invariant violations: %+v", fr.Violations)
	}
	if got := decides.Load(); got != 3 {
		t.Fatalf("EventGlobalDecide fired %d times, want 3", got)
	}
	if v, ok := f.GlobalDecided(0); !ok || v != 300 {
		t.Fatalf("GlobalDecided(0) = %d,%v, want 300,true", v, ok)
	}
	if _, ok := f.GlobalDecided(1); ok {
		t.Fatal("GlobalDecided(1) exists with a single Propose")
	}
	for _, e := range f.GlobalSequence() {
		if e.Payload == 300 && e.Kind != star.GlobalPropose {
			t.Fatalf("propose entry has kind %v", e.Kind)
		}
		if e.Payload == 100 && e.Kind != star.GlobalBroadcast {
			t.Fatalf("broadcast entry has kind %v", e.Kind)
		}
	}
}

// TestFederationGlobalLaneDelegateKill kills a shard's delegate seat
// before the shard's proposal can climb the hierarchy: the upward forward
// no-ops into the crashed seat, and only the retransmit tick's re-forward
// through a surviving seat gets it committed. No delivery may be lost or
// duplicated.
func TestFederationGlobalLaneDelegateKill(t *testing.T) {
	f, err := star.NewFederation(laneFedOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Shard 0's tier seat dies; its members keep submitting.
	if err := f.Tier().Crash(0); err != nil {
		t.Fatal(err)
	}
	if err := f.Broadcast(0, 1, 71); err != nil {
		t.Fatal(err)
	}
	if err := f.Broadcast(0, 2, 72); err != nil {
		t.Fatal(err)
	}
	if err := f.Run(12 * time.Second); err != nil {
		t.Fatal(err)
	}

	checkLaneSequence(t, f, []int64{71, 72})
	fr := f.Report().Federation
	if fr.Redeliveries == 0 {
		t.Fatal("committed through a dead delegate seat without redeliveries")
	}
	if fr.GlobalDecisions != 2 {
		t.Fatalf("GlobalDecisions = %d, want 2", fr.GlobalDecisions)
	}
}

// TestFederationGlobalLaneChurn floods the lanes while delegate churn
// rotates kills across every tier seat: submissions race handoffs and
// deposed incarnations, yet every payload commits exactly once and every
// never-crashed member delivers the same sequence.
func TestFederationGlobalLaneChurn(t *testing.T) {
	f, err := star.NewFederation(laneFedOpts(
		star.FedDelegateChurn(time.Second, 700*time.Millisecond, 250*time.Millisecond, 6*time.Second))...)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	var want []int64
	next := int64(1000)
	for wave := 0; wave < 4; wave++ {
		if err := f.Run(1500 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		for s := 0; s < f.Shards(); s++ {
			next++
			if err := f.Broadcast(s, wave%f.ShardSize(), next); err != nil {
				t.Fatal(err)
			}
			want = append(want, next)
		}
	}
	if err := f.Run(14 * time.Second); err != nil {
		t.Fatal(err)
	}

	checkLaneSequence(t, f, want)
	fr := f.Report().Federation
	checkGlobal(t, fr)
	if fr.TotalViolations != 0 {
		t.Fatalf("federation invariant violations: %+v", fr.Violations)
	}
	if fr.GlobalDecisions != uint64(len(want)) {
		t.Fatalf("GlobalDecisions = %d, want %d", fr.GlobalDecisions, len(want))
	}
}

// TestFederationGlobalLaneChaosPartition submits from a shard while chaos
// has partitioned it away from the tier majority: the submission must wait
// out the partition and commit exactly once after healing.
func TestFederationGlobalLaneChaosPartition(t *testing.T) {
	sched := star.NewChaosSchedule().
		Partition(2*time.Second, []int{0, 1, 2}, []int{3, 4}).
		HealAll(5 * time.Second)
	f, err := star.NewFederation(
		star.FedShape(5, 3), star.FedSeed(13), star.FedAppLanes(),
		star.FedChaos(sched))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Shard 3 sits in the minority partition; shard 0 in the majority.
	if err := f.Broadcast(3, 1, 31); err != nil {
		t.Fatal(err)
	}
	if err := f.Broadcast(0, 1, 41); err != nil {
		t.Fatal(err)
	}
	if err := f.Run(12 * time.Second); err != nil {
		t.Fatal(err)
	}

	checkLaneSequence(t, f, []int64{31, 41})
	fr := f.Report().Federation
	checkGlobal(t, fr)
	if fr.TotalViolations != 0 {
		t.Fatalf("federation invariant violations: %+v", fr.Violations)
	}
}

// TestFederationGlobalLaneDeterminism is the replay guarantee for the
// global lanes: with traffic, delegate churn and a migration in the mix,
// the committed global sequence and the federation report are
// byte-identical seed-for-seed — and byte-identical again, observer event
// stream included, under GOMAXPROCS=1, where the fork/join epoch loop runs
// its shards inline in index order.
func TestFederationGlobalLaneDeterminism(t *testing.T) {
	run := func() ([]byte, []byte, []byte) {
		var events []star.Event
		f, err := star.NewFederation(
			star.FedShape(4, 3), star.FedSeed(42), star.FedAppLanes(),
			star.FedDelegateChurn(time.Second, 800*time.Millisecond, 200*time.Millisecond, 4*time.Second),
			star.FedObserve(star.EventAll, func(ev star.Event) { events = append(events, ev) }),
		)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if err := f.Run(2 * time.Second); err != nil {
			t.Fatal(err)
		}
		for s := 0; s < f.Shards(); s++ {
			if err := f.Broadcast(s, 0, int64(100+s)); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.Propose(1, 1, 555); err != nil {
			t.Fatal(err)
		}
		if err := f.Run(2 * time.Second); err != nil {
			t.Fatal(err)
		}
		if err := f.Shard(2).Crash(2); err != nil { // vacancy for the migration
			t.Fatal(err)
		}
		if err := f.Migrate(0, 2, 2); err != nil {
			t.Fatal(err)
		}
		if err := f.Run(6 * time.Second); err != nil {
			t.Fatal(err)
		}
		seq, err := json.Marshal(f.GlobalSequence())
		if err != nil {
			t.Fatal(err)
		}
		rep, err := json.Marshal(f.Report().Federation)
		if err != nil {
			t.Fatal(err)
		}
		evs, err := json.Marshal(events)
		if err != nil {
			t.Fatal(err)
		}
		return seq, rep, evs
	}
	seqA, repA, evA := run()
	seqB, repB, _ := run()
	if !bytes.Equal(seqA, seqB) {
		t.Fatalf("same seed, different global sequences:\n%s\n%s", seqA, seqB)
	}
	if !bytes.Equal(repA, repB) {
		t.Fatalf("same seed, different federation reports:\n%s\n%s", repA, repB)
	}
	seqW, repW, evW := func() ([]byte, []byte, []byte) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		return run()
	}()
	if !bytes.Equal(seqA, seqW) {
		t.Fatalf("GOMAXPROCS=1 changed the global sequence:\n%s\n%s", seqA, seqW)
	}
	if !bytes.Equal(repA, repW) {
		t.Fatalf("GOMAXPROCS=1 changed the federation report:\n%s\n%s", repA, repW)
	}
	if !bytes.Equal(evA, evW) {
		t.Fatalf("GOMAXPROCS=1 changed the observer event stream:\n%s\n%s", evA, evW)
	}
}

// TestFederationMigrate moves a process across shards through the global
// lane: the delta commits in global order, the source seat crashes, the
// destination's vacant slot revives as the stand-in, and EventMigrate
// reports the executed move.
func TestFederationMigrate(t *testing.T) {
	var migrates atomic.Int64
	var moved atomic.Int64
	f, err := star.NewFederation(laneFedOpts(
		star.FedObserve(star.EventMigrate, func(ev star.Event) {
			migrates.Add(1)
			moved.Store(int64(ev.Leader))
		}))...)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}

	if err := f.Shard(1).Crash(2); err != nil { // the vacancy
		t.Fatal(err)
	}
	if err := f.Migrate(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := f.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	fr := f.Report().Federation
	if fr.Migrations != 1 {
		t.Fatalf("Migrations = %d, want 1", fr.Migrations)
	}
	if migrates.Load() != 1 {
		t.Fatalf("EventMigrate fired %d times, want 1", migrates.Load())
	}
	if got, want := moved.Load(), int64(1*f.ShardSize()+2); got != want {
		t.Fatalf("migrated into flat id %d, want %d", got, want)
	}
	if !f.Shard(0).Crashed(1) {
		t.Fatal("migrated process still runs in the source shard")
	}
	if f.Shard(1).Crashed(2) {
		t.Fatal("destination slot still vacant after migration")
	}
	seq := f.GlobalSequence()
	if len(seq) != 1 || seq[0].Kind != star.GlobalMigrate || seq[0].Shard != 0 || seq[0].Origin != 1 || seq[0].To != 1 {
		t.Fatalf("migration delta not in the global order: %+v", seq)
	}
	checkGlobal(t, fr)
	if fr.TotalViolations != 0 {
		t.Fatalf("federation invariant violations: %+v", fr.Violations)
	}
}

// TestFederationMigrateDuringChurn lands a migration while delegate churn
// is rotating kills through the tier: the delta must still commit and
// execute exactly once, with traffic in flight.
func TestFederationMigrateDuringChurn(t *testing.T) {
	f, err := star.NewFederation(laneFedOpts(
		star.FedDelegateChurn(time.Second, 800*time.Millisecond, 250*time.Millisecond, 5*time.Second))...)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}

	if err := f.Shard(2).Crash(0); err != nil {
		t.Fatal(err)
	}
	if err := f.Broadcast(1, 1, 900); err != nil {
		t.Fatal(err)
	}
	if err := f.Migrate(0, 2, 2); err != nil { // mid-churn
		t.Fatal(err)
	}
	if err := f.Run(14 * time.Second); err != nil {
		t.Fatal(err)
	}

	fr := f.Report().Federation
	if fr.Migrations != 1 {
		t.Fatalf("Migrations = %d, want 1", fr.Migrations)
	}
	if fr.GlobalDecisions != 2 {
		t.Fatalf("GlobalDecisions = %d, want 2 (broadcast + migration)", fr.GlobalDecisions)
	}
	if !f.Shard(0).Crashed(2) || f.Shard(2).Crashed(0) {
		t.Fatal("migration did not execute")
	}
	checkGlobal(t, fr)
	if fr.TotalViolations != 0 {
		t.Fatalf("federation invariant violations: %+v", fr.Violations)
	}
}

// raceFedLanes drives global-lane traffic on a non-deterministic
// federation while delegate churn kills seats mid-proposal, then waits —
// wall-clock budgeted — for every payload to commit exactly once and
// every member of every shard to deliver the full identical sequence.
func raceFedLanes(t *testing.T, shardOpts func(shard int) []star.Option) {
	t.Helper()
	// Three shards so the tier (N = 3, t = 1) survives one permanently
	// killed seat: the public Crash has no public revival — only the churn
	// schedule restarts its own victims — so the mid-proposal kill below is
	// forever, and the rest of the traffic must route around it.
	f, err := star.NewFederation(
		star.FedShape(3, 3), star.FedSeed(5), star.FedAppLanes(),
		star.FedEpoch(50*time.Millisecond),
		star.FedShardOptions(shardOpts),
		star.FedDelegateChurn(500*time.Millisecond, 400*time.Millisecond, 200*time.Millisecond, 5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	deadline := time.Now().Add(60 * time.Second)
	for f.GlobalLeader() == star.None && time.Now().Before(deadline) {
		if err := f.Run(500 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if f.GlobalLeader() == star.None {
		t.Fatal("no global leader within the budget")
	}

	var want []int64
	for i := 0; i < 6; i++ {
		payload := int64(7000 + i)
		if err := f.Broadcast(i%f.Shards(), i%f.ShardSize(), payload); err != nil {
			t.Fatal(err)
		}
		want = append(want, payload)
		// The first submission races a permanent delegate kill (the churn
		// schedule keeps cycling the other seats down and back up).
		if i == 0 {
			f.Tier().Crash(0)
		}
		if err := f.Run(300 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}

	caughtUp := func() bool {
		if len(f.GlobalSequence()) != len(want) {
			return false
		}
		for s := 0; s < f.Shards(); s++ {
			for p := 0; p < f.ShardSize(); p++ {
				if len(f.GlobalLog(s, p)) != len(want) {
					return false
				}
			}
		}
		return true
	}
	for !caughtUp() && time.Now().Before(deadline) {
		if err := f.Run(500 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	checkLaneSequence(t, f, want)
	if fr := f.Report().Federation; fr.TotalViolations != 0 {
		t.Fatalf("federation invariant violations: %+v", fr.Violations)
	}
}

// TestFederationGlobalLaneRaceLive runs the mid-proposal delegate-kill
// race on goroutine shards (wall-clock timers, nondeterministic
// scheduling; CI runs it under -race).
func TestFederationGlobalLaneRaceLive(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock federation in -short")
	}
	raceFedLanes(t, func(shard int) []star.Option {
		return []star.Option{star.Live()}
	})
}

// TestFederationGlobalLaneRaceTCP runs the same race with every shard on
// real TCP loopback sockets.
func TestFederationGlobalLaneRaceTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("socket federation in -short")
	}
	raceFedLanes(t, func(shard int) []star.Option {
		addrs := make([]string, 3)
		for i := range addrs {
			addrs[i] = net.JoinHostPort("127.0.0.1", "0")
		}
		return []star.Option{star.Network(addrs)}
	})
}

func TestFederationLaneValidation(t *testing.T) {
	// Without FedAppLanes every lane method is ErrNoApp.
	plain, err := star.NewFederation(star.FedShape(2, 3), star.FedSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if err := plain.Broadcast(0, 0, 1); !errors.Is(err, star.ErrNoApp) {
		t.Fatalf("Broadcast without lanes: %v", err)
	}
	if err := plain.Propose(0, 0, 1); !errors.Is(err, star.ErrNoApp) {
		t.Fatalf("Propose without lanes: %v", err)
	}
	if err := plain.Migrate(0, 0, 1); !errors.Is(err, star.ErrNoApp) {
		t.Fatalf("Migrate without lanes: %v", err)
	}
	if plain.GlobalSequence() != nil || plain.GlobalLog(0, 0) != nil {
		t.Fatal("global accessors non-nil without lanes")
	}

	f, err := star.NewFederation(star.FedShape(2, 3), star.FedSeed(1), star.FedAppLanes())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Broadcast(2, 0, 1); !errors.Is(err, star.ErrBadProcess) {
		t.Fatalf("bad shard: %v", err)
	}
	if err := f.Broadcast(0, 3, 1); !errors.Is(err, star.ErrBadProcess) {
		t.Fatalf("bad process: %v", err)
	}
	if err := f.Migrate(0, 0, 0); !errors.Is(err, star.ErrInvalidParams) {
		t.Fatalf("same-shard migrate: %v", err)
	}
	if err := f.Migrate(0, 0, 5); !errors.Is(err, star.ErrBadProcess) {
		t.Fatalf("bad destination: %v", err)
	}

	// A crashed submitter submits nothing, silently.
	if err := f.Shard(0).Crash(1); err != nil {
		t.Fatal(err)
	}
	if err := f.Broadcast(0, 1, 9); err != nil {
		t.Fatalf("crashed submitter: %v", err)
	}
	if err := f.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := f.GlobalSequence(); len(got) != 0 {
		t.Fatalf("crashed submitter's payload committed: %+v", got)
	}

	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Broadcast(0, 0, 1); !errors.Is(err, star.ErrClosed) {
		t.Fatalf("Broadcast after Close: %v", err)
	}
}
