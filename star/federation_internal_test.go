package star

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/hier"
)

// TestFederationSupersededFrameRejected drives the delivery path with a
// crafted late frame: a record stamped by a deposed delegate incarnation
// surfaces on the tier lane after a newer handoff was issued, and the
// bridge must reject it — committed state never regresses to a superseded
// delegate. (The black-box races exercise the same guarantee end to end;
// this pins the exact mechanism.)
func TestFederationSupersededFrameRejected(t *testing.T) {
	f, err := NewFederation(FedShape(2, 3), FedSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// Quiesce the bridge triggers so poll only processes the inbox.
	for s := range f.dirty {
		f.dirty[s].Store(false)
	}

	f.mu.Lock()
	inc1 := f.tab.Handoff(0, 1) // shard 0 hands off to 1...
	inc2 := f.tab.Handoff(0, 2) // ...then to 2, deposing 1's delegate
	f.mu.Unlock()
	old, err := hier.EncodeHandoff(0, 1, inc1)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := hier.EncodeHandoff(0, 2, inc2)
	if err != nil {
		t.Fatal(err)
	}

	// The deposed frame arrives late, after the current one.
	f.delMu.Lock()
	f.inbox = append(f.inbox,
		Delivery{Slot: 1, Payload: cur},
		Delivery{Slot: 2, Payload: old},
		Delivery{Slot: 2, Payload: old}, // duplicate delivery of the same slot
	)
	f.delMu.Unlock()

	f.mu.Lock()
	f.poll()
	committed, inc := f.tab.Committed(0)
	rejected := f.tab.Rejected()
	f.mu.Unlock()

	if committed != 2 || inc != inc2 {
		t.Fatalf("committed = (%d,%d), want (2,%d)", committed, inc, inc2)
	}
	if rejected != 1 {
		t.Fatalf("rejected = %d, want exactly 1 (the late frame once; duplicates of a seen slot are dropped earlier)", rejected)
	}
}

// TestFederationPressureDeposesShardLeader drives the tier-suspicion
// pressure path end to end. FedChaos kills shard 2's tier seat; on a Fig2
// tier the survivors' suspicion of the dead seat climbs without bound, so
// its rise past DefaultFedPressure deposes shard 2's leader (Pressure > 0),
// the shard re-elects, and the bridge hands its delegate slot off again —
// with no invariant violation and an identical report on a second run. The
// same schedule on a Fig3 tier never applies pressure: the minimum test
// (Lemma 8) holds the dead seat's level within one of the tier minimum.
func TestFederationPressureDeposesShardLeader(t *testing.T) {
	const victim = 2
	run := func(algo Algo) (rep []byte, pressure uint64, incAtPressure, incEnd uint64) {
		f, err := NewFederation(FedShape(4, 3), FedSeed(5),
			FedTierOptions(Algorithm(algo)),
			FedChaos(NewChaosSchedule().Kill(2*time.Second, victim)))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		pressured := false
		for f.Now() < 8*time.Second {
			if err := f.Run(DefaultFedEpoch); err != nil {
				t.Fatal(err)
			}
			if f.pressure > 0 && !pressured {
				pressured = true
				incAtPressure = f.tab.Incarnation(victim)
			}
		}
		fr := f.Report().Federation
		if fr.TotalViolations != 0 {
			t.Fatalf("%s tier: federation invariant violations: %+v", algo, fr.Violations)
		}
		blob, err := json.Marshal(fr)
		if err != nil {
			t.Fatal(err)
		}
		return blob, fr.Pressure, incAtPressure, f.tab.Incarnation(victim)
	}

	a, pressure, incAtPressure, incEnd := run(Fig2)
	if pressure == 0 {
		t.Fatal("Fig2 tier with a dead delegate seat applied no pressure")
	}
	if incEnd <= incAtPressure {
		t.Fatalf("shard %d: incarnation %d at first pressure, %d at end; want a later handoff",
			victim, incAtPressure, incEnd)
	}
	if b, _, _, _ := run(Fig2); !bytes.Equal(a, b) {
		t.Fatalf("pressure run not deterministic:\n%s\n%s", a, b)
	}
	if _, p3, _, _ := run(Fig3); p3 != 0 {
		t.Fatalf("Fig3 tier applied pressure %d times; Lemma 8 should keep the dead seat within one level of the minimum", p3)
	}
}
