package scenario

import (
	"testing"
	"time"

	"repro/internal/bitset"
	"repro/internal/netsim"
	"repro/internal/proc"
	"repro/internal/sim"
	"repro/internal/wire"
)

func baseParams() Params {
	return Params{N: 5, T: 2, Seed: 7}
}

func TestRoundTagExtraction(t *testing.T) {
	cases := []struct {
		payload any
		tag     int64
		ok      bool
	}{
		{&wire.Alive{RN: 9}, 9, true},
		{&wire.Heartbeat{Seq: 4}, 4, true},
		{&wire.Mux{Lane: 1, Inner: &wire.Alive{RN: 12}}, 12, true},
		{&wire.Mux{Lane: 0, Inner: &wire.Mux{Lane: 1, Inner: &wire.Heartbeat{Seq: 2}}}, 2, true},
		{&wire.Suspicion{RN: 5, Suspects: bitset.New(3)}, 0, false},
		{&wire.Decide{Instance: 8, Value: 8}, 0, false},
		{"garbage", 0, false},
	}
	for _, c := range cases {
		tag, ok := RoundTag(c.payload)
		if tag != c.tag || ok != c.ok {
			t.Errorf("RoundTag(%T) = (%d,%v), want (%d,%v)", c.payload, tag, ok, c.tag, c.ok)
		}
	}
}

func TestFixedStarMembership(t *testing.T) {
	p := baseParams().withDefaults() // center 0, t=2 -> Q = {1,2}
	s := newFixedStar(p, ModeTimely)
	if s.Center() != 0 {
		t.Fatalf("center = %d", s.Center())
	}
	for rn := int64(1); rn < 20; rn++ {
		for q := 1; q < 5; q++ {
			got := s.Mode(rn, q)
			want := ModeNone
			if q == 1 || q == 2 {
				want = ModeTimely
			}
			if got != want {
				t.Fatalf("Mode(%d,%d) = %v, want %v", rn, q, got, want)
			}
		}
	}
	if s.Mode(0, 1) != ModeNone {
		t.Error("mode before round 1 should be none")
	}
}

func TestFixedStarSkipsCenter(t *testing.T) {
	p := baseParams()
	p.Center = 1
	p = p.withDefaults()
	s := newFixedStar(p, ModeWinning)
	// Q must be the two lowest non-center ids: {0, 2}.
	if s.Mode(5, 0) != ModeWinning || s.Mode(5, 2) != ModeWinning {
		t.Error("Q should contain 0 and 2")
	}
	if s.Mode(5, 1) != ModeNone || s.Mode(5, 3) != ModeNone {
		t.Error("Q should not contain the center or process 3")
	}
}

func TestRotatingStarSizeAndRotation(t *testing.T) {
	p := baseParams().withDefaults()
	s := newRotatingStar(p, ModeTimely, false)
	// Every round must have exactly t constrained points.
	for rn := int64(1); rn <= 40; rn++ {
		count := 0
		for q := 0; q < p.N; q++ {
			if q == s.Center() {
				continue
			}
			if s.Mode(rn, q) != ModeNone {
				count++
			}
		}
		if count != p.T {
			t.Fatalf("round %d has %d points, want %d", rn, count, p.T)
		}
	}
	// The set must actually rotate: across a full cycle of rounds every
	// non-center process appears at least once.
	appeared := map[proc.ID]bool{}
	for rn := int64(1); rn <= int64(p.N); rn++ {
		for q := 0; q < p.N; q++ {
			if q != s.Center() && s.Mode(rn, q) != ModeNone {
				appeared[q] = true
			}
		}
	}
	if len(appeared) != p.N-1 {
		t.Fatalf("rotation covered %d processes, want %d", len(appeared), p.N-1)
	}
	// Consecutive rounds must differ (rotation, not fixed).
	same := true
	for q := 0; q < p.N; q++ {
		if (s.Mode(1, q) != ModeNone) != (s.Mode(2, q) != ModeNone) {
			same = false
		}
	}
	if same {
		t.Fatal("Q(1) == Q(2): star does not rotate")
	}
}

// TestRotatingStarMembershipMatchesScan: inQ computes q's position among
// the non-center processes; it must agree with a scan of that ascending
// list for every center, round and window size.
func TestRotatingStarMembershipMatchesScan(t *testing.T) {
	const n = 7
	for center := 0; center < n; center++ {
		var others []proc.ID
		for id := 0; id < n; id++ {
			if id != center {
				others = append(others, id)
			}
		}
		for tt := 0; tt < n; tt++ {
			s := newRotatingStar(Params{N: n, T: tt, Center: center}, ModeTimely, false)
			for rn := int64(0); rn <= 3*n; rn++ {
				for q := -1; q <= n; q++ {
					want := false
					for i, id := range others {
						if id == q {
							m := int64(len(others))
							want = (int64(i)-rn%m+m)%m < int64(tt)
						}
					}
					if got := s.inQ(rn, q); got != want {
						t.Fatalf("center %d t %d: inQ(%d, %d) = %v, want %v", center, tt, rn, q, got, want)
					}
				}
			}
		}
	}
}

func TestRotatingStarMixedModes(t *testing.T) {
	p := baseParams().withDefaults()
	s := newRotatingStar(p, ModeNone, true)
	timely, winning := 0, 0
	for rn := int64(1); rn <= 200; rn++ {
		for q := 0; q < p.N; q++ {
			switch s.Mode(rn, q) {
			case ModeTimely:
				timely++
			case ModeWinning:
				winning++
			}
		}
	}
	if timely == 0 || winning == 0 {
		t.Fatalf("mixed star produced timely=%d winning=%d", timely, winning)
	}
	// Deterministic: same query -> same answer.
	if s.Mode(7, 1) != s.Mode(7, 1) {
		t.Fatal("mode not deterministic")
	}
}

func TestFixedGapMembership(t *testing.T) {
	member := fixedGapMembership(5, 4)
	want := map[int64]bool{5: true, 9: true, 13: true, 17: true}
	for rn := int64(0); rn < 20; rn++ {
		if member(rn) != want[rn] {
			t.Fatalf("member(%d) = %v", rn, member(rn))
		}
	}
}

func TestGrowingGapMembership(t *testing.T) {
	// s0=1, D=2, f(s)=s -> 1, 1+2+1=4, 4+2+4=10, 10+2+10=22, ...
	member := growingGapMembership(1, 2, func(s int64) int64 { return s })
	want := map[int64]bool{1: true, 4: true, 10: true, 22: true, 46: true}
	for rn := int64(0); rn < 50; rn++ {
		if member(rn) != want[rn] {
			t.Fatalf("member(%d) = %v", rn, member(rn))
		}
	}
	// Query order must not matter (memoized).
	if !member(10) || member(11) {
		t.Fatal("memoized membership broken")
	}
}

func TestIntermittentStarModes(t *testing.T) {
	p := baseParams()
	p.D = 3
	sc, err := Intermittent(p)
	if err != nil {
		t.Fatal(err)
	}
	s := sc.Schedule
	inS, outS := 0, 0
	for rn := int64(1); rn <= 60; rn++ {
		anyConstrained := false
		for q := 0; q < p.N; q++ {
			if q == s.Center() {
				continue
			}
			m := s.Mode(rn, q)
			switch m {
			case ModeTimely, ModeWinning:
				anyConstrained = true
			case ModeLose:
				outS++
			}
		}
		if anyConstrained {
			inS++
		}
	}
	if inS != 20 {
		t.Fatalf("star rounds = %d, want 20 (every 3rd of 60)", inS)
	}
	if outS == 0 {
		t.Fatal("no adversarial modes outside S")
	}
}

func TestTimelyDelayBound(t *testing.T) {
	p := baseParams()
	p.Delta = 3 * time.Millisecond
	sc, err := TSource(p)
	if err != nil {
		t.Fatal(err)
	}
	r := sim.NewRand(1)
	for i := 0; i < 500; i++ {
		ev := &netsim.Envelope{From: 0, To: 1, Payload: &wire.Alive{RN: int64(i + 1)}}
		d := sc.Policy.Delay(ev, r)
		if d > p.Delta {
			t.Fatalf("timely delay %v exceeds delta %v", d, p.Delta)
		}
	}
}

func TestUnconstrainedDelayUsesBase(t *testing.T) {
	p := baseParams()
	sc, err := TSource(p)
	if err != nil {
		t.Fatal(err)
	}
	pd := sc.Params
	r := sim.NewRand(2)
	sawSpike := false
	for i := 0; i < 2000; i++ {
		// Process 4 is not in Q={1,2}: unconstrained.
		ev := &netsim.Envelope{From: 0, To: 4, Payload: &wire.Alive{RN: int64(i + 1)}}
		d := sc.Policy.Delay(ev, r)
		if d > pd.BaseHi+pd.SpikeHi {
			t.Fatalf("delay %v exceeds base+spike bound", d)
		}
		if d >= pd.SpikeLo {
			sawSpike = true
		}
	}
	if !sawSpike {
		t.Fatal("no spikes observed on unconstrained link")
	}
}

func TestSelfLinkFast(t *testing.T) {
	sc, err := TSource(baseParams())
	if err != nil {
		t.Fatal(err)
	}
	r := sim.NewRand(3)
	for i := 0; i < 100; i++ {
		ev := &netsim.Envelope{From: 2, To: 2, Payload: &wire.Suspicion{RN: 1, Suspects: bitset.New(5)}}
		if d := sc.Policy.Delay(ev, r); d > sc.Params.BaseLo {
			t.Fatalf("self delay %v too large", d)
		}
	}
}

func TestGateEnforcesWinning(t *testing.T) {
	// 5 processes, alpha=3: at most alpha-2=1 other ALIVE(rn) may be
	// delivered to a winning-constrained q before the center's.
	p := baseParams()
	sc, err := Pattern(p) // fixed Q={1,2}, winning
	if err != nil {
		t.Fatal(err)
	}
	gate := sc.Gate

	mk := func(seq uint64, from, to proc.ID, rn int64) *netsim.Envelope {
		return &netsim.Envelope{Seq: seq, From: from, To: to, Payload: &wire.Alive{RN: rn}}
	}
	// Receiver 1 (in Q). Others arrive first: 3 passes (first other),
	// 4 must be held (budget exhausted), center releases it.
	if !gate.OnArrival(mk(1, 3, 1, 7), 0) {
		t.Fatal("first other should pass")
	}
	gate.OnDelivered(mk(1, 3, 1, 7), 0)
	if gate.OnArrival(mk(2, 4, 1, 7), 0) {
		t.Fatal("second other should be held")
	}
	// Center's message passes and releases the held one.
	if !gate.OnArrival(mk(3, 0, 1, 7), 0) {
		t.Fatal("center must pass")
	}
	released := gate.OnDelivered(mk(3, 0, 1, 7), 0)
	if len(released) != 1 || released[0].From != 4 {
		t.Fatalf("released = %v", released)
	}
}

func TestGatePassesUnconstrainedReceivers(t *testing.T) {
	sc, err := Pattern(baseParams())
	if err != nil {
		t.Fatal(err)
	}
	gate := sc.Gate
	// Receiver 4 is outside Q: nothing is ever held.
	for i := uint64(0); i < 10; i++ {
		ev := &netsim.Envelope{Seq: i, From: int(i%4) + 1, To: 4, Payload: &wire.Alive{RN: 3}}
		if !gate.OnArrival(ev, 0) {
			t.Fatal("unconstrained receiver had a message held")
		}
		gate.OnDelivered(ev, 0)
	}
}

func TestGateCrashedCenterReleases(t *testing.T) {
	sc, err := Pattern(baseParams())
	if err != nil {
		t.Fatal(err)
	}
	probes := newFakeProbes(5)
	sc.Attach(probes)
	gate := sc.Gate
	ev1 := &netsim.Envelope{Seq: 1, From: 3, To: 1, Payload: &wire.Alive{RN: 2}}
	gate.OnArrival(ev1, 0)
	gate.OnDelivered(ev1, 0)
	probes.crashed[0] = true
	// With the center crashed, further arrivals pass even past budget.
	ev2 := &netsim.Envelope{Seq: 2, From: 4, To: 1, Payload: &wire.Alive{RN: 2}}
	if !gate.OnArrival(ev2, 0) {
		t.Fatal("gate held message of crashed-center constraint")
	}
}

func TestBuildAllFamilies(t *testing.T) {
	for _, f := range Families() {
		sc, err := Build(f, baseParams())
		if err != nil {
			t.Fatalf("Build(%s): %v", f, err)
		}
		if sc.Name != string(f) {
			t.Errorf("name = %q, want %q", sc.Name, f)
		}
		if sc.Policy == nil {
			t.Errorf("%s: nil policy", f)
		}
	}
	if _, err := Build("bogus", baseParams()); err == nil {
		t.Error("unknown family accepted")
	}
}

func TestParamsValidation(t *testing.T) {
	bad := []Params{
		{N: 1, T: 0},
		{N: 5, T: 5},
		{N: 5, T: 2, Center: 9},
		{N: 5, T: 2, Crashes: []Crash{{ID: 0}}}, // crashing the center
		{N: 5, T: 1, Crashes: []Crash{{ID: 1}, {ID: 2}}}, // too many crashes
		{N: 5, T: 2, Crashes: []Crash{{ID: 7}}},          // invalid id
	}
	for i, p := range bad {
		if _, err := TSource(p); err == nil {
			t.Errorf("case %d accepted: %+v", i, p)
		}
	}
}

func TestAllTimelyPolicyStabilizes(t *testing.T) {
	sc, err := AllTimely(baseParams())
	if err != nil {
		t.Fatal(err)
	}
	r := sim.NewRand(5)
	// Before stabilization: async (can exceed delta).
	sawLarge := false
	for i := 0; i < 500; i++ {
		ev := &netsim.Envelope{From: 1, To: 2, SentAt: 0, Payload: &wire.Alive{RN: 1}}
		if d := sc.Policy.Delay(ev, r); d > sc.Params.Delta {
			sawLarge = true
		}
	}
	if !sawLarge {
		t.Fatal("prefix not asynchronous")
	}
	// After stabilization: every delay <= delta.
	after := sim.Time(time.Second)
	for i := 0; i < 500; i++ {
		ev := &netsim.Envelope{From: 1, To: 2, SentAt: after, Payload: &wire.Alive{RN: 1}}
		if d := sc.Policy.Delay(ev, r); d > sc.Params.Delta {
			t.Fatalf("post-stabilization delay %v > delta", d)
		}
	}
}

func TestModeString(t *testing.T) {
	for m, want := range map[Mode]string{
		ModeNone: "none", ModeTimely: "timely", ModeWinning: "winning",
		ModeLose: "lose", Mode(42): "Mode(42)",
	} {
		if m.String() != want {
			t.Errorf("Mode(%d).String() = %q, want %q", int(m), m.String(), want)
		}
	}
}
