package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/proc"
	"repro/internal/wire"
	"repro/star"
)

// recorder counts the messages a bus delivers to it.
type recorder struct{ got int }

func (r *recorder) Start(proc.Env)         {}
func (r *recorder) OnMessage(proc.ID, any) { r.got++ }
func (r *recorder) OnTimer(proc.TimerKey)  {}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose: 100..1
	}
	if got := median(xs); got != 50 {
		t.Errorf("median = %v, want 50", got)
	}
	p90, err := percentile(xs, 0.9)
	if err != nil || p90 != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90, nil", p90, err)
	}
	if xs[0] != 100 {
		t.Error("percentile sorted its input in place")
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n  int
		p  float64
		ok bool
	}{
		{100, 0.9, true},    // exactly 10 beyond
		{99, 0.9, false},    // 9 beyond
		{1000, 0.99, true},  // 10 beyond
		{999, 0.99, false},  // 9 beyond
		{3, 0.5, true},      // the median is always defined
		{20_000, 0.9, true}, // the abcast window
	} {
		_, err := percentile(make([]float64, tc.n), tc.p)
		if (err == nil) != tc.ok {
			t.Errorf("percentile(n=%d, p=%g): err = %v, want ok=%v", tc.n, tc.p, err, tc.ok)
		}
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Error("percentile of no samples did not fail")
	}
}

func TestBestOf(t *testing.T) {
	rounds := [][]float64{{5, 2, 9}, {4, 3, 9}, {6, 1, 8}}
	if got, want := bestOf(rounds), []float64{4, 1, 8}; !slices.Equal(got, want) {
		t.Errorf("bestOf = %v, want %v", got, want)
	}
	if rounds[0][1] != 2 {
		t.Error("bestOf modified its input")
	}
	if bestOf(nil) != nil {
		t.Error("bestOf(nil) != nil")
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4) — the
// acceptance rule's definition of spread.
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	got := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if want := [3]float64{2.75, 5.5, 8.25}; got != want {
		t.Errorf("quartiles(1..10) = %v, want %v", got, want)
	}
	// statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
	got = quartiles([]float64{3, 1, 4, 1, 5})
	if want := [3]float64{1, 3, 4.5}; got != want {
		t.Errorf("quartiles(3,1,4,1,5) = %v, want %v", got, want)
	}
	// Two and three samples (-repeat 2, -repeat 3) clamp the cut index:
	// statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5] and
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0].
	if got, want := quartiles([]float64{3, 1}), [3]float64{0.5, 2, 3.5}; got != want {
		t.Errorf("quartiles(1,3) = %v, want %v", got, want)
	}
	if got, want := quartiles([]float64{4, 1, 2}), [3]float64{1, 2, 4}; got != want {
		t.Errorf("quartiles(1,2,4) = %v, want %v", got, want)
	}
	sp := spreadOf([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if math.Abs(sp.IQRShare-1) > 1e-12 || math.Abs(sp.RangeShare-9/5.5) > 1e-12 {
		t.Errorf("spreadOf(1..10) = %+v", sp)
	}
}

func TestSpanSelfTime(t *testing.T) {
	// root [0,100) has children a [10,40) and b [30,60) which overlap on
	// [30,40), and c [70,80); a has a child a1 [15,25).
	spans := []span{
		{ID: 0, Parent: -1, Layer: "bench", Start: 0, End: 100},
		{ID: 1, Parent: 0, Layer: "star", Start: 10, End: 40},
		{ID: 2, Parent: 1, Layer: "core", Start: 15, End: 25},
		{ID: 3, Parent: 0, Layer: "star", Start: 30, End: 60},
		{ID: 4, Parent: 0, Layer: "sim", Start: 70, End: 80},
	}
	// root: 100 - ([10,60) = 50) - 10 = 40; a: 30 - 10 = 20; b: 30 (its
	// overlap with a is only discounted in the parent); leaves: full.
	if got, want := selfTimes(spans), []int64{40, 20, 10, 30, 10}; !slices.Equal(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	if got, want := layerSelf(spans), map[string]int64{"bench": 40, "star": 50, "core": 10, "sim": 10}; !reflect.DeepEqual(got, want) {
		t.Errorf("layerSelf = %v, want %v", got, want)
	}
}

func TestTracerNesting(t *testing.T) {
	var off *tracer
	off.end(off.begin("x", "y"), 1) // a nil tracer records nothing and must not panic

	tr := newTracer()
	outer := tr.begin("bench", "outer")
	inner := tr.begin("star", "inner")
	tr.end(inner, 3)
	tr.end(outer, 1)
	if len(tr.spans) != 2 || tr.spans[inner].Parent != outer || tr.spans[outer].Parent != -1 || tr.spans[inner].Count != 3 {
		t.Errorf("spans = %+v", tr.spans)
	}
	if s := tr.spans[inner]; s.Start < tr.spans[outer].Start || s.End > tr.spans[outer].End {
		t.Errorf("inner span %+v not inside outer %+v", s, tr.spans[outer])
	}
}

// TestOpListPureFunctionOfSeed: the same seed names the same ops, another
// seed other ones, and K never depends on the seed.
func TestOpListPureFunctionOfSeed(t *testing.T) {
	key := func(ops []simOp) []string {
		out := make([]string, len(ops))
		for i, op := range ops {
			out[i] = op.cfg.name + "@" + string(rune(op.seed%26+'a')) + "/" + jsonNum(op.seed)
		}
		return out
	}
	a, b, c := key(paperOps(7)), key(paperOps(7)), key(paperOps(8))
	if !slices.Equal(a, b) {
		t.Error("paperOps(7) differs between calls")
	}
	if slices.Equal(a, c) {
		t.Error("paperOps(7) == paperOps(8)")
	}
	if len(a) != 120 || len(c) != 120 {
		t.Errorf("K = %d and %d, want 120", len(a), len(c))
	}
	seen := map[uint64]bool{}
	for _, op := range paperOps(7) {
		if seen[op.seed] {
			t.Errorf("op seed %d used twice", op.seed)
		}
		seen[op.seed] = true
	}
}

func jsonNum(v uint64) string {
	b, _ := json.Marshal(v)
	return string(b)
}

// TestSimOpDeterministic runs one op twice: identical digest and counters.
func TestSimOpDeterministic(t *testing.T) {
	op := paperOps(3)[2] // combined/fig3, 5 s virtual
	a, err := op.run(nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := op.run(newTracer())
	if err != nil {
		t.Fatal(err)
	}
	if a.dig != b.dig || a.ctr != b.ctr {
		t.Errorf("replay differs:\n%+v %+v\n%+v %+v", a.dig, a.ctr, b.dig, b.ctr)
	}
	if a.dig.Events == 0 || a.dig.Leader == star.None {
		t.Errorf("digest %+v: no events or no agreed leader", a.dig)
	}
}

func TestDigestMismatchFailsTheRun(t *testing.T) {
	first := []digest{{Events: 10, Leader: 0}, {Events: 20, Leader: 1}}
	var res simResult
	res.checkReplay(1, first, slices.Clone(first))
	if res.failed != 0 {
		t.Fatalf("identical replay counted %d failures", res.failed)
	}
	res.checkReplay(2, first, []digest{{Events: 10, Leader: 0}, {Events: 21, Leader: 1}})
	if res.failed != 1 || res.firstErr == nil {
		t.Fatalf("mismatching replay: failed=%d err=%v", res.failed, res.firstErr)
	}
	r := newResult("sim-paper-n5", false, 240, res.failed, res.firstErr)
	if r.Correct || exitCode([]*document{{Results: []*result{r}}}) == 0 {
		t.Error("a digest mismatch left the run correct / exit code 0")
	}

}

// TestLivenessChecks: an op that ends leaderless fails unless its
// configuration is one the paper does not prove (and then only within its
// allowance), a round may hold maxUnsettled unstabilised ops and no more,
// and the n=251 cluster must be agreed in every slice past the transient.
func TestLivenessChecks(t *testing.T) {
	ops := paperOps(1)
	settled := func() []digest {
		digs := make([]digest, len(ops))
		for k := range digs {
			digs[k] = digest{Leader: 1, StabAt: time.Second}
		}
		return digs
	}
	indexOf := func(name string) (at []int) {
		for k, op := range ops {
			if op.cfg.name == name {
				at = append(at, k)
			}
		}
		return at
	}
	failures := func(digs []digest) int {
		var res simResult
		res.checkElected(ops, digs)
		return res.failed
	}

	if got := failures(settled()); got != 0 {
		t.Errorf("a round of stabilised ops counted %d failures", got)
	}
	digs := settled()
	digs[indexOf("combined/fig3")[0]].Leader = star.None
	if got := failures(digs); got != 1 {
		t.Errorf("one leaderless combined/fig3 op counted %d failures, want 1", got)
	}
	digs = settled()
	fig1 := indexOf("intermittent4/fig1")
	if len(fig1) != seedsPerConfig {
		t.Fatalf("intermittent4/fig1 has %d ops, want %d", len(fig1), seedsPerConfig)
	}
	for _, k := range fig1 {
		digs[k] = digest{Leader: star.None, StabAt: -1}
	}
	if got, want := failures(digs), seedsPerConfig-3; got != want {
		t.Errorf("a leaderless intermittent4/fig1 configuration counted %d failures, want %d", got, want)
	}
	digs = settled()
	for k := range maxUnsettled + 2 {
		digs[k].StabAt = -1
	}
	if got := failures(digs); got != 2 {
		t.Errorf("%d unstabilised ops counted %d failures, want 2", maxUnsettled+2, got)
	}

	pass := make([]digest, scaleSlices)
	for k := range pass {
		pass[k] = digest{Leader: 0, StabAt: time.Duration(k)}
	}
	pass[0].Leader = star.None // inside the transient
	var res simResult
	if res.checkSettled(pass); res.failed != 0 {
		t.Errorf("a settled pass counted %d failures", res.failed)
	}
	pass[scaleSettled].Leader, pass[scaleSlices-1].StabAt = star.None, -1
	if res.checkSettled(pass); res.failed != 2 {
		t.Errorf("a leaderless slice and an unstabilised report counted %d failures, want 2", res.failed)
	}
}

func TestDeliveryLogChecks(t *testing.T) {
	log := func(payloads ...int64) []star.Delivery {
		out := make([]star.Delivery, len(payloads))
		for i, p := range payloads {
			out[i] = star.Delivery{Slot: int64(i), Sender: int(p+5) % 5, Payload: p}
		}
		return out
	}
	same := func(l []star.Delivery) [][]star.Delivery { return [][]star.Delivery{l, l, l, l, l} }
	if err := checkLogs(same(log(-1, 0, 2, 1)), 3); err != nil {
		t.Errorf("valid logs rejected: %v", err)
	}
	for name, logs := range map[string][][]star.Delivery{
		"lost":      same(log(-1, 0, 2)),
		"duplicate": same(log(-1, 0, 1, 2, 1)),
		"invented":  same(log(-1, 0, 1, 2, 3)),
		"no warmup": same(log(0, 1, 2)),
		"reordered": {log(-1, 0, 1, 2), log(-1, 0, 1, 2), log(-1, 0, 2, 1), log(-1, 0, 1, 2), log(-1, 0, 1, 2)},
		"short":     {log(-1, 0, 1, 2), log(-1, 0, 1), log(-1, 0, 1, 2), log(-1, 0, 1, 2), log(-1, 0, 1, 2)},
	} {
		err := checkLogs(logs, 3)
		if err == nil {
			t.Errorf("%s delivery passed the log check", name)
			continue
		}
		r := newResult("tcp-abcast-n5", false, 3, 0, err)
		if r.Correct || exitCode([]*document{{Results: []*result{r}}}) == 0 {
			t.Errorf("%s delivery left the run correct / exit code 0", name)
		}
	}
}

func TestCheapestRound(t *testing.T) {
	got := cheapest([]roundCost{
		{cost: cost{wall: 2e9, cpu: 3e9, mallocs: 1000, bytes: 4096}, ops: 10},
		{cost: cost{wall: 1e9, cpu: 4e9, mallocs: 900, bytes: 8192}, ops: 10},
	})
	want := roundCost{cost: cost{wall: 1e9, cpu: 3e9, mallocs: 900, bytes: 4096}, ops: 10}
	if got != want || got.allocs() != 90 || got.allocKB() != 0.4 {
		t.Errorf("cheapest = %+v (allocs %v, KiB %v), want %+v", got, got.allocs(), got.allocKB(), want)
	}
}

// TestBusHonoursPayloadRefcounts: a multicast payload returns to its pool
// exactly when its last copy is consumed, including copies addressed to
// processes nobody registered.
func TestBusHonoursPayloadRefcounts(t *testing.T) {
	b := newBus(3)
	rec := &recorder{}
	b.register(1, rec)
	env := &busEnv{b: b, id: 0}
	var pool wire.HeartbeatPool
	m := pool.Get()
	env.Multicast(proc.FullSet(3), m)
	if got := b.pump(); got != 1 || rec.got != 1 {
		t.Fatalf("delivered %d (node saw %d), want 1", got, rec.got)
	}
	if again := pool.Get(); again != m {
		t.Error("payload did not return to its pool after the last delivery")
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the tool in step:
// same workloads, same metric names and units, run_seconds = defaultSeconds,
// and bounds within their limits.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the module:", err)
	}
	var spec struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, defaultSeconds = %d", spec.RunSeconds, defaultSeconds)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	slices.Sort(names)
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("workloads %v, code has %v", names, workloadNames())
	}
	var e2e, layers []metricDef
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
		// Host timings carry whatever bound the noisiest workload needs
		// (NOISE.md), within the contract's 0.25; counts repeat and are
		// held tight.
		limit := 0.25
		if m.Unit == "count" || m.Unit == "KiB" {
			limit = 0.05
		}
		if m.Bound <= 0 || m.Bound > limit {
			t.Errorf("%s: bound %v outside (0, %v]", m.Name, m.Bound, limit)
		}
	}
	for _, m := range spec.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit})
	}
	if !slices.Equal(e2e, endToEnd) {
		t.Errorf("end_to_end %v\ncode has   %v", e2e, endToEnd)
	}
	if !slices.Equal(layers, perLayer) {
		t.Errorf("per_layer %v\ncode has  %v", layers, perLayer)
	}
}
