package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitset"
	"repro/internal/proc"
	"repro/internal/wire"
)

// naiveNode is lines 4-5 and 13-18 written the way the paper states them:
// one int counter per (round, target), then the window test "*", then the
// minimum test "**" as a scan, in the paper's order. Node is run against it
// in lock-step.
type naiveNode struct {
	cfg        Config
	level      []int64
	counts     map[int64][]int
	reported   map[int64]map[int]bool
	increments uint64
	calls      []incrCall
}

// incrCall is one OnIncrement observation.
type incrCall struct {
	k     int
	level int64
}

func newNaiveNode(cfg Config) *naiveNode {
	cfg = cfg.withDefaults()
	return &naiveNode{
		cfg:      cfg,
		level:    make([]int64, cfg.N),
		counts:   map[int64][]int{},
		reported: map[int64]map[int]bool{},
	}
}

func (m *naiveNode) raise(k int, v int64) {
	m.level[k] = v
	m.calls = append(m.calls, incrCall{k, v})
}

// alive is line 5: the pointwise maximum merge.
func (m *naiveNode) alive(levels []int64) {
	for k, v := range levels {
		if v > m.level[k] {
			m.raise(k, v)
		}
	}
}

// suspicion is lines 13-18.
func (m *naiveNode) suspicion(from int, rn int64, s *bitset.Set) {
	if m.reported[rn] == nil {
		m.reported[rn] = map[int]bool{}
		m.counts[rn] = make([]int, m.cfg.N)
	}
	if m.reported[rn][from] {
		return
	}
	m.reported[rn][from] = true
	c := m.counts[rn]
	s.ForEach(func(k int) {
		c[k]++ // line 15
		if c[k] < m.cfg.Alpha {
			return // line 16
		}
		if !m.windowOK(rn, k) {
			return // line "*"
		}
		if (m.cfg.Variant == VariantFig3 || m.cfg.Variant == VariantFG) && m.level[k] > slices.Min(m.level) {
			return // line "**"
		}
		m.raise(k, m.level[k]+1) // line 17
		m.increments++
	})
}

func (m *naiveNode) windowOK(rn int64, k int) bool {
	if m.cfg.Variant == VariantFig1 || m.cfg.Variant == VariantTimeFree {
		return true
	}
	low := rn - m.level[k]
	if m.cfg.Variant == VariantFG {
		low -= m.cfg.F(rn)
	}
	for x := max(low, 1); x < rn; x++ {
		if c := m.counts[x]; c == nil || c[k] < m.cfg.Alpha {
			return false
		}
	}
	return true
}

// lockStep pairs a Node with a naiveNode fed the same messages.
type lockStep struct {
	t     *testing.T
	node  *Node
	ref   *naiveNode
	calls []incrCall
}

func newLockStep(t *testing.T, cfg Config) *lockStep {
	ls := &lockStep{t: t, ref: newNaiveNode(cfg)}
	cfg.OnIncrement = func(k int, v int64) { ls.calls = append(ls.calls, incrCall{k, v}) }
	ls.node, _ = newStartedNode(t, 0, cfg)
	return ls
}

func (ls *lockStep) suspicion(from int, rn int64, s *bitset.Set) {
	ls.t.Helper()
	ls.node.OnMessage(from, &wire.Suspicion{RN: rn, Suspects: s})
	ls.ref.suspicion(from, rn, s)
	ls.check(fmt.Sprintf("SUSPICION(%d, %v) from %d", rn, s, from))
}

func (ls *lockStep) alive(from int, rn int64, levels []int64) {
	ls.t.Helper()
	ls.aliveMsg(from, &wire.Alive{RN: rn, SuspLevel: levels})
}

func (ls *lockStep) aliveMsg(from int, m *wire.Alive) {
	ls.t.Helper()
	ls.node.OnMessage(from, m)
	ls.ref.alive(m.SuspLevel)
	ls.check(fmt.Sprintf("ALIVE(%d, %v) from %d", m.RN, m.SuspLevel, from))
}

// randomSuspicion sends a SUSPICION for round rn from a random reporter,
// with a random density of suspects.
func (ls *lockStep) randomSuspicion(rng *rand.Rand, rn int64) {
	ls.t.Helper()
	n := ls.ref.cfg.N
	s := bitset.New(n)
	if rng.Intn(8) == 0 {
		// A smaller universe, as the wire decoder may hand over.
		s = bitset.New(rng.Intn(n + 1))
	}
	density := 2 + rng.Intn(6)
	for k := range s.Len() {
		if rng.Intn(density) != 0 {
			s.Add(k)
		}
	}
	ls.suspicion(rng.Intn(n), rn, s)
}

func (ls *lockStep) check(msg string) {
	ls.t.Helper()
	if got := ls.node.SuspLevel(); !slices.Equal(got, ls.ref.level) {
		ls.t.Fatalf("after %s: susp_level %v, paper's order gives %v", msg, got, ls.ref.level)
	}
	if got := ls.node.Metrics().Increments; got != ls.ref.increments {
		ls.t.Fatalf("after %s: Increments %d, paper's order gives %d", msg, got, ls.ref.increments)
	}
	if !slices.Equal(ls.calls, ls.ref.calls) {
		ls.t.Fatalf("after %s: OnIncrement calls %v, paper's order gives %v", msg, ls.calls, ls.ref.calls)
	}
	// leader() (lines 19-21): the lowest id holding the minimum level.
	low := slices.Min(ls.ref.level)
	want := proc.ID(slices.Index(ls.ref.level, low))
	if got := ls.node.Leader(); got != want {
		ls.t.Fatalf("after %s: leader %d, paper's order gives %d", msg, got, want)
	}
	for k, v := range ls.ref.level {
		if ls.node.atMin.Contains(k) != (v == low) {
			ls.t.Fatalf("after %s: atMin %v disagrees at %d with the minimum %d", msg, &ls.node.atMin, k, low)
		}
	}
}

// TestLockStepWithPaperOrder feeds Node and the naive handler identical
// random SUSPICION streams, with an occasional ALIVE merge, for every
// variant (the time-free one included: its counter rule is Figure 1's) at
// n=5 (the one-word tally) and n=70 (the aligned one). Rounds span
// more than the 8-slot ring, so evicted and overflow rows are read too.
func TestLockStepWithPaperOrder(t *testing.T) {
	variants := []Variant{VariantFig1, VariantFig2, VariantFig3, VariantFG, VariantTimeFree}
	for _, n := range []int{5, 70} {
		for _, v := range variants {
			for seed := int64(1); seed <= 4; seed++ {
				t.Run(fmt.Sprintf("n=%d/%v/seed=%d", n, v, seed), func(t *testing.T) {
					rng := rand.New(rand.NewSource(seed*1000 + int64(n)))
					cfg := Config{
						N: n, T: n / 3, Alpha: n/2 + 1 + rng.Intn(n/5+1), Variant: v,
						WindowSlots: 8, F: func(rn int64) int64 { return rn % 3 },
					}
					ls := newLockStep(t, cfg)
					for range 30 * n {
						rn := int64(1 + rng.Intn(12))
						if rng.Intn(25) == 0 {
							levels := slices.Clone(ls.ref.level)
							levels[rng.Intn(n)] += int64(rng.Intn(3))
							ls.alive(rng.Intn(n), rn, levels)
							continue
						}
						ls.randomSuspicion(rng, rn)
					}
					if ls.ref.increments == 0 {
						t.Fatal("stream raised nothing; the comparison is vacuous")
					}
				})
			}
		}
	}
}

// TestLockStepMinRisesMidMessage: one SUSPICION raises the last two minimum
// holders, which lifts the minimum while the message is being processed, so
// a later target that was above the old minimum passes line "**" and is
// raised by the same message.
func TestLockStepMinRisesMidMessage(t *testing.T) {
	for _, n := range []int{5, 70} {
		for _, v := range []Variant{VariantFig3, VariantFG} {
			t.Run(fmt.Sprintf("n=%d/%v", n, v), func(t *testing.T) {
				ls := newLockStep(t, Config{N: n, T: n - 1, Alpha: 1, Variant: v})
				levels := make([]int64, n)
				for k := range levels {
					levels[k] = 1
				}
				levels[2], levels[3] = 0, 0
				ls.alive(1, 1, levels)
				ls.suspicion(0, 1, bitset.FromMembers(n, 2, 3, 4))
				want := []int64{1, 1, 1, 1, 2}
				if got := ls.node.SuspLevel()[:5]; !slices.Equal(got, want) {
					t.Fatalf("levels %v, want %v", got, want)
				}
			})
		}
	}
}

// TestLockStepSummarizedAlives merges ALIVEs the way a sender builds them:
// out of a wire.AlivePool, and, when the vector is narrow (width 0 or 1),
// with the summary aliveTick attaches. Their bases sit one below, at and one
// above the node's minimum; wider vectors (width 2 or 3) carry none. Random
// SUSPICIONs between them keep the levels moving, and each payload returns
// to the pool after its merge, so later ones reuse slack that held a
// summary. Line 5's three cases must each occur, and the dense one must be
// exactly what DenseMerges counts.
func TestLockStepSummarizedAlives(t *testing.T) {
	for _, n := range []int{5, 64, 70, 251} {
		for _, v := range []Variant{VariantFig1, VariantFig3} {
			for seed := int64(1); seed <= 2; seed++ {
				t.Run(fmt.Sprintf("n=%d/%v/seed=%d", n, v, seed), func(t *testing.T) {
					rng := rand.New(rand.NewSource(seed*1000 + int64(n)))
					ls := newLockStep(t, Config{N: n, T: n / 3, Alpha: n/2 + 1, Variant: v, WindowSlots: 8})
					var pool wire.AlivePool
					var skip, wordWise, dense int
					for range 10 * n {
						rn := int64(1 + rng.Intn(12))
						if rng.Intn(2) == 0 {
							ls.randomSuspicion(rng, rn)
							continue
						}
						low := ls.node.minLevel
						base := max(low+int64(rng.Intn(3)-1), 0)
						w := rng.Intn(4)
						m := pool.Get(n)
						m.RN = rn
						for k := range m.SuspLevel {
							m.SuspLevel[k] = base + rng.Int63n(1<<w)
						}
						m.SuspLevel[rng.Intn(n)] = base
						if w <= 1 {
							set := bitset.New(n)
							for k, x := range m.SuspLevel {
								if x == base {
									set.Add(k)
								}
							}
							m.SetNarrow(set)
						}
						before := ls.node.Metrics().DenseMerges
						ls.aliveMsg(rng.Intn(n), m)
						var want uint64
						switch {
						case w <= 1 && base < low:
							skip++
						case w <= 1 && base == low:
							wordWise++
						default:
							dense++
							want = 1
						}
						if got := ls.node.Metrics().DenseMerges - before; got != want {
							t.Fatalf("ALIVE of width %d, base %d against minimum %d: DenseMerges rose by %d, want %d", w, base, low, got, want)
						}
						m.Retain()
						m.Recycle()
					}
					if skip == 0 || wordWise == 0 || dense == 0 {
						t.Fatalf("cases hit: skip %d, word-wise %d, dense %d; each must occur", skip, wordWise, dense)
					}
				})
			}
		}
	}
}
