package bitset

import (
	"fmt"
	"math/rand"
	"testing"
)

// tallySizes are the universes the differential tests cover: the one-word
// layout's edges (1, and 12: 5 lanes of 12 bits), the word-aligned
// layout's first size (13) and its one- and two-word lanes (63, 64, 65),
// and the n=5 and n=251 the benchmark runs. FuzzTally's corpus indexes this
// list, so new sizes go at the end.
var tallySizes = []int{1, 5, 63, 64, 65, 251, 12, 13}

// checkTallyStream replays a report stream against a Tally over [0, n) with
// threshold alpha and against a plain []int counter, and fails on the first
// difference in the duplicate verdict, the returned hits or the reached set.
//
// The stream is a sequence of reports, each [reporter][universe][bits...]:
// the reporter is taken mod n; the universe u is n when its high bit is set
// and (byte mod n+1) otherwise, so suspect sets over smaller universes (which
// the wire decoder accepts below its cap) occur often; then ceil(u/8) bytes
// of membership bits, zero when the stream runs out.
func checkTallyStream(t *testing.T, n, alpha int, stream []byte) {
	t.Helper()
	// A second tally carved right after the first must stay zero: lanes
	// never spill into a neighbour.
	words := make([]uint64, 2*TallyWords(n))
	tl, rest := CarveTally(n, words)
	_, _ = CarveTally(n, rest)
	hits := New(n)
	counts := make([]int, n)
	reported := make([]bool, n)

	next := func() byte {
		if len(stream) == 0 {
			return 0
		}
		b := stream[0]
		stream = stream[1:]
		return b
	}
	for step := 0; len(stream) > 0; step++ {
		from := int(next()) % n
		ub := next()
		u := n
		if ub&0x80 == 0 {
			u = int(ub) % (n + 1)
		}
		s := New(u)
		for i := 0; i < u; i += 8 {
			b := next()
			for j := 0; j < 8 && i+j < u; j++ {
				if b&(1<<j) != 0 {
					s.Add(i + j)
				}
			}
		}

		fresh := tl.Add(from, alpha, s, hits)
		if fresh == reported[from] {
			t.Fatalf("n=%d alpha=%d step %d: Add(from=%d) = %v, reporter already counted: %v",
				n, alpha, step, from, fresh, reported[from])
		}
		if fresh {
			reported[from] = true
			s.ForEach(func(k int) { counts[k]++ })
			want := New(n)
			s.ForEach(func(k int) {
				if counts[k] >= alpha {
					want.Add(k)
				}
			})
			if !hits.Equal(want) {
				t.Fatalf("n=%d alpha=%d step %d: hits %v, want %v (suspects %v)", n, alpha, step, hits, want, s)
			}
		}
		for k := range n {
			if got := tl.Reached(k); got != (counts[k] >= alpha) {
				t.Fatalf("n=%d alpha=%d step %d: Reached(%d) = %v with count %d", n, alpha, step, k, got, counts[k])
			}
		}
		for i, w := range words[TallyWords(n):] {
			if w != 0 {
				t.Fatalf("n=%d alpha=%d step %d: neighbour word %d = %#x", n, alpha, step, i, w)
			}
		}
	}
	tl.Reset()
	for k := range n {
		if tl.Reached(k) {
			t.Fatalf("n=%d alpha=%d: Reached(%d) after Reset", n, alpha, k)
		}
	}
}

// randomTallyStream encodes reports reporting random reporters with suspect
// sets of random universe and density, in checkTallyStream's format.
func randomTallyStream(rng *rand.Rand, n, reports int) []byte {
	var out []byte
	for range reports {
		u := byte(0x80)
		if rng.Intn(4) == 0 {
			u = byte(rng.Intn(0x80))
		}
		out = append(out, byte(rng.Intn(256)), u)
		size := n
		if u&0x80 == 0 {
			size = int(u) % (n + 1)
		}
		dense := rng.Intn(3)
		for i := 0; i < size; i += 8 {
			b := byte(rng.Intn(256))
			switch dense {
			case 0:
				b &= byte(rng.Intn(256))
			case 2:
				b |= byte(rng.Intn(256))
			}
			out = append(out, b)
		}
	}
	return out
}

// TestTallyMatchesNaive is FuzzTally's deterministic twin: every universe in
// tallySizes with every threshold in [1, n], over random report streams long
// enough for every reporter to report about twice.
func TestTallyMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for _, n := range tallySizes {
		for alpha := 1; alpha <= n; alpha++ {
			checkTallyStream(t, n, alpha, randomTallyStream(rng, n, 2*n+8))
		}
	}
}

// TestTallyEveryReporterNamesOne: the slowest climb — each of n reporters
// names only target 0 — reaches exactly at the alpha-th reporter.
func TestTallyEveryReporterNamesOne(t *testing.T) {
	for _, n := range tallySizes {
		for _, alpha := range []int{1, (n + 1) / 2, n} {
			tl, _ := CarveTally(n, make([]uint64, TallyWords(n)))
			hits := New(n)
			s := FromMembers(n, 0)
			for p := range n {
				tl.Add(p, alpha, s, hits)
				if got, want := tl.Reached(0), p+1 >= alpha; got != want || hits.Contains(0) != want {
					t.Fatalf("n=%d alpha=%d: after %d reporters Reached=%v hits=%v, want %v",
						n, alpha, p+1, got, hits, want)
				}
			}
		}
	}
}

// TestTallyIgnoresBeyondUniverse: suspects at or beyond n are not counted
// and never returned, whatever the suspect set's universe.
func TestTallyIgnoresBeyondUniverse(t *testing.T) {
	for _, n := range tallySizes {
		tl, _ := CarveTally(n, make([]uint64, TallyWords(n)))
		hits := New(n)
		s := New(n + 70)
		s.Fill()
		tl.Add(0, 1, s, hits)
		if hits.Count() != n || tl.Reached(n) || tl.Reached(-1) {
			t.Fatalf("n=%d: hits %d of %d, Reached(n)=%v", n, hits.Count(), n, tl.Reached(n))
		}
	}
}

func TestTallyBadThresholdPanics(t *testing.T) {
	tl, _ := CarveTally(5, make([]uint64, TallyWords(5)))
	for _, alpha := range []int{0, 6} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("alpha %d did not panic", alpha)
				}
			}()
			tl.Add(0, alpha, New(5), New(5))
		}()
	}
}

// FuzzTally drives a Tally and a plain []int counter with the same report
// stream: the first byte picks n from tallySizes, the next two alpha in
// [1, n], and the rest is checkTallyStream's report format.
func FuzzTally(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i, n := range tallySizes {
		alpha := n/2 + 1
		f.Add(append([]byte{byte(i), byte(alpha >> 8), byte(alpha)}, randomTallyStream(rng, n, n+4)...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n := tallySizes[int(data[0])%len(tallySizes)]
		alpha := 1 + (int(data[1])<<8|int(data[2]))%n
		checkTallyStream(t, n, alpha, data[3:])
	})
}

func TestNextAnd(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 200} {
		rng := rand.New(rand.NewSource(int64(n)))
		s, o := New(n), New(n)
		for k := range n {
			if rng.Intn(2) == 0 {
				s.Add(k)
			}
			if rng.Intn(2) == 0 {
				o.Add(k)
			}
		}
		var got, want []int
		for k := s.NextAnd(o, -3); k >= 0; k = s.NextAnd(o, k+1) {
			got = append(got, k)
		}
		for k := range n {
			if s.Contains(k) && o.Contains(k) {
				want = append(want, k)
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("n=%d: walk %v, want %v", n, got, want)
		}
		if k := s.NextAnd(o, n); k != -1 {
			t.Fatalf("n=%d: NextAnd past the universe = %d", n, k)
		}
		wantMin := -1
		if m := s.Members(); len(m) > 0 {
			wantMin = m[0]
		}
		if got := s.Min(); got != wantMin {
			t.Fatalf("n=%d: Min %d, want %d", n, got, wantMin)
		}
		if got := New(n).Min(); got != -1 {
			t.Fatalf("n=%d: empty Min = %d", n, got)
		}
	}
}

// BenchmarkTallyAdd is one SUSPICION counted into a fresh row's tally: n
// reporters each name one target (the sparse worst case per suspect) or
// half the processes (a round's typical report), threshold n/2+1.
func BenchmarkTallyAdd(b *testing.B) {
	for _, n := range []int{5, 251} {
		for _, c := range []struct {
			name  string
			every int
		}{{"one", n}, {"half", 2}} {
			b.Run(fmt.Sprintf("n=%d/%s", n, c.name), func(b *testing.B) {
				s, hits := New(n), New(n)
				for k := 0; k < n; k += c.every {
					s.Add(k)
				}
				tl, _ := CarveTally(n, make([]uint64, TallyWords(n)))
				for b.Loop() {
					tl.Reset()
					for p := range n {
						tl.Add(p, n/2+1, s, hits)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/add")
			})
		}
	}
}
