package star_test

import (
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"repro/star"
)

// timeFreePins holds the digest of every pinned star.TimeFree run, recorded
// when the time-free baseline was still its own node type (a fork of
// core.Node's Figure 1 without the line-8 timer). The core variant that
// replaced it must reproduce each run exactly.
var timeFreePins = map[string]string{
	"alltimely/seed=1/default":            "28a77ce83edf4269",
	"alltimely/seed=1/churn":              "810bcd9d60ecd577",
	"alltimely/seed=1/churn+journal":      "197571eed58dacbb",
	"alltimely/seed=2/default":            "b9300fd43bb8de8e",
	"alltimely/seed=2/churn":              "e34bd10f546abd37",
	"alltimely/seed=2/churn+journal":      "543572b65b2512ad",
	"alltimely/seed=3/default":            "29a237762100776c",
	"alltimely/seed=3/churn":              "97b1f7ff27c8dda9",
	"alltimely/seed=3/churn+journal":      "059e11bc70cd8ecf",
	"tsource/seed=1/default":              "2865973370313b2c",
	"tsource/seed=1/churn":                "c33aef5d8e6d6800",
	"tsource/seed=1/churn+journal":        "0d0aa91bb4b4492b",
	"tsource/seed=2/default":              "ffe4846ec80de2fa",
	"tsource/seed=2/churn":                "9b6aaf18e1a3aea8",
	"tsource/seed=2/churn+journal":        "9a261c59421e414d",
	"tsource/seed=3/default":              "c8449f925f0440cb",
	"tsource/seed=3/churn":                "8d5c3d4161a3e388",
	"tsource/seed=3/churn+journal":        "b627d94fe632b6b5",
	"movingsource/seed=1/default":         "336d0836b74258ae",
	"movingsource/seed=1/churn":           "c48a0bf1e170ee20",
	"movingsource/seed=1/churn+journal":   "54e2e9176c522964",
	"movingsource/seed=2/default":         "61a4d358c8fe8c62",
	"movingsource/seed=2/churn":           "379503df04393232",
	"movingsource/seed=2/churn+journal":   "10a659fed1824312",
	"movingsource/seed=3/default":         "d3d35e523e944970",
	"movingsource/seed=3/churn":           "3d096c88e5abb13a",
	"movingsource/seed=3/churn+journal":   "7c998d95c7e02e73",
	"pattern/seed=1/default":              "0501c15e2926a0f3",
	"pattern/seed=1/churn":                "7c71e7cda90af3c8",
	"pattern/seed=1/churn+journal":        "2a785f63ca4a2572",
	"pattern/seed=2/default":              "35dd74b9a16a7da3",
	"pattern/seed=2/churn":                "935f9e8c3f825a5d",
	"pattern/seed=2/churn+journal":        "7b4b4f81413642f0",
	"pattern/seed=3/default":              "8500e2d07147a6a6",
	"pattern/seed=3/churn":                "2151a07fa4cd7ad7",
	"pattern/seed=3/churn+journal":        "b714f4fb200f6da6",
	"movingpattern/seed=1/default":        "3460fc506a46b868",
	"movingpattern/seed=1/churn":          "a243e2faf2770487",
	"movingpattern/seed=1/churn+journal":  "9a4b828b6dcbd933",
	"movingpattern/seed=2/default":        "4767e31fdf8edfdb",
	"movingpattern/seed=2/churn":          "f6a3c7a4b6d5781d",
	"movingpattern/seed=2/churn+journal":  "83be9731b6570f7f",
	"movingpattern/seed=3/default":        "5225f311e5e8ccc5",
	"movingpattern/seed=3/churn":          "c10a243c7d0f273f",
	"movingpattern/seed=3/churn+journal":  "1cde9f546371d148",
	"combined/seed=1/default":             "30682267b72b9500",
	"combined/seed=1/churn":               "64df8463d6c2aea5",
	"combined/seed=1/churn+journal":       "1523e05a16a8ba8d",
	"combined/seed=2/default":             "b3a2684c2fcfa8eb",
	"combined/seed=2/churn":               "6b6128708ec5e0f3",
	"combined/seed=2/churn+journal":       "b5038ca04ebd33a5",
	"combined/seed=3/default":             "3f09fe8873841c43",
	"combined/seed=3/churn":               "dcb4dfe4a0b9f96c",
	"combined/seed=3/churn+journal":       "a7c7b9e41c818fcc",
	"intermittent/seed=1/default":         "7308433f333a666b",
	"intermittent/seed=1/churn":           "0523753da8b4f26b",
	"intermittent/seed=1/churn+journal":   "f05baa30518c124d",
	"intermittent/seed=2/default":         "10812a5cd10db6cc",
	"intermittent/seed=2/churn":           "8f1689c94ad195ba",
	"intermittent/seed=2/churn+journal":   "0429aecfb9c2b669",
	"intermittent/seed=3/default":         "1aa13c391b9f732e",
	"intermittent/seed=3/churn":           "e9fa3ac6e686d2cc",
	"intermittent/seed=3/churn+journal":   "f507fdf228182014",
	"intermittentfg/seed=1/default":       "7308433f333a666b",
	"intermittentfg/seed=1/churn":         "0523753da8b4f26b",
	"intermittentfg/seed=1/churn+journal": "f05baa30518c124d",
	"intermittentfg/seed=2/default":       "10812a5cd10db6cc",
	"intermittentfg/seed=2/churn":         "8f1689c94ad195ba",
	"intermittentfg/seed=2/churn+journal": "0429aecfb9c2b669",
	"intermittentfg/seed=3/default":       "1aa13c391b9f732e",
	"intermittentfg/seed=3/churn":         "e9fa3ac6e686d2cc",
	"intermittentfg/seed=3/churn+journal": "f507fdf228182014",
}

// timeFreeDigest hashes what a run shows from outside: event count,
// traffic per kind, the stabilization verdict, the sampled leader timeline,
// every process's rounds and final leader, the final timeouts and the
// recovery counters.
func timeFreeDigest(c *star.Cluster) string {
	m := c.Metrics()
	rep := c.Report()
	h := fnv.New64a()
	fmt.Fprintf(h, "events=%d net=%+v stab=%+v timeouts=%v leaders=%v recovery=%+v\n",
		m.Events, rep.Net, rep.Stabilization, rep.FinalTimeouts, rep.LeaderAtEnd, rep.Recovery)
	for id := range c.N() {
		s, r := c.Rounds(id)
		fmt.Fprintf(h, "rounds[%d]=%d/%d\n", id, s, r)
	}
	for _, s := range rep.Timeline {
		fmt.Fprintf(h, "%d %v\n", s.At, s.Leaders)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestTimeFreeDigestPinned runs star.TimeFree under every assumption
// family, three seeds and three rejoin modes (none, churn with the
// round-frontier jump, churn restoring from a journal), 5 s at n=5, and
// compares each run's digest with the pinned one. Any change to the
// time-free node's sends, timers or bookkeeping moves a digest: a single
// armed round timer takes a scheduler sequence number and reorders every
// later tie.
func TestTimeFreeDigestPinned(t *testing.T) {
	churn := func() []star.Option {
		return []star.Option{star.Churn(500*time.Millisecond, time.Second, 300*time.Millisecond, 4*time.Second)}
	}
	modes := []struct {
		name string
		opts func() []star.Option
	}{
		{"default", func() []star.Option { return nil }},
		{"churn", churn},
		{"churn+journal", func() []star.Option { return append(churn(), star.WithRecovery(star.MemJournal())) }},
	}
	for _, fam := range star.Families() {
		for seed := uint64(1); seed <= 3; seed++ {
			for _, mode := range modes {
				name := fmt.Sprintf("%s/seed=%d/%s", fam, seed, mode.name)
				t.Run(name, func(t *testing.T) {
					opts := append([]star.Option{
						star.N(5), star.Seed(seed), star.Algorithm(star.TimeFree),
						star.Scenario(star.MustFamily(fam)),
					}, mode.opts()...)
					c, err := star.New(opts...)
					if err != nil {
						t.Fatal(err)
					}
					defer c.Close()
					if err := c.Run(5 * time.Second); err != nil {
						t.Fatal(err)
					}
					if got, want := timeFreeDigest(c), timeFreePins[name]; got != want {
						t.Errorf("digest %s, pinned %q", got, want)
					}
				})
			}
		}
	}
}
