package main

import (
	"fmt"
	"math"
	"slices"
)

// minBeyond is the fewest samples that must lie beyond a reported
// percentile: a tail statistic resting on fewer is one or two outliers, not
// a distribution.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs, which
// need not be sorted. It refuses a percentile with fewer than minBeyond
// samples beyond it.
func percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("percentile of no samples")
	}
	rank := int(math.Ceil(p * float64(len(xs))))
	if beyond := len(xs) - rank; p > 0.5 && beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want >= %d", p*100, len(xs), beyond, minBeyond)
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[max(rank, 1)-1], nil
}

// median is the nearest-rank p50, defined for any non-empty sample.
func median(xs []float64) float64 {
	v, err := percentile(xs, 0.5)
	if err != nil {
		panic(err)
	}
	return v
}

// bestOf reduces rounds[r][k] — the time of deterministic op k in round r —
// to each op's minimum over the rounds. Interference from a shared host only
// ever adds time to a replayed op, so the minimum is the estimate least
// contaminated by it.
func bestOf(rounds [][]float64) []float64 {
	if len(rounds) == 0 {
		return nil
	}
	best := slices.Clone(rounds[0])
	for _, r := range rounds[1:] {
		if len(r) != len(best) {
			panic("bestOf: rounds of unequal length")
		}
		for k, v := range r {
			best[k] = min(best[k], v)
		}
	}
	return best
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (the exclusive method), so the spreads
// this tool prints are the ones the acceptance rule computes.
func quartiles(xs []float64) [3]float64 {
	if len(xs) < 2 {
		panic("quartiles needs two samples")
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	var q [3]float64
	m := len(s) + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - 4*j
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}

// spread summarises repeated runs of one metric.
type spread struct {
	Median, Q1, Q3 float64
	// IQRShare is (Q3-Q1)/median, the quantity bounded by the acceptance
	// rule; RangeShare is (max-min)/median.
	IQRShare, RangeShare float64
}

func spreadOf(xs []float64) spread {
	q := quartiles(xs)
	sp := spread{Median: q[1], Q1: q[0], Q3: q[2]}
	if sp.Median != 0 {
		sp.IQRShare = (q[2] - q[0]) / math.Abs(sp.Median)
		sp.RangeShare = (slices.Max(xs) - slices.Min(xs)) / math.Abs(sp.Median)
	}
	return sp
}
