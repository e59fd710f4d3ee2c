package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie strictly above a percentile's
// rank before it is reported: a p99 over fewer than 1000 samples would
// rest on a handful of outliers.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of sorted
// and whether at least minBeyond samples lie beyond that rank. The
// nearest rank of q over n samples is ceil(q·n), 1-based.
func percentile(sorted []float64, q float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n-rank >= minBeyond
}

// dist is a sorted sample of one quantity, in the unit it is reported in.
type dist []float64

func newDist(xs []float64) dist {
	d := append(dist(nil), xs...)
	sort.Float64s(d)
	return d
}

// msDist converts durations to a millisecond distribution.
func msDist(ds []time.Duration) dist {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(time.Millisecond)
	}
	return newDist(xs)
}

// p returns the q-quantile, or 0 with ok=false when the sample is too
// small for it to be meaningful.
func (d dist) p(q float64) (float64, bool) { return percentile(d, q) }

// median of an unsorted slice (the setup repetitions).
func median(xs []float64) float64 {
	v, _ := newDist(xs).p(0.5)
	return v
}

// ratio returns num/den, or 0 when den is 0 (a counter the workload
// never moves).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
