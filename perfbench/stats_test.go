package main

import "testing"

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 50}, {0.9, 90}, {0.01, 1}, {1, 100}, {0.505, 51}} {
		if got, _ := percentile(xs, c.q); got != c.want {
			t.Errorf("q=%g: got %g, want %g", c.q, got, c.want)
		}
	}
}

func TestPercentileTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n  int
		q  float64
		ok bool
	}{
		{1000, 0.99, true}, // rank 990, 10 beyond
		{999, 0.99, false}, // rank 990, 9 beyond
		{1100, 0.99, true}, // rank 1089, 11 beyond
		{20, 0.5, true},    // rank 10, 10 beyond
		{19, 0.5, false},   // rank 10, 9 beyond
		{0, 0.5, false},    // no samples
		{100000, 1, false}, // the maximum has nothing beyond it
	} {
		xs := make([]float64, c.n)
		if _, ok := percentile(xs, c.q); ok != c.ok {
			t.Errorf("n=%d q=%g: reportable=%v, want %v", c.n, c.q, ok, c.ok)
		}
	}
}

func TestMedianOfSetups(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %g, want 2", got)
	}
}
