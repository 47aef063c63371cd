package main

import (
	"math"
	"testing"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		p    float64
		need int
	}{{99, 1000}, {90, 100}, {95, 200}, {99.9, 10000}} {
		if got := samplesFor(tc.p); got != tc.need {
			t.Errorf("samplesFor(%g) = %d, want %d", tc.p, got, tc.need)
		}
		xs := make([]float64, tc.need-1)
		for i := range xs {
			xs[i] = float64(i)
		}
		if _, err := percentile(xs, tc.p); err == nil {
			t.Errorf("p%g of %d samples: want an error, fewer than %d lie beyond it", tc.p, len(xs), minBeyond)
		}
		xs = append(xs, float64(len(xs)))
		if _, err := percentile(xs, tc.p); err != nil {
			t.Errorf("p%g of %d samples: %v", tc.p, len(xs), err)
		}
	}
	if v, err := percentile([]float64{7}, 50); err != nil || v != 7 {
		t.Errorf("median of one sample = %v, %v; want 7", v, err)
	}
	for _, p := range []float64{0, 100, -1} {
		if _, err := percentile([]float64{1, 2}, p); err == nil {
			t.Errorf("p%g: want an error", p)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := make([]float64, 1001)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i) // unsorted input
	}
	for _, tc := range []struct{ p, want float64 }{{50, 500}, {90, 900}, {99, 990}} {
		if got, err := percentile(xs, tc.p); err != nil || math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("p%g = %v, %v; want %v", tc.p, got, err, tc.want)
		}
	}
	if xs[0] != 1000 {
		t.Error("percentile reordered its input")
	}
}

// The steadiness report must agree with Python's
// statistics.quantiles(xs, n=4); the expectations are its output.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 4, 1.5, 5, 9, 2.6}, 1.5, 5},
		{[]float64{2, 7}, 0.75, 8.25},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestHostScale(t *testing.T) {
	slow := refNominal / 4 // a host at a quarter of the reference speed
	for _, tc := range []struct {
		name string
		want float64
	}{
		{"llbp_branches_per_s", 4},    // rate × 4
		{"matrix_wall_s", 0.25},       // time × 1/4
		{"push_verdict_p50_ms", 0.25}, // time × 1/4
		{"tsl_branches_per_s", 4},     // rate × 4
		{"peak_rss_mb", 1},            // not scaled
	} {
		if got := hostScale(tc.name, slow); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("hostScale(%s) = %v, want %v", tc.name, got, tc.want)
		}
		if got := hostScale(tc.name, refNominal); got != 1 {
			t.Errorf("hostScale(%s) on the reference host = %v, want 1", tc.name, got)
		}
	}
}
