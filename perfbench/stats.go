package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a tail percentile before
// it is reported: with fewer, the "tail" is one or two outliers.
const minBeyond = 10

// median returns the middle of xs (the mean of the two middles for an
// even count). It does not modify xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the p-th percentile (0 < p < 100) of xs by linear
// interpolation between closest ranks. A tail percentile (p > 50) is
// refused unless at least minBeyond samples lie beyond it.
func percentile(xs []float64, p float64) (float64, error) {
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %g outside (0, 100)", p)
	}
	if len(xs) == 0 {
		return 0, fmt.Errorf("p%g of no samples", p)
	}
	if need := samplesFor(p); p > 50 && len(xs) < need {
		return 0, fmt.Errorf("p%g needs at least %d samples (%d beyond it), have %d", p, need, minBeyond, len(xs))
	}
	s := sorted(xs)
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	if lo+1 >= len(s) {
		return s[len(s)-1], nil
	}
	frac := rank - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo]), nil
}

// samplesFor is the smallest sample count with minBeyond samples beyond
// the p-th percentile: 1000 for p99, 100 for p90.
func samplesFor(p float64) int {
	return int(math.Ceil(float64(minBeyond)*100/(100-p) - 1e-9))
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) computes them (its default "exclusive"
// method), so the steadiness report matches an outside recomputation.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0]
	}
	m := n + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
