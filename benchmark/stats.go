package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is the sample floor of the reporter: a percentile is printed
// only when at least this many samples lie beyond it, so p95 needs 200
// samples and p99 needs 1000.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of the
// sorted samples, or an error when fewer than minBeyond samples lie beyond
// it.
func percentile(sorted []float64, p float64) (float64, error) {
	n := len(sorted)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if p > 50 && n-rank < minBeyond {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d of %d", p, minBeyond, n-rank, n)
	}
	if n == 0 {
		return 0, fmt.Errorf("p%g of no samples", p)
	}
	return sorted[rank-1], nil
}

// median returns the middle value of xs (mean of the two middle values for
// an even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles returns Q1 and Q3 by the exclusive method — the same numbers
// Python's statistics.quantiles(values, n=4) gives, which is what the
// acceptance check of the benchmark contract computes.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

func total[T int | float64](xs []T) (t T) {
	for _, x := range xs {
		t += x
	}
	return t
}

// millis converts to milliseconds, sorted ascending.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
