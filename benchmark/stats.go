package main

import (
	"math"
	"sort"
)

// tailCandidates are the tail percentiles the ledger may report, highest
// first.
var tailCandidates = []float64{0.99, 0.95, 0.90, 0.75}

// tailPercentile returns the highest candidate percentile, capped at want,
// that still has at least ten samples beyond it among n — the highest tail a
// sample of that size supports.  It falls back to the median.
func tailPercentile(n int, want float64) float64 {
	for _, q := range tailCandidates {
		if q <= want && n-int(math.Ceil(q*float64(n)-1e-9)) >= 10 {
			return q
		}
	}
	return 0.5
}

// quantile returns the q-quantile of sorted by nearest rank, NaN when empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// quartiles returns the first, second and third quartile the way Python's
// statistics.quantiles(v, n=4) does (the "exclusive" method), which is what
// the acceptance procedure uses for run-to-run spread.  It needs two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// ratio is a/b, 0 when b is 0 — layer ratios over a window that saw no work.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
