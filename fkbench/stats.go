package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of sorted xs and
// whether at least minBeyond samples lie above its rank.
func percentile(sorted []float64, p float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n-rank >= minBeyond
}

func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metric is one reported value with its unit and, for a timing, the
// sample count it rests on.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// setPct records a latency percentile of xs. A percentile with fewer than
// minBeyond samples beyond it is an error unless optional, in which case
// it reads 0 with its count shown.
func (m metrics) setPct(name string, xs []float64, p float64, optional bool) error {
	s := sorted(xs)
	v, ok := percentile(s, p)
	if !ok {
		if !optional {
			return fmt.Errorf("%s: %d samples leave fewer than %d beyond p%g", name, len(s), minBeyond, p)
		}
		v = 0
	}
	m[name] = metric{Value: v, Unit: "ms", n: len(s)}
	return nil
}
