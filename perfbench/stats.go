package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile: a
// tail figure resting on fewer observations is noise, so the reported
// percentile drops to the highest one the sample supports.
const minTail = 10

// failedUS stands in for a failed or refused op in a latency
// distribution: it misses every limit, and JSON has no infinity.
const failedUS = 1e9

// tailQuantile returns the highest quantile at most want that leaves at
// least minTail of n samples beyond it.
func tailQuantile(n int, want float64) float64 {
	if n <= 0 {
		return want
	}
	q := 1 - float64(minTail)/float64(n)
	if q > want {
		q = want
	}
	if q < 0 {
		q = 0
	}
	return q
}

// quantile is the nearest-rank quantile of an ascending slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	k := int(math.Ceil(q*float64(len(sorted)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(sorted) {
		k = len(sorted) - 1
	}
	return sorted[k]
}

// dist collects one latency distribution in microseconds. A failed op
// is recorded as failedUS, so failures push every percentile up instead
// of vanishing from the sample.
type dist struct {
	xs []float64
}

func (d *dist) add(us float64) { d.xs = append(d.xs, us) }

func (d *dist) fail() { d.xs = append(d.xs, failedUS) }

func (d *dist) n() int { return len(d.xs) }

// pct returns the median and the tail percentile nearest want (0.99)
// that the sample supports.
func (d *dist) pct(want float64) (p50, tail float64) {
	if len(d.xs) == 0 {
		return math.NaN(), math.NaN()
	}
	s := append([]float64(nil), d.xs...)
	sort.Float64s(s)
	return quantile(s, 0.5), quantile(s, tailQuantile(len(s), want))
}

// median of a sample, NaN when empty.
func median(xs []float64) float64 {
	d := dist{xs: xs}
	p50, _ := d.pct(0.5)
	return p50
}
