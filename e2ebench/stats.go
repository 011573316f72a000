package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; xs need not be sorted. It returns 0 for no
// samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQuantile is the highest of p99, p95, p90 and p75 that still has at
// least ten samples above it, falling back to the median when the run is
// too short for any of them. Short runs therefore report a lower tail than
// long ones under the same metric name; the README records the sample
// counts per workload.
func tailQuantile(xs []float64) float64 {
	for _, q := range []float64{0.99, 0.95, 0.90, 0.75} {
		if float64(len(xs))*(1-q) >= 10-1e-9 {
			return quantile(xs, q)
		}
	}
	return median(xs)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
