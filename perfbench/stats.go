package main

import (
	"math"
	"slices"
	"time"
)

// dist is one latency distribution: every sample of one operation type in
// one pass, in the unit its metrics are reported in.
type dist struct {
	unit  string
	scale time.Duration // one unit, e.g. time.Millisecond for "ms"
	xs    []float64
}

func newDist(unit string) *dist {
	scale := map[string]time.Duration{"ms": time.Millisecond, "us": time.Microsecond, "ns": time.Nanosecond}[unit]
	if scale == 0 {
		panic("perfbench: unknown latency unit " + unit)
	}
	return &dist{unit: unit, scale: scale}
}

func (d *dist) add(x time.Duration) { d.xs = append(d.xs, float64(x)/float64(d.scale)) }

// percentile returns the nearest-rank p-th percentile of xs (0 < p ≤ 100):
// the smallest sample such that at least p% of the samples are at or below
// it. beyond is the number of samples ranked above it — a percentile with
// fewer than ten samples beyond it rests on too few slow cases to repeat.
// ok is false when xs is empty.
func percentile(xs []float64, p float64) (v float64, beyond int, ok bool) {
	if len(xs) == 0 || p <= 0 || p > 100 {
		return 0, 0, false
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	rank = max(1, min(rank, len(s)))
	return s[rank-1], len(s) - rank, true
}

// tail estimates the p-th percentile of a time-ordered sample as the
// median, over consecutive chunks just large enough to hold ten samples
// beyond the percentile, of each chunk's percentile — the tail of a
// typical stretch of requests. Pooling every sample would let one burst
// of machine noise set the whole run's tail. With fewer samples than two
// chunks it is the pooled percentile. chunks is the number of chunks used;
// samples after the last whole chunk count only in the pooled case.
func tail(xs []float64, p float64) (v float64, chunks int, ok bool) {
	size := int(math.Round(1000 / (100 - p)))
	if len(xs) < 2*size {
		v, _, ok = percentile(xs, p)
		return v, 1, ok
	}
	var per []float64
	for i := 0; i+size <= len(xs); i += size {
		c, _, _ := percentile(xs[i:i+size], p)
		per = append(per, c)
	}
	return median(per), len(per), true
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ratio returns num/den, or 0 when den is 0: a layer that did no work
// reports zero rather than NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
