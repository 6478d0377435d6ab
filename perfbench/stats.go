package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"time"
)

// samples is a set of recorded latencies. Percentiles are exact order
// statistics over every sample, never histogram buckets.
type samples []time.Duration

// median is the exact sample median (the mean of the two middle samples
// when n is even).
func (s samples) median() time.Duration {
	if len(s) == 0 {
		return 0
	}
	x := s.sorted()
	n := len(x)
	if n%2 == 1 {
		return x[n/2]
	}
	return (x[n/2-1] + x[n/2]) / 2
}

// tail returns the 99th percentile when at least ten samples lie beyond
// it, and otherwise the highest percentile that still has ten samples
// beyond it, together with the quantile it stands for. With eleven samples
// or fewer it falls back to the maximum.
func (s samples) tail() (time.Duration, float64) {
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	x := s.sorted()
	k := int(math.Ceil(0.99*float64(n))) - 1
	if lim := n - 11; k > lim {
		k = lim
	}
	if k < 0 {
		k = n - 1
	}
	return x[k], float64(k+1) / float64(n)
}

func (s samples) sorted() samples {
	x := append(samples(nil), s...)
	sort.Slice(x, func(i, j int) bool { return x[i] < x[j] })
	return x
}

func (s samples) total() time.Duration {
	var t time.Duration
	for _, d := range s {
		t += d
	}
	return t
}

// describe renders the median and tail with the sample count, the form
// every latency line of the report takes.
func (s samples) describe() string {
	t, q := s.tail()
	return fmt.Sprintf("p50 %.4f ms, p%.4g %.4f ms (n=%d)", ms(s.median()), 100*q, ms(t), len(s))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// median is the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	x := append([]float64(nil), xs...)
	sort.Float64s(x)
	n := len(x)
	if n%2 == 1 {
		return x[n/2]
	}
	return (x[n/2-1] + x[n/2]) / 2
}

// geomean is the geometric mean of positive ratios.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// heapAllocs reads the process's cumulative heap allocation count. It does
// not stop the world, so it is cheap enough to read around every compile.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// frac is a/b, or 0 when b is 0.
func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
