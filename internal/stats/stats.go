// Package stats provides the moments the analysis reports: the mean and
// sample variance of a slice, and the same accumulated online.
//
// No function modifies its input.
package stats

import "math"

// Mean returns the arithmetic mean of xs, or 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs (denominator n-1).
// It returns 0 when len(xs) < 2.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n-1)
}

// StdDev returns the unbiased sample standard deviation of xs.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// Online accumulates count, mean and variance incrementally using
// Welford's algorithm. The zero value is ready to use.
type Online struct {
	n    int64
	mean float64
	m2   float64
}

// Add incorporates x into the accumulator.
func (o *Online) Add(x float64) {
	o.n++
	delta := x - o.mean
	o.mean += delta / float64(o.n)
	o.m2 += delta * (x - o.mean)
}

// N returns the number of observations added.
func (o *Online) N() int64 { return o.n }

// Mean returns the running mean, or 0 before any observation.
func (o *Online) Mean() float64 { return o.mean }

// Variance returns the running unbiased sample variance, or 0 when n < 2.
func (o *Online) Variance() float64 {
	if o.n < 2 {
		return 0
	}
	return o.m2 / float64(o.n-1)
}

// StdDev returns the running sample standard deviation.
func (o *Online) StdDev() float64 { return math.Sqrt(o.Variance()) }
