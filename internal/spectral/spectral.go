// Package spectral detects an application's periodic structure without
// iteration markers, from the signal perspective the same research group
// used in its companion trace-spectral-analysis work: the trace is
// flattened into a regularly-sampled "useful computation density" signal
// (fraction of ranks computing at each time bin), whose autocorrelation
// peaks at multiples of the iteration period. Marker-free period detection
// lets the folding pipeline segment steady-state iterations in traces of
// applications that were never annotated.
package spectral

import (
	"fmt"
	"math"

	"repro/internal/burst"
	"repro/internal/trace"
)

// Signal is a regularly-sampled scalar time series over a trace.
type Signal struct {
	// Bin is the sampling step (ns per bin).
	Bin trace.Time
	// Values holds one scalar per bin.
	Values []float64
}

// ComputeDensity builds the useful-computation-density signal: for each
// time bin, the fraction of rank-time spent inside computation bursts.
// bins selects the resolution (default 4096).
func ComputeDensity(tr *trace.Trace, bursts []burst.Burst, bins int) (*Signal, error) {
	if tr.Meta.Duration <= 0 {
		return nil, fmt.Errorf("spectral: empty trace")
	}
	if bins <= 0 {
		bins = 4096
	}
	binW := float64(tr.Meta.Duration) / float64(bins)
	if binW < 1 {
		bins = int(tr.Meta.Duration)
		binW = 1
	}
	vals := make([]float64, bins)
	for i := range bursts {
		b := &bursts[i]
		lo := float64(b.Start) / binW
		hi := float64(b.End) / binW
		first := int(lo)
		last := int(hi)
		if first >= bins {
			continue
		}
		if last >= bins {
			last = bins - 1
		}
		if first == last {
			vals[first] += hi - lo
			continue
		}
		vals[first] += float64(first+1) - lo
		for k := first + 1; k < last; k++ {
			vals[k]++
		}
		vals[last] += hi - float64(last)
	}
	// Normalize by rank count: 1.0 = all ranks computing.
	for i := range vals {
		vals[i] /= float64(tr.Meta.Ranks)
	}
	return &Signal{Bin: trace.Time(binW), Values: vals}, nil
}

// Autocorrelation returns the normalized autocorrelation of the signal for
// lags 1..maxLag (index 0 of the result is lag 1). Values are in [-1, 1].
func (s *Signal) Autocorrelation(maxLag int) []float64 {
	n := len(s.Values)
	if maxLag >= n {
		maxLag = n - 1
	}
	if maxLag < 1 {
		return nil
	}
	mean := 0.0
	for _, v := range s.Values {
		mean += v
	}
	mean /= float64(n)
	var denom float64
	for _, v := range s.Values {
		d := v - mean
		denom += d * d
	}
	out := make([]float64, maxLag)
	if denom == 0 {
		return out
	}
	for lag := 1; lag <= maxLag; lag++ {
		var num float64
		for i := 0; i+lag < n; i++ {
			num += (s.Values[i] - mean) * (s.Values[i+lag] - mean)
		}
		out[lag-1] = num / denom
	}
	return out
}

// Period estimates the dominant period of the signal: the first local
// maximum of the autocorrelation exceeding the threshold (default 0.3),
// refined by preferring the highest peak among its small multiples. It
// returns 0 when no periodicity is found.
func (s *Signal) Period(threshold float64) trace.Time {
	if threshold == 0 {
		threshold = 0.3
	}
	ac := s.Autocorrelation(len(s.Values) / 2)
	if len(ac) < 3 {
		return 0
	}
	best := 0
	for lag := 1; lag < len(ac)-1; lag++ {
		v := ac[lag]
		if v >= threshold && v >= ac[lag-1] && v >= ac[lag+1] {
			best = lag + 1 // ac index is lag-1
			break
		}
	}
	if best == 0 {
		return 0
	}
	// The first peak can be a harmonic when the signal has strong
	// sub-structure; check whether half the detected lag is also a peak of
	// comparable height (then the true period is the smaller one) — and
	// conversely prefer 2× when it is distinctly stronger.
	peak := func(lag int) float64 {
		if lag-1 < 0 || lag-1 >= len(ac) {
			return -1
		}
		return ac[lag-1]
	}
	if h := best / 2; h >= 2 && peak(h) > 0.9*peak(best) && peak(h) >= threshold {
		best = h
	} else if d := best * 2; d-1 < len(ac) && peak(d) > 1.1*peak(best) {
		best = d
	}
	return trace.Time(best) * s.Bin
}

// DetectIterations estimates the iteration period of a trace without
// markers: build the compute-density signal from its bursts and find the
// autocorrelation period. It also returns the implied iteration count.
func DetectIterations(tr *trace.Trace, bursts []burst.Burst) (period trace.Time, count int, err error) {
	sig, err := ComputeDensity(tr, bursts, 4096)
	if err != nil {
		return 0, 0, err
	}
	period = sig.Period(0)
	if period <= 0 {
		return 0, 0, nil
	}
	count = int(math.Round(float64(tr.Meta.Duration) / float64(period)))
	return period, count, nil
}
