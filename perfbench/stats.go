package main

import (
	"fmt"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between the closest ranks, the estimator numpy and
// most latency tools default to. xs is not modified; an empty slice
// yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median is the 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// tailLevels are the percentiles a latency tail may be reported at, in
// per-mille and highest first, so the selection stays in integers.
var tailLevels = []int{999, 990, 900, 500}

// tailPercentile picks the highest tail level (in percent) that leaves
// at least ten of n samples strictly beyond its rank: p90 needs 100
// samples, p99 needs 1000. ok is false when n is too small even for the
// median (fewer than 20 samples).
func tailPercentile(n int) (p float64, ok bool) {
	for _, pm := range tailLevels {
		rank := (pm*n + 999) / 1000 // ceil(pm/1000 · n)
		if n-rank >= 10 {
			return float64(pm) / 10, true
		}
	}
	return 0, false
}

// nameRE is the shape every metric name must have: a letter or digit,
// then letters, digits, '_', '.' or '-', at most 64 in all.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// unitRE bounds a unit string the same way ("ms", "1/s", "%").
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// validName reports whether s is a well-formed metric name.
func validName(s string) bool { return nameRE.MatchString(s) }

// validUnit reports whether s is a well-formed metric unit.
func validUnit(s string) bool { return unitRE.MatchString(s) }

// clearRSSPeak resets the kernel's resident-set high-water mark (VmHWM)
// to the current RSS, so a later peakRSSMB covers only what ran after
// this call.
func clearRSSPeak() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the resident-set high-water mark in MB (10^6 bytes).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		f := strings.Fields(strings.TrimPrefix(line, "VmHWM:"))
		if len(f) != 2 || f[1] != "kB" {
			break
		}
		kb, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
		}
		return kb * 1024 / 1e6, nil
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
