// Package counters models synthetic hardware performance counters in the
// style of PAPI presets. A counter is a monotonically increasing per-thread
// accumulator (e.g. completed instructions). The package also provides
// Shape, an analytic description of how a counter evolves *inside* one
// instance of a computation phase — the ground truth that the folding
// mechanism reconstructs from coarse samples.
package counters

import "fmt"

// Counter identifies one synthetic hardware counter. The set mirrors the
// PAPI presets the original tooling (Extrae + PAPI) collects by default.
type Counter uint8

// The counters tracked by the simulator.
const (
	TotIns Counter = iota // PAPI_TOT_INS: completed instructions
	TotCyc                // PAPI_TOT_CYC: total cycles
	L1DCM                 // PAPI_L1_DCM: level-1 data-cache misses
	L2DCM                 // PAPI_L2_DCM: level-2 data-cache misses
	FPOps                 // PAPI_FP_OPS: floating-point operations
	NumCounters
)

var counterNames = [NumCounters]string{
	TotIns: "PAPI_TOT_INS",
	TotCyc: "PAPI_TOT_CYC",
	L1DCM:  "PAPI_L1_DCM",
	L2DCM:  "PAPI_L2_DCM",
	FPOps:  "PAPI_FP_OPS",
}

// String returns the PAPI-style name of the counter.
func (c Counter) String() string {
	if c < NumCounters {
		return counterNames[c]
	}
	return fmt.Sprintf("PAPI_UNKNOWN_%d", uint8(c))
}

// MarshalText renders the counter as its PAPI-style name, so JSON maps
// keyed by Counter (the Report's per-counter folds) use readable keys
// like "PAPI_TOT_INS" instead of raw enum numbers.
func (c Counter) MarshalText() ([]byte, error) {
	return []byte(c.String()), nil
}

// UnmarshalText parses a PAPI-style counter name, inverting MarshalText.
func (c *Counter) UnmarshalText(text []byte) error {
	v, err := ParseCounter(string(text))
	if err != nil {
		return err
	}
	*c = v
	return nil
}

// ParseCounter resolves a PAPI-style name to a Counter.
func ParseCounter(name string) (Counter, error) {
	for c, n := range counterNames {
		if n == name {
			return Counter(c), nil
		}
	}
	return 0, fmt.Errorf("counters: unknown counter %q", name)
}

// Values is a snapshot of all counters at one point in time. Counters only
// ever increase during execution, so differences between two snapshots taken
// on the same thread are non-negative.
type Values [NumCounters]int64

// Sub returns v - w component-wise.
func (v Values) Sub(w Values) Values {
	var r Values
	for i := range v {
		r[i] = v[i] - w[i]
	}
	return r
}

// IPC returns instructions per cycle for the snapshot (or delta), or 0 when
// no cycles are recorded.
func (v Values) IPC() float64 {
	if v[TotCyc] == 0 {
		return 0
	}
	return float64(v[TotIns]) / float64(v[TotCyc])
}

// String formats the snapshot as name=value pairs.
func (v Values) String() string {
	s := ""
	for c := Counter(0); c < NumCounters; c++ {
		if c > 0 {
			s += " "
		}
		s += fmt.Sprintf("%s=%d", c, v[c])
	}
	return s
}
