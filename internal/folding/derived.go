package folding

import (
	"encoding/json"
	"fmt"
	"math"
)

// RatioCurve derives the pointwise ratio of two folded rates on their
// common grid — the folded generalization of derived metrics like MKI
// (misses per kilo-instruction, scale = 1000) or instructions-per-cycle.
// Grid points where the denominator rate is (near) zero yield NaN, which
// plotting layers skip. Both results must come from the same phase (same
// grid resolution).
func RatioCurve(num, den *Result, scale float64) ([]float64, error) {
	if len(num.Grid) != len(den.Grid) {
		return nil, fmt.Errorf("folding: ratio of incompatible grids (%d vs %d)", len(num.Grid), len(den.Grid))
	}
	// A well-formed Result carries one Rate value per grid point; a
	// malformed one (hand-built, or truncated by a serialization bug) must
	// error here rather than panic on the indexing below.
	if len(num.Rate) != len(num.Grid) {
		return nil, fmt.Errorf("folding: malformed numerator: %d rate values for %d grid points", len(num.Rate), len(num.Grid))
	}
	if len(den.Rate) != len(den.Grid) {
		return nil, fmt.Errorf("folding: malformed denominator: %d rate values for %d grid points", len(den.Rate), len(den.Grid))
	}
	if scale == 0 {
		scale = 1
	}
	out := make([]float64, len(num.Grid))
	// Threshold: denominators below 1% of the mean rate are unreliable.
	floor := 0.01 * den.MeanTotal / den.MeanDuration
	for i := range out {
		d := den.Rate[i]
		if d <= floor {
			out[i] = math.NaN()
			continue
		}
		out[i] = scale * num.Rate[i] / d
	}
	return out, nil
}

// Bands is a per-grid-point standard-error band (Result.StdErr). NaN
// marks a cell with fewer than two folded points; JSON carries it as
// null, since encoding/json rejects NaN, and null decodes back to NaN.
type Bands []float64

// MarshalJSON encodes the band as a JSON array of numbers, NaN cells as
// null.
func (b Bands) MarshalJSON() ([]byte, error) {
	if b == nil {
		return []byte("null"), nil
	}
	cells := make([]*float64, len(b))
	for i := range b {
		if !math.IsNaN(b[i]) {
			cells[i] = &b[i]
		}
	}
	return json.Marshal(cells)
}

// UnmarshalJSON decodes what MarshalJSON encodes: null cells become NaN.
func (b *Bands) UnmarshalJSON(data []byte) error {
	var cells []*float64
	if err := json.Unmarshal(data, &cells); err != nil {
		return err
	}
	if cells == nil {
		*b = nil
		return nil
	}
	out := make(Bands, len(cells))
	for i, c := range cells {
		out[i] = math.NaN()
		if c != nil {
			out[i] = *c
		}
	}
	*b = out
	return nil
}

// ComputeBands fills the result's per-grid-point standard error from the
// folded point cloud: for each grid cell, the standard deviation of the
// points' residuals against the fitted curve divided by √n. Cells with
// fewer than two points carry NaN. Bands quantify where the
// reconstruction is well supported — sparse regions of the synthetic
// instance deserve wider error bars in plots. Every batch fold calls it
// after the fit.
func (r *Result) ComputeBands() {
	n := len(r.Grid)
	if n < 2 {
		return
	}
	counts := make([]int, n)
	sums := make([]float64, n)
	sq := make([]float64, n)
	for _, p := range r.Points {
		// Locate the grid cell and the fitted value by linear
		// interpolation of the cumulative curve.
		pos := p.X * float64(n-1)
		i := int(pos)
		if i >= n-1 {
			i = n - 2
		}
		frac := pos - float64(i)
		fitted := r.Cumulative[i]*(1-frac) + r.Cumulative[i+1]*frac
		res := p.Y - fitted
		cell := i
		if frac > 0.5 {
			cell = i + 1
		}
		counts[cell]++
		sums[cell] += res
		sq[cell] += res * res
	}
	r.StdErr = make([]float64, n)
	for i := range r.StdErr {
		if counts[i] < 2 {
			r.StdErr[i] = math.NaN()
			continue
		}
		m := sums[i] / float64(counts[i])
		v := sq[i]/float64(counts[i]) - m*m
		if v < 0 {
			v = 0
		}
		r.StdErr[i] = math.Sqrt(v) / math.Sqrt(float64(counts[i]))
	}
}
