// Package fit provides the curve-fitting primitives the folding mechanism
// is built on: weighted isotonic regression (pool-adjacent-violators),
// monotone cubic Hermite interpolation (Fritsch–Carlson / PCHIP),
// Nadaraya–Watson kernel smoothing, equal-width binning, and optimal
// piecewise-linear segmentation by dynamic programming.
//
// All routines operate on plain float64 slices so they can be reused
// outside the folding pipeline (e.g. by reports and ablation benchmarks).
package fit

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Point is a two-dimensional weighted observation.
type Point struct {
	X, Y float64
	W    float64 // weight; 0 is treated as 1 by constructors that accept raw points
}

// ErrTooFewPoints is returned when an operation needs more data.
var ErrTooFewPoints = errors.New("fit: too few points")

// ---------------------------------------------------------------------------
// Isotonic regression

// Isotonic computes the weighted least-squares non-decreasing fit to the
// point sequence (pool-adjacent-violators algorithm). Points must already
// be sorted by X; the result has one fitted value per input point, in
// order. Weights ≤ 0 are treated as 1.
func Isotonic(pts []Point) []float64 {
	n := len(pts)
	if n == 0 {
		return nil
	}
	// Blocks are represented by (mean, weight, count) and merged backwards
	// whenever a new block violates monotonicity.
	type block struct {
		mean  float64
		w     float64
		count int
	}
	blocks := make([]block, 0, n)
	for _, p := range pts {
		w := p.W
		if w <= 0 {
			w = 1
		}
		blocks = append(blocks, block{mean: p.Y, w: w, count: 1})
		for len(blocks) >= 2 {
			last := len(blocks) - 1
			if blocks[last-1].mean <= blocks[last].mean {
				break
			}
			a, b := blocks[last-1], blocks[last]
			merged := block{
				mean:  (a.mean*a.w + b.mean*b.w) / (a.w + b.w),
				w:     a.w + b.w,
				count: a.count + b.count,
			}
			blocks = blocks[:last-1]
			blocks = append(blocks, merged)
		}
	}
	out := make([]float64, 0, n)
	for _, b := range blocks {
		for i := 0; i < b.count; i++ {
			out = append(out, b.mean)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Monotone cubic Hermite interpolation (Fritsch–Carlson)

// PCHIP is a C¹ piecewise-cubic interpolant that preserves monotonicity of
// the data: if ys is non-decreasing, the interpolant is non-decreasing
// everywhere (Fritsch & Carlson 1980).
type PCHIP struct {
	xs, ys, ms []float64 // knots, values, endpoint slopes
}

// NewPCHIP constructs the interpolant. xs must be strictly increasing and
// len(xs) == len(ys) >= 2.
func NewPCHIP(xs, ys []float64) (*PCHIP, error) {
	n := len(xs)
	if n < 2 {
		return nil, fmt.Errorf("%w: need >= 2 knots, got %d", ErrTooFewPoints, n)
	}
	if len(ys) != n {
		return nil, fmt.Errorf("fit: xs/ys length mismatch %d != %d", n, len(ys))
	}
	for i := 1; i < n; i++ {
		if xs[i] <= xs[i-1] {
			return nil, fmt.Errorf("fit: xs not strictly increasing at %d (%g <= %g)", i, xs[i], xs[i-1])
		}
	}
	p := &PCHIP{
		xs: append([]float64(nil), xs...),
		ys: append([]float64(nil), ys...),
		ms: make([]float64, n),
	}
	// Secant slopes.
	d := make([]float64, n-1)
	for i := 0; i < n-1; i++ {
		d[i] = (ys[i+1] - ys[i]) / (xs[i+1] - xs[i])
	}
	// Initial tangents: three-point weighted harmonic mean (Fritsch-Butland
	// variant), which guarantees monotonicity directly.
	p.ms[0] = d[0]
	p.ms[n-1] = d[n-2]
	for i := 1; i < n-1; i++ {
		if d[i-1]*d[i] <= 0 {
			p.ms[i] = 0
			continue
		}
		h0 := xs[i] - xs[i-1]
		h1 := xs[i+1] - xs[i]
		w1 := 2*h1 + h0
		w2 := h1 + 2*h0
		p.ms[i] = (w1 + w2) / (w1/d[i-1] + w2/d[i])
	}
	// Fritsch–Carlson limiter for the endpoints and any residual violation.
	for i := 0; i < n-1; i++ {
		if d[i] == 0 {
			p.ms[i] = 0
			p.ms[i+1] = 0
			continue
		}
		a := p.ms[i] / d[i]
		b := p.ms[i+1] / d[i]
		if a < 0 {
			p.ms[i] = 0
			a = 0
		}
		if b < 0 {
			p.ms[i+1] = 0
			b = 0
		}
		if s := a*a + b*b; s > 9 {
			tau := 3 / math.Sqrt(s)
			p.ms[i] = tau * a * d[i]
			p.ms[i+1] = tau * b * d[i]
		}
	}
	return p, nil
}

// segment finds the knot interval containing x (clamped to the domain).
func (p *PCHIP) segment(x float64) int {
	n := len(p.xs)
	if x <= p.xs[0] {
		return 0
	}
	if x >= p.xs[n-1] {
		return n - 2
	}
	i := sort.SearchFloat64s(p.xs, x)
	// SearchFloat64s returns the first index with xs[i] >= x.
	if p.xs[i] == x {
		if i == n-1 {
			return n - 2
		}
		return i
	}
	return i - 1
}

// Eval evaluates the interpolant at x (clamped to the knot domain).
func (p *PCHIP) Eval(x float64) float64 {
	i := p.segment(x)
	h := p.xs[i+1] - p.xs[i]
	t := (x - p.xs[i]) / h
	if t < 0 {
		t = 0
	}
	if t > 1 {
		t = 1
	}
	h00 := (1 + 2*t) * (1 - t) * (1 - t)
	h10 := t * (1 - t) * (1 - t)
	h01 := t * t * (3 - 2*t)
	h11 := t * t * (t - 1)
	return h00*p.ys[i] + h10*h*p.ms[i] + h01*p.ys[i+1] + h11*h*p.ms[i+1]
}

// Deriv evaluates the first derivative of the interpolant at x.
func (p *PCHIP) Deriv(x float64) float64 {
	i := p.segment(x)
	h := p.xs[i+1] - p.xs[i]
	t := (x - p.xs[i]) / h
	if t < 0 {
		t = 0
	}
	if t > 1 {
		t = 1
	}
	dh00 := (6*t*t - 6*t) / h
	dh10 := 3*t*t - 4*t + 1
	dh01 := (6*t - 6*t*t) / h
	dh11 := 3*t*t - 2*t
	return dh00*p.ys[i] + dh10*p.ms[i] + dh01*p.ys[i+1] + dh11*p.ms[i+1]
}

// ---------------------------------------------------------------------------
// Kernel smoothing

// KernelSmooth computes the Nadaraya–Watson estimate of E[Y|X=g] at each
// grid point g using a Gaussian kernel with bandwidth h. Points need not be
// sorted. Grid points with no effective mass (all kernel weights underflow)
// fall back to the nearest point's Y. Weights ≤ 0 are treated as 1.
func KernelSmooth(pts []Point, h float64, grid []float64) []float64 {
	if h <= 0 {
		panic(fmt.Sprintf("fit: non-positive bandwidth %g", h))
	}
	out := make([]float64, len(grid))
	if len(pts) == 0 {
		return out
	}
	for gi, g := range grid {
		var num, den float64
		for _, p := range pts {
			w := p.W
			if w <= 0 {
				w = 1
			}
			z := (p.X - g) / h
			k := math.Exp(-0.5*z*z) * w
			num += k * p.Y
			den += k
		}
		if den > 0 {
			out[gi] = num / den
			continue
		}
		// Fallback: nearest neighbour.
		best := 0
		bd := math.Abs(pts[0].X - g)
		for i := 1; i < len(pts); i++ {
			if d := math.Abs(pts[i].X - g); d < bd {
				bd, best = d, i
			}
		}
		out[gi] = pts[best].Y
	}
	return out
}

// ---------------------------------------------------------------------------
// Binning

// BinIso averages points into n equal-width bins over [lo, hi], with the
// Y values supplied as a separate column: point i contributes
// (pts[i].X, yCol[i], pts[i].W). It returns the weighted mean X and
// weighted mean Y of every non-empty bin, in order. This is the shape the
// folding pipeline's isotonic stage produces, so no second point slice
// is built just to swap the Y values. Anchoring the knot at the points'
// mean X (rather than the bin center) keeps the knot on the underlying
// curve: for points on y = f(x), the pair (E[x], E[y]) is first-order
// consistent with f, whereas (center, E[y]) introduces slope jitter when
// points cluster inside a bin. Points outside [lo, hi] are clamped into
// the boundary bins.
func BinIso(pts []Point, yCol []float64, n int, lo, hi float64) (xs, ys []float64) {
	if len(yCol) != len(pts) {
		panic(fmt.Sprintf("fit: BinIso column length %d != %d points", len(yCol), len(pts)))
	}
	if n < 1 || hi <= lo {
		panic(fmt.Sprintf("fit: invalid binning (n=%d, range [%g,%g])", n, lo, hi))
	}
	sumW := make([]float64, n)
	sumWX := make([]float64, n)
	sumWY := make([]float64, n)
	width := (hi - lo) / float64(n)
	for i := range pts {
		p := &pts[i]
		b := int((p.X - lo) / width)
		if b < 0 {
			b = 0
		}
		if b >= n {
			b = n - 1
		}
		w := p.W
		if w <= 0 {
			w = 1
		}
		cx := p.X
		if cx < lo {
			cx = lo
		}
		if cx > hi {
			cx = hi
		}
		sumW[b] += w
		sumWX[b] += w * cx
		sumWY[b] += w * yCol[i]
	}
	prevX := math.Inf(-1)
	for b := 0; b < n; b++ {
		if sumW[b] == 0 {
			continue
		}
		x := sumWX[b] / sumW[b]
		// Clamped out-of-range points can place a boundary bin's mean X
		// outside its cell; keep the knot sequence strictly increasing.
		if x <= prevX {
			x = math.Nextafter(prevX, math.Inf(1))
		}
		prevX = x
		xs = append(xs, x)
		ys = append(ys, sumWY[b]/sumW[b])
	}
	return xs, ys
}

// ---------------------------------------------------------------------------
// Piecewise-linear segmentation

// Segment finds breakpoints that partition the series (xs, ys) into at most
// maxSegs contiguous segments, each approximated by its own least-squares
// line, minimizing total squared error + penalty per extra segment. It
// returns the indices (into xs) where new segments begin, excluding 0 — an
// empty result means the series is best described by a single line.
//
// The dynamic program is O(n²·maxSegs); intended for the ~100-300 point
// grids the folding pipeline produces, not raw sample clouds.
func Segment(xs, ys []float64, maxSegs int, penalty float64) []int {
	n := len(xs)
	if n != len(ys) {
		panic(fmt.Sprintf("fit: xs/ys length mismatch %d != %d", n, len(ys)))
	}
	if maxSegs < 1 {
		maxSegs = 1
	}
	if n < 4 || maxSegs == 1 {
		return nil
	}
	if maxSegs > n {
		maxSegs = n
	}

	// Prefix sums for O(1) linear-regression SSE on any interval.
	sx := make([]float64, n+1)
	sy := make([]float64, n+1)
	sxx := make([]float64, n+1)
	sxy := make([]float64, n+1)
	syy := make([]float64, n+1)
	for i := 0; i < n; i++ {
		sx[i+1] = sx[i] + xs[i]
		sy[i+1] = sy[i] + ys[i]
		sxx[i+1] = sxx[i] + xs[i]*xs[i]
		sxy[i+1] = sxy[i] + xs[i]*ys[i]
		syy[i+1] = syy[i] + ys[i]*ys[i]
	}
	// sse returns the least-squares residual of a line fitted to points
	// [i, j] inclusive.
	sse := func(i, j int) float64 {
		m := float64(j - i + 1)
		Sx := sx[j+1] - sx[i]
		Sy := sy[j+1] - sy[i]
		Sxx := sxx[j+1] - sxx[i]
		Sxy := sxy[j+1] - sxy[i]
		Syy := syy[j+1] - syy[i]
		det := m*Sxx - Sx*Sx
		if det <= 1e-12 {
			// Degenerate (vertical) cluster of points: best fit is the mean.
			return Syy - Sy*Sy/m
		}
		beta := (m*Sxy - Sx*Sy) / det
		alpha := (Sy - beta*Sx) / m
		r := Syy - 2*alpha*Sy - 2*beta*Sxy + m*alpha*alpha + 2*alpha*beta*Sx + beta*beta*Sxx
		if r < 0 {
			r = 0
		}
		return r
	}

	const inf = math.MaxFloat64
	// dp[k][j]: min cost of covering points [0, j] with k+1 segments.
	prev := make([]float64, n)
	cur := make([]float64, n)
	choice := make([][]int, maxSegs) // choice[k][j] = start of last segment
	for k := range choice {
		choice[k] = make([]int, n)
	}
	for j := 0; j < n; j++ {
		prev[j] = sse(0, j)
		choice[0][j] = 0
	}
	bestCost := prev[n-1]
	bestK := 1
	for k := 1; k < maxSegs; k++ {
		for j := 0; j < n; j++ {
			cur[j] = inf
			// Each segment needs at least 2 points.
			for i := 2 * k; i <= j-1; i++ {
				if prev[i-1] == inf {
					continue
				}
				c := prev[i-1] + sse(i, j)
				if c < cur[j] {
					cur[j] = c
					choice[k][j] = i
				}
			}
		}
		if cur[n-1] < inf {
			total := cur[n-1] + penalty*float64(k)
			if total < bestCost {
				bestCost = total
				bestK = k + 1
			}
		}
		prev, cur = cur, prev
	}

	if bestK == 1 {
		return nil
	}
	// Recover breakpoints: re-run the DP storage backwards.
	// The choice table holds, for each k and j, the start index of the last
	// segment of the optimal (k+1)-segment cover of [0, j].
	breaks := make([]int, 0, bestK-1)
	j := n - 1
	for k := bestK - 1; k >= 1; k-- {
		i := choice[k][j]
		breaks = append(breaks, i)
		j = i - 1
	}
	// Reverse to ascending order.
	for l, r := 0, len(breaks)-1; l < r; l, r = l+1, r-1 {
		breaks[l], breaks[r] = breaks[r], breaks[l]
	}
	return breaks
}
