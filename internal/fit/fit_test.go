package fit

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestIsotonicAlreadyMonotone(t *testing.T) {
	pts := []Point{{0, 1, 1}, {1, 2, 1}, {2, 3, 1}}
	got := Isotonic(pts)
	for i, want := range []float64{1, 2, 3} {
		if got[i] != want {
			t.Fatalf("got[%d] = %v, want %v", i, got[i], want)
		}
	}
}

func TestIsotonicPoolsViolators(t *testing.T) {
	// Classic example: (1, 3, 2) pools the last two to 2.5.
	pts := []Point{{0, 1, 1}, {1, 3, 1}, {2, 2, 1}}
	got := Isotonic(pts)
	want := []float64{1, 2.5, 2.5}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("got = %v, want %v", got, want)
		}
	}
}

func TestIsotonicWeights(t *testing.T) {
	// Heavier first point pulls the pooled mean toward it.
	pts := []Point{{0, 4, 3}, {1, 0, 1}}
	got := Isotonic(pts)
	want := 3.0 // (4*3 + 0*1) / 4
	if math.Abs(got[0]-want) > 1e-12 || math.Abs(got[1]-want) > 1e-12 {
		t.Fatalf("got = %v, want [%v %v]", got, want, want)
	}
}

func TestIsotonicZeroWeightTreatedAsOne(t *testing.T) {
	a := Isotonic([]Point{{0, 2, 0}, {1, 1, 0}})
	b := Isotonic([]Point{{0, 2, 1}, {1, 1, 1}})
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("zero weights behave differently: %v vs %v", a, b)
		}
	}
}

func TestIsotonicEmpty(t *testing.T) {
	if got := Isotonic(nil); got != nil {
		t.Fatalf("Isotonic(nil) = %v", got)
	}
}

func TestIsotonicOutputMonotoneProperty(t *testing.T) {
	f := func(ys []float64) bool {
		pts := make([]Point, 0, len(ys))
		for i, y := range ys {
			if math.IsNaN(y) || math.IsInf(y, 0) {
				return true
			}
			pts = append(pts, Point{X: float64(i), Y: y, W: 1})
		}
		out := Isotonic(pts)
		for i := 1; i < len(out); i++ {
			if out[i] < out[i-1]-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestIsotonicIdempotentProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	for trial := 0; trial < 50; trial++ {
		pts := make([]Point, 50)
		for i := range pts {
			pts[i] = Point{X: float64(i), Y: rng.NormFloat64(), W: 1}
		}
		once := Isotonic(pts)
		again := make([]Point, len(once))
		for i, y := range once {
			again[i] = Point{X: float64(i), Y: y, W: 1}
		}
		twice := Isotonic(again)
		for i := range once {
			if math.Abs(once[i]-twice[i]) > 1e-12 {
				t.Fatalf("trial %d: PAVA not idempotent at %d: %v vs %v", trial, i, once[i], twice[i])
			}
		}
	}
}

func TestIsotonicPreservesMean(t *testing.T) {
	// Weighted mean of fit equals weighted mean of data (PAVA property).
	rng := rand.New(rand.NewPCG(9, 1))
	pts := make([]Point, 100)
	var wantNum, wantDen float64
	for i := range pts {
		w := 1 + rng.Float64()*3
		y := rng.NormFloat64()
		pts[i] = Point{X: float64(i), Y: y, W: w}
		wantNum += w * y
		wantDen += w
	}
	out := Isotonic(pts)
	var gotNum float64
	for i, y := range out {
		gotNum += pts[i].W * y
	}
	if math.Abs(gotNum/wantDen-wantNum/wantDen) > 1e-9 {
		t.Fatalf("PAVA changed the weighted mean: %v vs %v", gotNum/wantDen, wantNum/wantDen)
	}
}

func TestPCHIPInterpolatesKnots(t *testing.T) {
	xs := []float64{0, 1, 2, 4}
	ys := []float64{0, 1, 1.5, 5}
	p, err := NewPCHIP(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		if got := p.Eval(xs[i]); math.Abs(got-ys[i]) > 1e-12 {
			t.Fatalf("Eval(%g) = %g, want %g", xs[i], got, ys[i])
		}
	}
}

func TestPCHIPMonotonePreserving(t *testing.T) {
	// Data with a sharp plateau — classic overshoot case for cubic splines.
	xs := []float64{0, 1, 2, 3, 4, 5}
	ys := []float64{0, 0.01, 0.02, 0.98, 0.99, 1}
	p, err := NewPCHIP(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(-1)
	for i := 0; i <= 1000; i++ {
		x := 5 * float64(i) / 1000
		v := p.Eval(x)
		if v < prev-1e-12 {
			t.Fatalf("PCHIP not monotone at x=%g: %g < %g", x, v, prev)
		}
		if v < -1e-12 || v > 1+1e-12 {
			t.Fatalf("PCHIP overshoots at x=%g: %g", x, v)
		}
		prev = v
	}
}

func TestPCHIPDerivNonNegativeOnMonotoneData(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 8))
	for trial := 0; trial < 30; trial++ {
		n := 5 + rng.IntN(20)
		xs := make([]float64, n)
		ys := make([]float64, n)
		x, y := 0.0, 0.0
		for i := 0; i < n; i++ {
			x += 0.1 + rng.Float64()
			y += rng.Float64()
			xs[i], ys[i] = x, y
		}
		p, err := NewPCHIP(xs, ys)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i <= 500; i++ {
			u := xs[0] + (xs[n-1]-xs[0])*float64(i)/500
			if d := p.Deriv(u); d < -1e-9 {
				t.Fatalf("trial %d: negative derivative %g at %g", trial, d, u)
			}
		}
	}
}

func TestPCHIPDerivMatchesNumeric(t *testing.T) {
	xs := []float64{0, 0.5, 1.2, 2, 3}
	ys := []float64{0, 0.3, 0.5, 1.4, 2}
	p, err := NewPCHIP(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	const h = 1e-6
	for i := 1; i < 30; i++ {
		x := 3 * float64(i) / 30
		if x-h < 0 || x+h > 3 {
			continue
		}
		num := (p.Eval(x+h) - p.Eval(x-h)) / (2 * h)
		if got := p.Deriv(x); math.Abs(got-num) > 1e-4*(1+math.Abs(num)) {
			t.Fatalf("Deriv(%g) = %g, numeric %g", x, got, num)
		}
	}
}

func TestPCHIPClampsOutsideDomain(t *testing.T) {
	p, err := NewPCHIP([]float64{0, 1}, []float64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Eval(-5); got != 0 {
		t.Fatalf("Eval(-5) = %g", got)
	}
	if got := p.Eval(7); got != 1 {
		t.Fatalf("Eval(7) = %g", got)
	}
}

func TestPCHIPErrors(t *testing.T) {
	if _, err := NewPCHIP([]float64{0}, []float64{0}); err == nil {
		t.Fatal("expected error for single knot")
	}
	if _, err := NewPCHIP([]float64{0, 1}, []float64{0}); err == nil {
		t.Fatal("expected error for length mismatch")
	}
	if _, err := NewPCHIP([]float64{0, 0}, []float64{0, 1}); err == nil {
		t.Fatal("expected error for duplicate knots")
	}
	if _, err := NewPCHIP([]float64{1, 0}, []float64{0, 1}); err == nil {
		t.Fatal("expected error for decreasing knots")
	}
}

func TestPCHIPLinearDataIsExact(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 3, 5, 7}
	p, _ := NewPCHIP(xs, ys)
	for i := 0; i <= 30; i++ {
		x := 3 * float64(i) / 30
		if got, want := p.Eval(x), 1+2*x; math.Abs(got-want) > 1e-9 {
			t.Fatalf("linear reproduction failed at %g: %g != %g", x, got, want)
		}
		if d := p.Deriv(x); math.Abs(d-2) > 1e-9 {
			t.Fatalf("linear derivative at %g: %g != 2", x, d)
		}
	}
}

func TestKernelSmoothRecoversSmoothFunction(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	f := func(x float64) float64 { return math.Sin(2 * math.Pi * x) }
	pts := make([]Point, 2000)
	for i := range pts {
		x := rng.Float64()
		pts[i] = Point{X: x, Y: f(x) + 0.05*rng.NormFloat64(), W: 1}
	}
	grid := make([]float64, 101)
	for i := range grid {
		grid[i] = float64(i) / 100
	}
	sm := KernelSmooth(pts, 0.02, grid)
	for i, g := range grid {
		if g < 0.05 || g > 0.95 {
			continue // edge bias expected
		}
		if math.Abs(sm[i]-f(g)) > 0.1 {
			t.Fatalf("smooth at %g = %g, want ≈ %g", g, sm[i], f(g))
		}
	}
}

func TestKernelSmoothEmptyAndFallback(t *testing.T) {
	grid := []float64{0, 1}
	if out := KernelSmooth(nil, 0.1, grid); out[0] != 0 || out[1] != 0 {
		t.Fatalf("empty input should give zeros, got %v", out)
	}
	// A single point very far from the grid exercises the underflow
	// fallback path.
	pts := []Point{{X: 1e9, Y: 42, W: 1}}
	out := KernelSmooth(pts, 0.001, grid)
	if out[0] != 42 || out[1] != 42 {
		t.Fatalf("fallback = %v, want [42 42]", out)
	}
}

func TestKernelSmoothPanicsOnBadBandwidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	KernelSmooth(nil, 0, nil)
}

// bin is BinIso over the points' own Y values.
func bin(pts []Point, n int, lo, hi float64) (xs, ys []float64) {
	yCol := make([]float64, len(pts))
	for i := range pts {
		yCol[i] = pts[i].Y
	}
	return BinIso(pts, yCol, n, lo, hi)
}

func TestBinAveragesAndSkipsEmpty(t *testing.T) {
	pts := []Point{
		{X: 0.05, Y: 1, W: 1},
		{X: 0.08, Y: 3, W: 1},
		// bin [0.1,0.2) empty
		{X: 0.25, Y: 10, W: 1},
	}
	xs, ys := bin(pts, 10, 0, 1)
	if len(xs) != 2 {
		t.Fatalf("got %d bins, want 2", len(xs))
	}
	// Knot X is the points' mean X, not the bin center.
	if math.Abs(xs[0]-0.065) > 1e-12 || math.Abs(ys[0]-2) > 1e-12 {
		t.Fatalf("bin0 = (%g, %g)", xs[0], ys[0])
	}
	if math.Abs(xs[1]-0.25) > 1e-12 || ys[1] != 10 {
		t.Fatalf("bin1 = (%g, %g)", xs[1], ys[1])
	}
}

func TestBinWeighted(t *testing.T) {
	pts := []Point{{X: 0.1, Y: 0, W: 3}, {X: 0.15, Y: 4, W: 1}}
	_, ys := bin(pts, 1, 0, 1)
	if len(ys) != 1 || math.Abs(ys[0]-1) > 1e-12 {
		t.Fatalf("weighted bin mean = %v, want [1]", ys)
	}
}

func TestBinClampsOutOfRange(t *testing.T) {
	pts := []Point{{X: -5, Y: 1, W: 1}, {X: 99, Y: 3, W: 1}}
	xs, ys := bin(pts, 4, 0, 1)
	if len(xs) != 2 {
		t.Fatalf("clamped bins = %d, want 2", len(xs))
	}
	if ys[0] != 1 || ys[1] != 3 {
		t.Fatalf("clamped values = %v", ys)
	}
	// Knot X of clamped points clamps into the range too.
	if xs[0] != 0 || xs[1] != 1 {
		t.Fatalf("clamped knots = %v", xs)
	}
}

func TestBinKnotsStrictlyIncreasing(t *testing.T) {
	// Coincident clamped points in different bins must still produce
	// strictly increasing knots.
	pts := []Point{{X: -5, Y: 1, W: 1}, {X: 0.3, Y: 2, W: 1}, {X: 99, Y: 3, W: 1}}
	xs, _ := bin(pts, 4, 0, 1)
	for i := 1; i < len(xs); i++ {
		if xs[i] <= xs[i-1] {
			t.Fatalf("knots not strictly increasing: %v", xs)
		}
	}
}

func TestBinPanics(t *testing.T) {
	for _, f := range []func(){
		func() { bin(nil, 0, 0, 1) },
		func() { bin(nil, 5, 1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestSegmentDetectsSingleBreak(t *testing.T) {
	// Two clear linear regimes: slope 1 then slope 5, break at x=1 (idx 50).
	n := 100
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		x := 2 * float64(i) / float64(n-1)
		xs[i] = x
		if x <= 1 {
			ys[i] = x
		} else {
			ys[i] = 1 + 5*(x-1)
		}
	}
	breaks := Segment(xs, ys, 4, 1e-6)
	if len(breaks) != 1 {
		t.Fatalf("breaks = %v, want exactly 1", breaks)
	}
	if got := xs[breaks[0]]; math.Abs(got-1) > 0.1 {
		t.Fatalf("break at x=%g, want ≈ 1", got)
	}
}

func TestSegmentNoBreakOnLine(t *testing.T) {
	n := 60
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i)
		ys[i] = 3*float64(i) + 2
	}
	if breaks := Segment(xs, ys, 5, 0.01); len(breaks) != 0 {
		t.Fatalf("line segmented: %v", breaks)
	}
}

func TestSegmentTwoBreaks(t *testing.T) {
	// Three regimes: flat, steep, flat.
	var xs, ys []float64
	for i := 0; i < 150; i++ {
		x := 3 * float64(i) / 149
		xs = append(xs, x)
		switch {
		case x < 1:
			ys = append(ys, 0.1*x)
		case x < 2:
			ys = append(ys, 0.1+4*(x-1))
		default:
			ys = append(ys, 4.1+0.1*(x-2))
		}
	}
	breaks := Segment(xs, ys, 6, 1e-6)
	if len(breaks) != 2 {
		t.Fatalf("breaks = %v, want 2", breaks)
	}
	if math.Abs(xs[breaks[0]]-1) > 0.15 || math.Abs(xs[breaks[1]]-2) > 0.15 {
		t.Fatalf("break positions %g, %g; want ≈ 1, 2", xs[breaks[0]], xs[breaks[1]])
	}
}

func TestSegmentPenaltySuppressesBreaks(t *testing.T) {
	var xs, ys []float64
	for i := 0; i < 100; i++ {
		x := 2 * float64(i) / 99
		xs = append(xs, x)
		if x <= 1 {
			ys = append(ys, x)
		} else {
			ys = append(ys, 1+1.2*(x-1)) // only slightly different slope
		}
	}
	// Huge penalty: prefer one segment.
	if breaks := Segment(xs, ys, 4, 1e9); len(breaks) != 0 {
		t.Fatalf("huge penalty still broke: %v", breaks)
	}
}

func TestSegmentDegenerateInputs(t *testing.T) {
	if got := Segment([]float64{0, 1, 2}, []float64{0, 1, 2}, 3, 0.1); got != nil {
		t.Fatalf("short series segmented: %v", got)
	}
	if got := Segment(nil, nil, 3, 0.1); got != nil {
		t.Fatalf("empty series segmented: %v", got)
	}
	if got := Segment([]float64{0, 1, 2, 3, 4}, []float64{0, 1, 2, 3, 4}, 0, 0.1); got != nil {
		t.Fatalf("maxSegs<1 should behave like 1: %v", got)
	}
}

func TestSegmentPanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Segment([]float64{1, 2}, []float64{1}, 2, 0.1)
}
