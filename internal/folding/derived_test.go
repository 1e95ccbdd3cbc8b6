package folding

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/counters"
)

// foldBoth folds two counters of the same generated instances.
func foldBoth(t *testing.T, insShape, missShape counters.Shape) (ins, miss *Result) {
	t.Helper()
	instances := genInstances(insShape, 400, 3, 0.03, 77)
	// Overwrite the L1 counter along missShape (genInstances only fills
	// TotIns), keeping the same sample positions.
	const missTotal = 500_000
	for i := range instances {
		in := &instances[i]
		in.Totals[counters.L1DCM] = missTotal
		d := float64(in.Duration())
		for j := range in.Samples {
			x := float64(in.Samples[j].Time-in.Start) / d
			in.Samples[j].Counters[counters.L1DCM] =
				in.Base[counters.L1DCM] + int64(missTotal*missShape.Integral(x)+0.5)
		}
	}
	var err error
	ins, err = Fold(instances, Config{Counter: counters.TotIns})
	if err != nil {
		t.Fatal(err)
	}
	miss, err = Fold(instances, Config{Counter: counters.L1DCM})
	if err != nil {
		t.Fatal(err)
	}
	return ins, miss
}

func TestRatioCurveMKI(t *testing.T) {
	insShape := counters.Constant()
	missShape := counters.ExpDecay(3, 0.2)
	ins, miss := foldBoth(t, insShape, missShape)
	mki, err := RatioCurve(miss, ins, 1000)
	if err != nil {
		t.Fatal(err)
	}
	// Analytic MKI(x) = 1000 · (missTotal·missRate(x)/d) / (insTotal·1/d)
	//                 = 1000 · 500k/10M · missRate(x) = 50·missRate(x).
	for i, x := range ins.Grid {
		if x < 0.05 || x > 0.95 {
			continue
		}
		want := 50 * missShape.Rate(x)
		if math.IsNaN(mki[i]) {
			t.Fatalf("NaN MKI at %g", x)
		}
		if math.Abs(mki[i]-want) > 0.15*want {
			t.Fatalf("MKI(%g) = %g, want ≈ %g", x, mki[i], want)
		}
	}
}

func TestRatioCurveNaNOnZeroDenominator(t *testing.T) {
	// Denominator accrues only in the first 60%: its rate in the tail is
	// ~0 → NaN ratio there.
	den := counters.Piecewise(
		counters.Segment{Width: 0.6, Area: 0.999},
		counters.Segment{Width: 0.4, Area: 0.001},
	)
	ins, miss := foldBoth(t, den, counters.Constant())
	ratio, err := RatioCurve(miss, ins, 1)
	if err != nil {
		t.Fatal(err)
	}
	sawNaN := false
	for i, x := range ins.Grid {
		if x > 0.8 && math.IsNaN(ratio[i]) {
			sawNaN = true
		}
	}
	if !sawNaN {
		t.Fatal("zero-denominator region did not produce NaN")
	}
}

func TestRatioCurveGridMismatch(t *testing.T) {
	a := &Result{Grid: make([]float64, 10)}
	b := &Result{Grid: make([]float64, 20)}
	if _, err := RatioCurve(a, b, 1); err == nil {
		t.Fatal("grid mismatch accepted")
	}
}

func TestRatioCurveMalformedRateErrors(t *testing.T) {
	// Matching grids but truncated (or absent) Rate slices must error, not
	// panic on the out-of-range index.
	ok := &Result{Grid: make([]float64, 10), Rate: make([]float64, 10), MeanTotal: 1, MeanDuration: 1}
	short := &Result{Grid: make([]float64, 10), Rate: make([]float64, 3), MeanTotal: 1, MeanDuration: 1}
	empty := &Result{Grid: make([]float64, 10), MeanTotal: 1, MeanDuration: 1}
	for name, pair := range map[string][2]*Result{
		"short numerator":   {short, ok},
		"short denominator": {ok, short},
		"nil rates":         {empty, empty},
	} {
		if _, err := RatioCurve(pair[0], pair[1], 1); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
	if _, err := RatioCurve(ok, ok, 1); err != nil {
		t.Fatalf("well-formed results rejected: %v", err)
	}
}

func TestComputeBands(t *testing.T) {
	instances := genInstances(counters.Linear(0.5, 1.5), 500, 3, 0.05, 13)
	res, err := Fold(instances, Config{Counter: counters.TotIns})
	if err != nil {
		t.Fatal(err)
	}
	// The fold fills the bands.
	if len(res.StdErr) != len(res.Grid) {
		t.Fatalf("StdErr len = %d", len(res.StdErr))
	}
	finite := 0
	for _, se := range res.StdErr {
		if !math.IsNaN(se) {
			if se < 0 {
				t.Fatalf("negative stderr %g", se)
			}
			if se > 0.05 {
				t.Fatalf("stderr %g implausibly large for exact data", se)
			}
			finite++
		}
	}
	// With 1500 points over ~100 cells nearly every cell is supported.
	if finite < len(res.StdErr)*3/4 {
		t.Fatalf("only %d/%d cells have bands", finite, len(res.StdErr))
	}
}

func TestComputeBandsDegenerate(t *testing.T) {
	r := &Result{Grid: []float64{0}}
	r.ComputeBands() // must not panic
	if r.StdErr != nil {
		t.Fatal("degenerate bands should stay nil")
	}
}

// TestBandsJSON: null stands for NaN both ways, and every other value is
// encoded as encoding/json encodes a float64.
func TestBandsJSON(t *testing.T) {
	finite := []float64{0, math.Copysign(0, -1), 1, -2.5, 0.1, 1.0 / 3, 1e-6, 9.99e-7, 1e-7, -3e-9, 1e20, 1e21, 1.5e300, 5e-324}
	want, err := json.Marshal(finite)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(Bands(finite))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Bands encode %s, float64 slice %s", got, want)
	}

	in := struct{ A, B, C Bands }{A: Bands{math.NaN(), 0.25, math.NaN()}, B: Bands{}}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != `{"A":[null,0.25,null],"B":[],"C":null}` {
		t.Fatalf("encoded %s", data)
	}
	var out struct{ A, B, C Bands }
	out.C = Bands{1} // null must reset it
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.A) != 3 || !math.IsNaN(out.A[0]) || out.A[1] != 0.25 || !math.IsNaN(out.A[2]) ||
		out.B == nil || len(out.B) != 0 || out.C != nil {
		t.Fatalf("decoded %v", out)
	}

	if _, err := json.Marshal(Bands{math.Inf(1)}); err == nil {
		t.Fatal("an infinite band encoded")
	}
	for _, bad := range []string{`{"A":[true]}`, `{"A":["0.5"]}`, `{"A":{}}`} {
		if err := json.Unmarshal([]byte(bad), &out); err == nil {
			t.Fatalf("%s decoded", bad)
		}
	}
}
