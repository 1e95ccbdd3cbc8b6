package stats

import (
	"math"
	"math/rand/v2"
	"testing"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestMeanBasic(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("Mean = %v, want 2.5", got)
	}
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v, want 0", got)
	}
}

func TestVarianceKnown(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	// population variance is 4; sample variance is 32/7.
	want := 32.0 / 7.0
	if got := Variance(xs); !almostEq(got, want, 1e-12) {
		t.Fatalf("Variance = %v, want %v", got, want)
	}
	if got := Variance([]float64{5}); got != 0 {
		t.Fatalf("Variance single = %v, want 0", got)
	}
}

func TestOnlineMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	xs := make([]float64, 1000)
	var o Online
	for i := range xs {
		xs[i] = rng.ExpFloat64() * 10
		o.Add(xs[i])
	}
	if !almostEq(o.Mean(), Mean(xs), 1e-10) {
		t.Fatalf("online mean %v != batch %v", o.Mean(), Mean(xs))
	}
	if !almostEq(o.Variance(), Variance(xs), 1e-10) {
		t.Fatalf("online var %v != batch %v", o.Variance(), Variance(xs))
	}
	if o.N() != 1000 {
		t.Fatalf("N = %d", o.N())
	}
}

func TestStdDevMatchesVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got, want := StdDev(xs), math.Sqrt(Variance(xs)); got != want {
		t.Fatalf("StdDev = %v, want %v", got, want)
	}
	var o Online
	for _, x := range xs {
		o.Add(x)
	}
	if got, want := o.StdDev(), math.Sqrt(o.Variance()); got != want {
		t.Fatalf("Online.StdDev = %v, want %v", got, want)
	}
}

func TestOnlineZeroValue(t *testing.T) {
	var o Online
	if o.Mean() != 0 || o.Variance() != 0 || o.N() != 0 {
		t.Fatal("zero-value Online must report zeros")
	}
}
