package spectral

import (
	"math"
	"testing"

	"repro/internal/apps"
	"repro/internal/burst"
	"repro/internal/sim"
	"repro/internal/structure"
	"repro/internal/trace"
)

func TestComputeDensityKnownSignal(t *testing.T) {
	b := trace.NewBuilder("s", 2)
	b.Event(0, 1000, trace.EvIteration, 1) // pins duration to 1000
	tr := b.Build()
	bursts := []burst.Burst{
		{Rank: 0, Start: 0, End: 500},   // rank 0 computes the first half
		{Rank: 1, Start: 250, End: 750}, // rank 1 the middle half
	}
	sig, err := ComputeDensity(tr, bursts, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Bins of 250 ns; density = busy-rank fraction.
	want := []float64{0.5, 1.0, 0.5, 0}
	for i, w := range want {
		if math.Abs(sig.Values[i]-w) > 1e-9 {
			t.Fatalf("bin %d = %g, want %g (all: %v)", i, sig.Values[i], w, sig.Values)
		}
	}
	if got := sig.Bin * trace.Time(len(sig.Values)); got != 1000 {
		t.Fatalf("duration = %d", got)
	}
}

func TestComputeDensityPartialBins(t *testing.T) {
	b := trace.NewBuilder("s", 1)
	b.Event(0, 100, trace.EvIteration, 1)
	tr := b.Build()
	bursts := []burst.Burst{{Rank: 0, Start: 10, End: 30}} // within bin 0 [0,50)
	sig, err := ComputeDensity(tr, bursts, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sig.Values[0]-0.4) > 1e-9 || sig.Values[1] != 0 {
		t.Fatalf("values = %v", sig.Values)
	}
}

func TestComputeDensityErrors(t *testing.T) {
	b := trace.NewBuilder("s", 1)
	tr := b.Build() // zero duration
	if _, err := ComputeDensity(tr, nil, 8); err == nil {
		t.Fatal("empty trace accepted")
	}
}

func TestAutocorrelationPeriodicSignal(t *testing.T) {
	// Square wave with period 20 bins.
	sig := &Signal{Bin: 10, Values: make([]float64, 400)}
	for i := range sig.Values {
		if i%20 < 10 {
			sig.Values[i] = 1
		}
	}
	ac := sig.Autocorrelation(100)
	// Strong positive peak at lag 20, strong negative at lag 10.
	if ac[19] < 0.8 {
		t.Fatalf("ac[lag 20] = %g", ac[19])
	}
	if ac[9] > -0.8 {
		t.Fatalf("ac[lag 10] = %g", ac[9])
	}
	if p := sig.Period(0); p != 200 { // 20 bins × 10 ns
		t.Fatalf("period = %d, want 200", p)
	}
}

func TestAutocorrelationDegenerate(t *testing.T) {
	flat := &Signal{Bin: 1, Values: []float64{1, 1, 1, 1, 1, 1, 1, 1}}
	ac := flat.Autocorrelation(4)
	for _, v := range ac {
		if v != 0 {
			t.Fatalf("flat signal autocorrelation = %v", ac)
		}
	}
	if p := flat.Period(0); p != 0 {
		t.Fatalf("flat period = %d", p)
	}
	tiny := &Signal{Bin: 1, Values: []float64{1, 2}}
	if p := tiny.Period(0); p != 0 {
		t.Fatalf("tiny period = %d", p)
	}
	if got := tiny.Autocorrelation(0); got != nil {
		t.Fatalf("zero maxLag = %v", got)
	}
}

func TestDetectIterationsDegenerate(t *testing.T) {
	// Empty trace → error.
	b := trace.NewBuilder("e", 1)
	if _, _, err := DetectIterations(b.Build(), nil); err == nil {
		t.Fatal("empty trace accepted")
	}
	// Aperiodic trace → period 0, no error.
	b2 := trace.NewBuilder("a", 1)
	b2.Event(0, 10_000, trace.EvIteration, 1)
	tr := b2.Build()
	bursts := []burst.Burst{{Rank: 0, Start: 0, End: 3000}}
	period, count, err := DetectIterations(tr, bursts)
	if err != nil {
		t.Fatal(err)
	}
	if period != 0 || count != 0 {
		t.Fatalf("aperiodic detection = %d, %d", period, count)
	}
}

// TestDetectIterationsMatchesMarkers: marker-free spectral detection
// agrees with the ground-truth iteration markers on every app.
func TestDetectIterationsMatchesMarkers(t *testing.T) {
	for _, name := range []string{"stencil", "nbody", "cg"} {
		app, err := apps.ByName(name, 60)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := sim.Run(apps.DefaultTraceConfig(8), app)
		if err != nil {
			t.Fatal(err)
		}
		bursts, err := burst.Extract(tr)
		if err != nil {
			t.Fatal(err)
		}
		period, count, err := DetectIterations(tr, bursts)
		if err != nil {
			t.Fatal(err)
		}
		if period <= 0 {
			t.Fatalf("%s: no period detected", name)
		}
		truth := structure.Iterations(tr)
		rel := math.Abs(float64(period)-truth.MeanDuration) / truth.MeanDuration
		if rel > 0.1 {
			t.Fatalf("%s: spectral period %.2f ms vs marker mean %.2f ms (%.1f%% off)",
				name, float64(period)/1e6, truth.MeanDuration/1e6, 100*rel)
		}
		if count < 50 || count > 70 {
			t.Fatalf("%s: implied count %d, want ≈ 60", name, count)
		}
	}
}
