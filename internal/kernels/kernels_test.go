package kernels

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/counters"
)

func validKernel() *Kernel {
	return &Kernel{
		Name:         "k",
		ID:           1,
		MeanDuration: 1000,
		NoiseCV:      0.05,
		Counters: [counters.NumCounters]CounterSpec{
			counters.TotIns: {Total: 1_000_000, Shape: counters.Linear(1, 3)},
		},
		Regions: []RegionSpan{
			{UpTo: 0.5, Name: "a"},
			{UpTo: 1, Name: "b"},
		},
	}
}

func TestValidateAcceptsGood(t *testing.T) {
	if err := validKernel().Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := map[string]func(k *Kernel){
		"no name":       func(k *Kernel) { k.Name = "" },
		"zero id":       func(k *Kernel) { k.ID = 0 },
		"neg id":        func(k *Kernel) { k.ID = -3 },
		"zero duration": func(k *Kernel) { k.MeanDuration = 0 },
		"neg noise":     func(k *Kernel) { k.NoiseCV = -0.1 },
		"neg counter":   func(k *Kernel) { k.Counters[0].Total = -1 },
		"region not increasing": func(k *Kernel) {
			k.Regions = []RegionSpan{{UpTo: 0.5, Name: "a"}, {UpTo: 0.5, Name: "b"}}
		},
		"region unnamed": func(k *Kernel) {
			k.Regions = []RegionSpan{{UpTo: 1, Name: ""}}
		},
		"regions not ending at 1": func(k *Kernel) {
			k.Regions = []RegionSpan{{UpTo: 0.9, Name: "a"}}
		},
	}
	for name, mutate := range cases {
		k := validKernel()
		mutate(k)
		if err := k.Validate(); err == nil {
			t.Errorf("%s: Validate accepted bad kernel", name)
		}
	}
}

func TestShapeOfDefaultsToConstant(t *testing.T) {
	k := validKernel()
	s := k.ShapeOf(counters.L1DCM) // no shape set
	if got := s.Integral(0.5); got != 0.5 {
		t.Fatalf("default shape Integral(0.5) = %g, want 0.5", got)
	}
	s = k.ShapeOf(counters.TotIns)
	if got := s.Integral(0.5); got == 0.5 {
		t.Fatalf("configured shape was ignored")
	}
}

func TestTotalOf(t *testing.T) {
	k := validKernel()
	if k.TotalOf(counters.TotIns) != 1_000_000 {
		t.Fatal("TotalOf TotIns wrong")
	}
	if k.TotalOf(counters.FPOps) != 0 {
		t.Fatal("TotalOf unset counter should be 0")
	}
}

func TestRegionAt(t *testing.T) {
	k := validKernel()
	if got := k.RegionAt(0.2); got != "a" {
		t.Fatalf("RegionAt(0.2) = %q", got)
	}
	if got := k.RegionAt(0.5); got != "b" {
		t.Fatalf("RegionAt(0.5) = %q, want b (half-open spans)", got)
	}
	if got := k.RegionAt(1); got != "b" {
		t.Fatalf("RegionAt(1) = %q", got)
	}
	k.Regions = nil
	if got := k.RegionAt(0.7); got != "k" {
		t.Fatalf("RegionAt without spans = %q, want kernel name", got)
	}
}

func TestImbalanceFuncs(t *testing.T) {
	l := Linear(0.5)
	if l(0, 9) != 1 {
		t.Fatalf("Linear rank0 = %g", l(0, 9))
	}
	if got := l(8, 9); math.Abs(got-1.5) > 1e-12 {
		t.Fatalf("Linear last = %g", got)
	}
	if l(3, 1) != 1 {
		t.Fatal("Linear with 1 rank must be 1")
	}
	tr := Triangular(0.4)
	if got := tr(4, 9); math.Abs(got-1.4) > 1e-12 {
		t.Fatalf("Triangular mid = %g", got)
	}
	if got := tr(0, 9); math.Abs(got-1) > 1e-12 {
		t.Fatalf("Triangular edge = %g", got)
	}
	if tr(0, 1) != 1 {
		t.Fatal("Triangular single rank must be 1")
	}
}

func TestImbalancePanics(t *testing.T) {
	for name, f := range map[string]func(){
		"linear":     func() { Linear(-1) },
		"triangular": func() { Triangular(-1.5) },
		"imbalance returns 0": func() {
			k := validKernel()
			k.Imbalance = func(rank, ranks int) float64 { return 0 }
			k.ImbalanceOf(0, 4)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestImbalanceOfNilIsUniform(t *testing.T) {
	k := validKernel()
	k.Imbalance = nil
	if k.ImbalanceOf(3, 8) != 1 {
		t.Fatal("nil imbalance should be uniform")
	}
	k.Imbalance = Linear(1)
	if got := k.ImbalanceOf(7, 8); got != 2 {
		t.Fatalf("ImbalanceOf = %g, want 2", got)
	}
}

func TestNoiseSigmaMuMeanOne(t *testing.T) {
	k := validKernel()
	k.NoiseCV = 0.2
	mu, sigma := k.NoiseSigmaMu()
	rng := rand.New(rand.NewPCG(1, 2))
	var sum, sumsq float64
	const n = 200000
	for i := 0; i < n; i++ {
		x := math.Exp(mu + sigma*rng.NormFloat64())
		sum += x
		sumsq += x * x
	}
	mean := sum / n
	cv := math.Sqrt(sumsq/n-mean*mean) / mean
	if math.Abs(mean-1) > 0.01 {
		t.Fatalf("lognormal mean = %g, want 1", mean)
	}
	if math.Abs(cv-0.2) > 0.01 {
		t.Fatalf("lognormal cv = %g, want 0.2", cv)
	}
}

func TestNoiseSigmaMuZero(t *testing.T) {
	k := validKernel()
	k.NoiseCV = 0
	mu, sigma := k.NoiseSigmaMu()
	if mu != 0 || sigma != 0 {
		t.Fatalf("zero CV gave mu=%g sigma=%g", mu, sigma)
	}
}
