// Package kernels models the computational kernels a synthetic parallel
// application executes between MPI calls. A Kernel defines everything the
// simulator needs to produce one computation burst: its mean duration, how
// duration and work vary across ranks (imbalance) and instances (noise),
// the analytic internal evolution of every hardware counter (the ground
// truth folding must reconstruct), and which source region is active at
// each point of the kernel (the ground truth for call-stack folding).
package kernels

import (
	"fmt"
	"math"

	"repro/internal/counters"
	"repro/internal/trace"
)

// ImbalanceFunc returns the work multiplier for a rank: 1 means the nominal
// duration/work, 2 means twice as much. Implementations must return
// strictly positive values.
type ImbalanceFunc func(rank, ranks int) float64

// Linear returns a workload ramp: rank 0 does the nominal work and the last
// rank does (1+excess) times as much, linearly interpolated in between.
func Linear(excess float64) ImbalanceFunc {
	if excess <= -1 {
		panic(fmt.Sprintf("kernels: Linear excess %g must be > -1", excess))
	}
	return func(rank, ranks int) float64 {
		if ranks <= 1 {
			return 1
		}
		return 1 + excess*float64(rank)/float64(ranks-1)
	}
}

// Triangular returns a workload peaked at the middle rank, modelling e.g.
// a spatial decomposition where interior domains carry more particles.
// excess is the extra work fraction at the peak.
func Triangular(excess float64) ImbalanceFunc {
	if excess <= -1 {
		panic(fmt.Sprintf("kernels: Triangular excess %g must be > -1", excess))
	}
	return func(rank, ranks int) float64 {
		if ranks <= 1 {
			return 1
		}
		mid := float64(ranks-1) / 2
		d := 1 - math.Abs(float64(rank)-mid)/mid
		return 1 + excess*d
	}
}

// CounterSpec defines one counter's behaviour within a kernel instance:
// the mean total accrued per nominal instance and the internal evolution
// shape. A nil Shape means uniform accrual. Totals scale with the rank's
// imbalance multiplier (more work, proportionally more instructions).
type CounterSpec struct {
	Total int64
	Shape counters.Shape
}

// RegionSpan marks which source region is active up to normalized time
// UpTo. A kernel's spans must have strictly increasing UpTo values ending
// at 1. The spans are the ground truth for call-stack folding: a sample
// taken at progress u inside the kernel observes the active span's region
// on top of its stack.
type RegionSpan struct {
	UpTo float64
	Name string
}

// Kernel is a complete model of one computation phase.
type Kernel struct {
	// Name identifies the kernel; it is also interned as a stack region.
	Name string
	// ID is the ground-truth identity emitted in EvOracle events.
	ID int64
	// MeanDuration is the nominal (imbalance = 1, no noise) duration.
	MeanDuration trace.Time
	// NoiseCV is the coefficient of variation of the per-instance
	// multiplicative lognormal duration noise (0 = deterministic). Noise
	// stretches time without changing work, modelling OS interference.
	NoiseCV float64
	// WorkNoiseCV is the coefficient of variation of per-instance work
	// variation: it scales duration AND counter totals together,
	// modelling data-dependent iterations (e.g. varying interaction
	// counts). Unlike NoiseCV it leaves IPC unchanged.
	WorkNoiseCV float64
	// Imbalance distributes work across ranks; nil means every rank does
	// the same work.
	Imbalance ImbalanceFunc
	// Counters defines per-counter totals and shapes. TotCyc is ignored:
	// cycles accrue with wall time at the machine's clock rate.
	Counters [counters.NumCounters]CounterSpec
	// Regions lists the active source regions over normalized time; empty
	// means the kernel itself is the only active region.
	Regions []RegionSpan
}

// Validate checks the kernel definition is usable by the simulator.
func (k *Kernel) Validate() error {
	if k.Name == "" {
		return fmt.Errorf("kernels: kernel has no name")
	}
	if k.ID <= 0 {
		return fmt.Errorf("kernels: kernel %q needs a positive oracle ID, got %d", k.Name, k.ID)
	}
	if k.MeanDuration <= 0 {
		return fmt.Errorf("kernels: kernel %q has non-positive duration %d", k.Name, k.MeanDuration)
	}
	if k.NoiseCV < 0 {
		return fmt.Errorf("kernels: kernel %q has negative noise CV %g", k.Name, k.NoiseCV)
	}
	if k.WorkNoiseCV < 0 {
		return fmt.Errorf("kernels: kernel %q has negative work-noise CV %g", k.Name, k.WorkNoiseCV)
	}
	for c, spec := range k.Counters {
		if spec.Total < 0 {
			return fmt.Errorf("kernels: kernel %q counter %s has negative total %d",
				k.Name, counters.Counter(c), spec.Total)
		}
	}
	prev := 0.0
	for i, span := range k.Regions {
		if span.UpTo <= prev {
			return fmt.Errorf("kernels: kernel %q region %d: UpTo %g not increasing", k.Name, i, span.UpTo)
		}
		if span.Name == "" {
			return fmt.Errorf("kernels: kernel %q region %d has no name", k.Name, i)
		}
		prev = span.UpTo
	}
	if len(k.Regions) > 0 && math.Abs(prev-1) > 1e-9 {
		return fmt.Errorf("kernels: kernel %q regions end at %g, want 1", k.Name, prev)
	}
	return nil
}

// ShapeOf returns the internal evolution shape of counter c, defaulting to
// uniform accrual when none was specified.
func (k *Kernel) ShapeOf(c counters.Counter) counters.Shape {
	if s := k.Counters[c].Shape; s != nil {
		return s
	}
	return counters.Constant()
}

// TotalOf returns the nominal per-instance total of counter c.
func (k *Kernel) TotalOf(c counters.Counter) int64 { return k.Counters[c].Total }

// ImbalanceOf returns the work multiplier for a rank.
func (k *Kernel) ImbalanceOf(rank, ranks int) float64 {
	if k.Imbalance == nil {
		return 1
	}
	m := k.Imbalance(rank, ranks)
	if m <= 0 {
		panic(fmt.Sprintf("kernels: kernel %q imbalance returned %g for rank %d/%d", k.Name, m, rank, ranks))
	}
	return m
}

// RegionAt returns the source region active at normalized progress u, or
// the kernel's own name when no region spans are defined.
func (k *Kernel) RegionAt(u float64) string {
	for _, span := range k.Regions {
		if u < span.UpTo {
			return span.Name
		}
	}
	if len(k.Regions) > 0 {
		return k.Regions[len(k.Regions)-1].Name
	}
	return k.Name
}

// NoiseSigmaMu returns the lognormal parameters (mu, sigma) that produce a
// multiplicative noise factor with mean exactly 1 and coefficient of
// variation NoiseCV. A zero CV yields (0, 0), i.e. the constant factor 1.
func (k *Kernel) NoiseSigmaMu() (mu, sigma float64) {
	return lognormalParams(k.NoiseCV)
}

// WorkNoiseSigmaMu is NoiseSigmaMu for the work-variation noise.
func (k *Kernel) WorkNoiseSigmaMu() (mu, sigma float64) {
	return lognormalParams(k.WorkNoiseCV)
}

func lognormalParams(cv float64) (mu, sigma float64) {
	if cv == 0 {
		return 0, 0
	}
	s2 := math.Log(1 + cv*cv)
	return -s2 / 2, math.Sqrt(s2)
}
