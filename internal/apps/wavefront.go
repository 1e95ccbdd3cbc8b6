package apps

import (
	"repro/internal/counters"
	"repro/internal/kernels"
	"repro/internal/sim"
)

// Wavefront is a Sweep3D-style pipelined solver: each iteration performs a
// forward and a backward sweep along a 1-D rank pipeline, where every rank
// waits for its upstream neighbour's block boundary, computes its own
// block, and forwards to the downstream neighbour. It exercises blocking
// point-to-point chains (the other apps are collective-dominated) and
// produces the staggered burst pattern characteristic of wavefront codes.
// The block kernel's instruction rate oscillates (two diagonal passes per
// block), giving folding a non-monotone-rate shape to reconstruct.
type Wavefront struct {
	iters int
	block *kernels.Kernel
}

// NewWavefront builds the wavefront app with the given iteration count.
func NewWavefront(iters int) *Wavefront {
	block := &kernels.Kernel{
		Name:         "sweep_block",
		ID:           8,
		MeanDuration: 2_500_000, // 2.5 ms
		NoiseCV:      0.04,
	}
	block.Counters[counters.TotIns] = kernels.CounterSpec{
		Total: 22_000_000,
		Shape: counters.Sine(0.45, 2), // two diagonal passes per block
	}
	block.Counters[counters.FPOps] = kernels.CounterSpec{
		Total: 15_000_000,
		Shape: counters.Sine(0.45, 2),
	}
	block.Counters[counters.L1DCM] = kernels.CounterSpec{
		Total: 900_000,
		Shape: counters.ExpDecay(1.2, 0.3),
	}
	block.Counters[counters.L2DCM] = kernels.CounterSpec{
		Total: 120_000,
		Shape: counters.ExpDecay(2, 0.25),
	}
	block.Regions = []kernels.RegionSpan{
		{UpTo: 0.5, Name: "diag_pass_1"},
		{UpTo: 1.0, Name: "diag_pass_2"},
	}
	return &Wavefront{iters: iters, block: block}
}

// Name implements sim.App.
func (a *Wavefront) Name() string { return "wavefront" }

// Kernels implements sim.App.
func (a *Wavefront) Kernels() []*kernels.Kernel { return []*kernels.Kernel{a.block} }

// Run implements sim.App: forward sweep down the pipeline, backward sweep
// up, then a residual reduction.
func (a *Wavefront) Run(r *sim.Rank) {
	const (
		tagFwd   = 300
		tagBwd   = 301
		boundary = 8 << 10 // 8 KiB block boundary: eager
	)
	n, id := r.Ranks(), r.Rank()
	for it := 0; it < a.iters; it++ {
		r.Iteration(it + 1)
		// Forward sweep: 0 → n-1.
		if id > 0 {
			r.Recv(id-1, tagFwd)
		}
		r.Compute(a.block)
		if id < n-1 {
			r.Send(id+1, boundary, tagFwd)
		}
		// Backward sweep: n-1 → 0.
		if id < n-1 {
			r.Recv(id+1, tagBwd)
		}
		r.Compute(a.block)
		if id > 0 {
			r.Send(id-1, boundary, tagBwd)
		}
		r.Allreduce(8)
	}
}
