// Package apps defines the three synthetic-but-structured parallel
// applications the evaluation analyzes, standing in for the paper's three
// production codes (which are proprietary Fortran/C MPI applications we
// cannot run under a Go harness). Each app reproduces one behaviour class
// the folding methodology is designed to expose:
//
//   - Stencil: an iterative halo-exchange Jacobi solver whose main sweep
//     hides three sub-phases with different compute densities — folding
//     must recover the internal structure of a single opaque burst.
//   - NBody: a force computation with per-rank load imbalance plus a cheap
//     integration phase — per-rank folding exposes imbalance inside one
//     cluster.
//   - CG: a conjugate-gradient-style solver whose SpMV has a strong
//     cache-warm-up miss ramp — folding must recover a counter-rate drift
//     (L2 misses concentrated early in the phase).
package apps

import (
	"fmt"

	"repro/internal/counters"
	"repro/internal/kernels"
	"repro/internal/sim"
)

// ByName returns the named application ("stencil", "nbody", "cg" or
// "wavefront") running iters iterations.
func ByName(name string, iters int) (sim.App, error) {
	switch name {
	case "stencil":
		return NewStencil(iters), nil
	case "nbody":
		return NewNBody(iters), nil
	case "cg":
		return NewCG(iters), nil
	case "wavefront":
		return NewWavefront(iters), nil
	}
	return nil, fmt.Errorf("apps: unknown application %q (want stencil, nbody, cg or wavefront)", name)
}

// Names lists the available applications. The first three form the
// evaluation trio (see DESIGN.md); wavefront is an additional pipelined
// workload used by the examples.
func Names() []string { return []string{"stencil", "nbody", "cg", "wavefront"} }

// ---------------------------------------------------------------------------
// Stencil

// Stencil is an iterative Jacobi-style halo-exchange solver.
type Stencil struct {
	iters int
	sweep *kernels.Kernel
	pack  *kernels.Kernel
}

// NewStencil builds the stencil app with the given iteration count.
func NewStencil(iters int) *Stencil {
	sweep := &kernels.Kernel{
		Name:         "jacobi_sweep",
		ID:           1,
		MeanDuration: 5_000_000, // 5 ms
		NoiseCV:      0.03,
	}
	// Three internal sub-phases: the dense stencil update, a memory-bound
	// boundary fix-up, and the residual computation.
	sweep.Counters[counters.TotIns] = kernels.CounterSpec{
		Total: 50_000_000,
		Shape: counters.Piecewise(
			counters.Segment{Width: 0.55, Area: 0.68},
			counters.Segment{Width: 0.25, Area: 0.12},
			counters.Segment{Width: 0.20, Area: 0.20},
		),
	}
	sweep.Counters[counters.FPOps] = kernels.CounterSpec{
		Total: 28_000_000,
		Shape: counters.Piecewise(
			counters.Segment{Width: 0.55, Area: 0.75},
			counters.Segment{Width: 0.25, Area: 0.05},
			counters.Segment{Width: 0.20, Area: 0.20},
		),
	}
	sweep.Counters[counters.L1DCM] = kernels.CounterSpec{
		Total: 1_200_000,
		Shape: counters.ExpDecay(2.5, 0.2),
	}
	sweep.Counters[counters.L2DCM] = kernels.CounterSpec{
		Total: 180_000,
		Shape: counters.ExpDecay(4, 0.15),
	}
	sweep.Regions = []kernels.RegionSpan{
		{UpTo: 0.55, Name: "stencil_update"},
		{UpTo: 0.80, Name: "boundary_fix"},
		{UpTo: 1.00, Name: "residual"},
	}

	pack := &kernels.Kernel{
		Name:         "halo_pack",
		ID:           2,
		MeanDuration: 300_000, // 300 µs
		NoiseCV:      0.05,
	}
	pack.Counters[counters.TotIns] = kernels.CounterSpec{Total: 900_000}
	pack.Counters[counters.L1DCM] = kernels.CounterSpec{Total: 60_000, Shape: counters.Linear(1.5, 0.5)}
	pack.Counters[counters.FPOps] = kernels.CounterSpec{Total: 10_000}

	return &Stencil{iters: iters, sweep: sweep, pack: pack}
}

// Name implements sim.App.
func (a *Stencil) Name() string { return "stencil" }

// Kernels implements sim.App.
func (a *Stencil) Kernels() []*kernels.Kernel { return []*kernels.Kernel{a.sweep, a.pack} }

// Run implements sim.App: per iteration, pack halos, exchange with both
// ring neighbours, run the sweep, and reduce the residual.
func (a *Stencil) Run(r *sim.Rank) {
	n := r.Ranks()
	up := (r.Rank() + 1) % n
	down := (r.Rank() + n - 1) % n
	const halo = 16 << 10 // 16 KiB: eager
	for it := 0; it < a.iters; it++ {
		r.Iteration(it + 1)
		r.Compute(a.pack)
		if n > 1 {
			r.Sendrecv(up, halo, down, 100, 100)
			r.Sendrecv(down, halo, up, 101, 101)
		}
		r.Compute(a.sweep)
		r.Allreduce(8)
	}
}

// ---------------------------------------------------------------------------
// NBody

// NBody is a particle force computation with load imbalance.
type NBody struct {
	iters     int
	forces    *kernels.Kernel
	integrate *kernels.Kernel
}

// NewNBody builds the n-body app with the given iteration count.
func NewNBody(iters int) *NBody {
	forces := &kernels.Kernel{
		Name:         "forces",
		ID:           3,
		MeanDuration: 8_000_000, // 8 ms
		NoiseCV:      0.05,
		// Interaction counts vary per step, smearing the per-rank work
		// levels into one connected cluster (as real particle codes do).
		WorkNoiseCV: 0.06,
		Imbalance:   kernels.Triangular(0.5),
	}
	// The force loop walks a cell list sorted by interaction count, so the
	// instruction rate decreases across the phase.
	forces.Counters[counters.TotIns] = kernels.CounterSpec{
		Total: 120_000_000,
		Shape: counters.Linear(1.6, 0.4),
	}
	forces.Counters[counters.FPOps] = kernels.CounterSpec{
		Total: 90_000_000,
		Shape: counters.Linear(1.7, 0.3),
	}
	forces.Counters[counters.L1DCM] = kernels.CounterSpec{
		Total: 2_400_000,
		Shape: counters.Linear(0.6, 1.4), // misses grow as cells get sparser
	}
	forces.Counters[counters.L2DCM] = kernels.CounterSpec{
		Total: 300_000,
		Shape: counters.Linear(0.5, 1.5),
	}
	forces.Regions = []kernels.RegionSpan{
		{UpTo: 0.70, Name: "near_field"},
		{UpTo: 1.00, Name: "far_field"},
	}

	integrate := &kernels.Kernel{
		Name:         "integrate",
		ID:           4,
		MeanDuration: 1_200_000, // 1.2 ms
		NoiseCV:      0.03,
	}
	integrate.Counters[counters.TotIns] = kernels.CounterSpec{Total: 10_000_000}
	integrate.Counters[counters.FPOps] = kernels.CounterSpec{Total: 6_000_000}
	integrate.Counters[counters.L1DCM] = kernels.CounterSpec{Total: 150_000}

	return &NBody{iters: iters, forces: forces, integrate: integrate}
}

// Name implements sim.App.
func (a *NBody) Name() string { return "nbody" }

// Kernels implements sim.App.
func (a *NBody) Kernels() []*kernels.Kernel { return []*kernels.Kernel{a.forces, a.integrate} }

// Run implements sim.App.
func (a *NBody) Run(r *sim.Rank) {
	for it := 0; it < a.iters; it++ {
		r.Iteration(it + 1)
		r.Compute(a.forces)
		r.Allreduce(16) // energy + virial
		r.Compute(a.integrate)
		r.Bcast(0, 4096) // refreshed decomposition parameters
	}
}

// ---------------------------------------------------------------------------
// CG

// CG is a conjugate-gradient-style sparse solver.
type CG struct {
	iters   int
	spmv    *kernels.Kernel
	axpy    *kernels.Kernel
	precond *kernels.Kernel
}

// NewCG builds the CG app with the given iteration count.
func NewCG(iters int) *CG {
	spmv := &kernels.Kernel{
		Name:         "spmv",
		ID:           5,
		MeanDuration: 4_000_000, // 4 ms
		NoiseCV:      0.04,
	}
	spmv.Counters[counters.TotIns] = kernels.CounterSpec{
		Total: 30_000_000,
		Shape: counters.Piecewise(
			counters.Segment{Width: 0.30, Area: 0.22, Shape: counters.Linear(0.7, 1.3)},
			counters.Segment{Width: 0.70, Area: 0.78},
		),
	}
	spmv.Counters[counters.FPOps] = kernels.CounterSpec{Total: 16_000_000}
	// The irregular gather misses hard until the working set is resident.
	spmv.Counters[counters.L2DCM] = kernels.CounterSpec{
		Total: 800_000,
		Shape: counters.ExpDecay(6, 0.2),
	}
	spmv.Counters[counters.L1DCM] = kernels.CounterSpec{
		Total: 3_000_000,
		Shape: counters.ExpDecay(2, 0.3),
	}
	spmv.Regions = []kernels.RegionSpan{
		{UpTo: 0.30, Name: "gather"},
		{UpTo: 1.00, Name: "multiply"},
	}

	axpy := &kernels.Kernel{
		Name:         "axpy",
		ID:           6,
		MeanDuration: 900_000, // 0.9 ms
		NoiseCV:      0.03,
	}
	axpy.Counters[counters.TotIns] = kernels.CounterSpec{Total: 7_000_000}
	axpy.Counters[counters.FPOps] = kernels.CounterSpec{Total: 5_000_000}
	axpy.Counters[counters.L1DCM] = kernels.CounterSpec{Total: 400_000}

	precond := &kernels.Kernel{
		Name:         "precond",
		ID:           7,
		MeanDuration: 1_500_000, // 1.5 ms
		NoiseCV:      0.04,
	}
	precond.Counters[counters.TotIns] = kernels.CounterSpec{
		Total: 13_000_000,
		Shape: counters.ExpDecay(1.5, 0.3), // forward solve denser than back-substitution
	}
	precond.Counters[counters.FPOps] = kernels.CounterSpec{Total: 8_000_000}
	precond.Counters[counters.L1DCM] = kernels.CounterSpec{Total: 500_000}

	return &CG{iters: iters, spmv: spmv, axpy: axpy, precond: precond}
}

// Name implements sim.App.
func (a *CG) Name() string { return "cg" }

// Kernels implements sim.App.
func (a *CG) Kernels() []*kernels.Kernel {
	return []*kernels.Kernel{a.spmv, a.axpy, a.precond}
}

// Run implements sim.App: the classic preconditioned CG iteration
// skeleton, two dot-product reductions per iteration.
func (a *CG) Run(r *sim.Rank) {
	for it := 0; it < a.iters; it++ {
		r.Iteration(it + 1)
		r.Compute(a.spmv)
		r.Allreduce(8) // dot(p, Ap)
		r.Compute(a.axpy)
		r.Compute(a.precond)
		r.Allreduce(8) // dot(r, z)
	}
}

// DefaultTraceConfig returns the simulator configuration the evaluation
// uses unless an experiment overrides it: 16 ranks, 20 ms coarse sampling.
func DefaultTraceConfig(ranks int) sim.Config {
	cfg := sim.DefaultConfig(ranks)
	return cfg
}

// FineTraceConfig returns the fine-grain-sampling reference configuration:
// the same machine sampled every 50 µs (400× finer), with the same
// per-sample cost — the expensive baseline folding replaces.
func FineTraceConfig(ranks int) sim.Config {
	cfg := sim.DefaultConfig(ranks)
	cfg.Sampling.Period = 50_000
	return cfg
}

// UninstrumentedConfig returns the zero-observation configuration used to
// measure overhead dilation.
func UninstrumentedConfig(ranks int) sim.Config {
	cfg := sim.DefaultConfig(ranks)
	cfg.Sampling.Period = 0
	cfg.Instr.EventOverhead = 0
	cfg.Instr.Oracle = false
	return cfg
}
