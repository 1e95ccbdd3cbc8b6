// Customapp: defining your own workload against the public API.
//
// The three built-in applications cover the evaluation, but the library
// is meant to be used on *your* code: implement sim.App — declare kernel
// models (durations, counter totals, internal evolution shapes, imbalance)
// and drive the Rank API — and the whole pipeline (trace, clustering,
// folding, advice) works unchanged. This example builds a two-phase
// "ocean model" with a seasonal workload cycle and a master-worker I/O
// phase every 10th step, then shows the analysis catching all of it.
//
// Run with:
//
//	go run ./examples/customapp
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/kernels"
	"repro/internal/report"
	"repro/internal/sim"
)

// ocean is a toy ocean-circulation model: barotropic + baroclinic solves
// each step, and a serialized I/O gather every 10th step.
type ocean struct {
	iters      int
	barotropic *kernels.Kernel
	baroclinic *kernels.Kernel
	ioPack     *kernels.Kernel
}

func newOcean(iters int) *ocean {
	barotropic := &kernels.Kernel{
		Name:         "barotropic_solve",
		ID:           1,
		MeanDuration: 3_000_000,
		NoiseCV:      0.03,
	}
	barotropic.Counters[counters.TotIns] = kernels.CounterSpec{
		Total: 24_000_000,
		// 2-D solver: a smooth acceleration as the residual shrinks.
		Shape: counters.ExpDecay(-0.6, 0.4),
	}
	barotropic.Counters[counters.L1DCM] = kernels.CounterSpec{
		Total: 700_000,
		Shape: counters.ExpDecay(2, 0.25),
	}

	baroclinic := &kernels.Kernel{
		Name:         "baroclinic_levels",
		ID:           2,
		MeanDuration: 6_000_000,
		NoiseCV:      0.04,
		// Deeper columns near the equator: linear rank ramp.
		Imbalance: kernels.Linear(0.25),
	}
	baroclinic.Counters[counters.TotIns] = kernels.CounterSpec{
		Total: 55_000_000,
		Shape: counters.Piecewise(
			counters.Segment{Width: 0.7, Area: 0.8}, // level sweep
			counters.Segment{Width: 0.3, Area: 0.2}, // vertical mixing
		),
	}
	baroclinic.Counters[counters.L1DCM] = kernels.CounterSpec{Total: 1_500_000}
	baroclinic.Regions = []kernels.RegionSpan{
		{UpTo: 0.7, Name: "level_sweep"},
		{UpTo: 1.0, Name: "vertical_mixing"},
	}

	ioPack := &kernels.Kernel{
		Name:         "io_pack",
		ID:           3,
		MeanDuration: 1_000_000,
		NoiseCV:      0.05,
	}
	ioPack.Counters[counters.TotIns] = kernels.CounterSpec{Total: 2_000_000}

	return &ocean{iters: iters, barotropic: barotropic, baroclinic: baroclinic, ioPack: ioPack}
}

func (o *ocean) Name() string { return "ocean" }
func (o *ocean) Kernels() []*kernels.Kernel {
	return []*kernels.Kernel{o.barotropic, o.baroclinic, o.ioPack}
}

func (o *ocean) Run(r *sim.Rank) {
	for it := 0; it < o.iters; it++ {
		r.Iteration(it + 1)
		r.Compute(o.barotropic)
		r.Allreduce(8)
		r.Compute(o.baroclinic)
		next := (r.Rank() + 1) % r.Ranks()
		prev := (r.Rank() + r.Ranks() - 1) % r.Ranks()
		r.Sendrecv(next, 32<<10, prev, 11, 11)
		if it%10 == 9 {
			// Every 10th step: gather to rank 0 for output.
			r.Compute(o.ioPack)
			if r.Rank() == 0 {
				for src := 1; src < r.Ranks(); src++ {
					r.Recv(src, 99)
				}
			} else {
				r.Send(0, 256<<10, 99)
			}
			r.Barrier()
		}
	}
}

func main() {
	app := newOcean(120)
	cfg := sim.DefaultConfig(8)
	tr, err := sim.Run(cfg, app)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := core.AnalyzeContext(context.Background(), tr, core.Options{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("detected %d phases (SPMD score shown per structure below)\n", rep.Clustering.K)
	for _, ph := range rep.Phases {
		fmt.Printf("\nphase %d: %d instances, mean %.2f ms, imbalance %.2f\n",
			ph.ClusterID, ph.Instances, ph.MeanDuration/1e6, ph.ImbalanceFactor)
		if f := ph.Folds[counters.TotIns]; f != nil {
			fmt.Print(report.ASCIIPlot("  instruction rate (per µs)",
				f.Grid, scale(f.Rate, 1e3), 60, 8))
		}
		for _, a := range ph.Advice {
			fmt.Println("  •", a)
		}
	}

	// The master-worker I/O episode makes rank 0 structurally different
	// from the workers (its gather produces extra bursts), dropping the
	// SPMD score well below 1. The loop detector still recovers the
	// dominant [baroclinic, barotropic] body; the I/O episodes show up as
	// the match fraction staying below 100%.
	fmt.Printf("\nSPMD score: %.3f (rank 0 diverges at I/O steps)\n", rep.SPMDScore)
	for _, l := range rep.Loops {
		if l.Rank <= 1 {
			fmt.Println("structure:", l)
		}
	}
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}
