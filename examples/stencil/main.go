// Stencil walkthrough: unveiling sub-phases hidden inside one burst.
//
// The stencil app's main computation — a 5 ms Jacobi sweep — looks like a
// single opaque burst to instrumentation-only tools: MPI probes bracket
// it, but nothing inside is monitored. This example shows the full
// methodology recovering its three internal sub-phases (dense update,
// memory-bound boundary fix-up, residual computation) from 20 ms sampling,
// then validates the reconstruction against the simulator's analytic
// ground truth, reproducing the paper's < 5% headline on this app.
//
// Run with:
//
//	go run ./examples/stencil
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/report"
	"repro/internal/sim"
)

func main() {
	const ranks, iters = 16, 200
	app := apps.NewStencil(iters)

	fmt.Println("=== generating trace (coarse 20 ms sampling) ===")
	tr, err := sim.Run(apps.DefaultTraceConfig(ranks), app)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%.2f s virtual time, %d samples (%.1f per rank)\n\n",
		float64(tr.Meta.Duration)/1e9, len(tr.Samples), float64(len(tr.Samples))/float64(ranks))

	rep, err := core.AnalyzeContext(context.Background(), tr, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	ph := rep.Phases[0]
	fmt.Printf("dominant phase: %d instances of mean %.2f ms\n", ph.Instances, ph.MeanDuration/1e6)
	fmt.Printf("a single instance contains %.2f samples on average — folding pools %d\n\n",
		avgSamples(ph), totalSamples(ph))

	// Folded views of instructions and L1 misses.
	for _, c := range []counters.Counter{counters.TotIns, counters.L1DCM} {
		f := ph.Folds[c]
		if f == nil {
			log.Fatalf("%s: %v", c, ph.FoldErrors[c])
		}
		fmt.Print(report.ASCIIPlot(
			fmt.Sprintf("%s rate per µs inside the sweep", c),
			f.Grid, scale(f.Rate, 1e3), 72, 10))
		fmt.Println()
	}

	// Validate against the analytic ground truth (the advantage of a
	// simulated substrate: the paper could only compare against very fine
	// sampling).
	truth := app.Kernels()[0] // jacobi_sweep
	fmt.Println("=== validation vs analytic ground truth ===")
	for _, c := range []counters.Counter{counters.TotIns, counters.FPOps, counters.L1DCM, counters.L2DCM} {
		f := ph.Folds[c]
		if f == nil {
			continue
		}
		d := f.MeanAbsDiff(truth.ShapeOf(c))
		marker := "✓"
		if d >= 0.05 {
			marker = "✗"
		}
		fmt.Printf("  %-14s absolute mean difference %.2f%%  %s (< 5%% claim)\n", c, 100*d, marker)
	}

	fmt.Println("\n=== what the analyst is told ===")
	for _, a := range ph.Advice {
		fmt.Println("  •", a)
	}
}

func avgSamples(ph core.Phase) float64 {
	n := 0
	for _, in := range ph.FoldInstances {
		n += len(in.Samples)
	}
	if len(ph.FoldInstances) == 0 {
		return 0
	}
	return float64(n) / float64(len(ph.FoldInstances))
}

func totalSamples(ph core.Phase) int {
	n := 0
	for _, in := range ph.FoldInstances {
		n += len(in.Samples)
	}
	return n
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}
