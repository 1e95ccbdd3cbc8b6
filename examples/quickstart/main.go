// Quickstart: the five-minute tour of the library.
//
// It simulates a small iterative application with coarse (20 ms) sampling,
// runs the automated analysis pipeline — burst clustering to detect the
// application's structure, folding to reconstruct the internal evolution
// of each phase — and prints what was unveiled.
//
// Run with:
//
//	go run ./examples/quickstart
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
	// 1. Get a trace. Normally this comes from a measurement tool; here we
	//    simulate a 100-iteration stencil solver on 8 ranks, sampled every
	//    20 ms — far too coarse to see inside any single 5 ms kernel
	//    instance.
	app := apps.NewStencil(100)
	cfg := apps.DefaultTraceConfig(8)
	tr, err := sim.Run(cfg, app)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trace: %.2f s of virtual execution, %d samples total (%.1f per rank)\n",
		float64(tr.Meta.Duration)/1e9, len(tr.Samples),
		float64(len(tr.Samples))/float64(tr.Meta.Ranks))

	// 2. Analyze: clustering detects the phases, folding reconstructs
	//    their internals from the pooled coarse samples.
	rep, err := core.AnalyzeContext(context.Background(), tr, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("detected %d computation phases covering %.1f%% of compute time\n\n",
		rep.Clustering.K, 100*rep.ClusterTimeCoverage)

	// 3. Inspect the dominant phase.
	ph := rep.Phases[0]
	fmt.Printf("phase 1: %d instances, mean %.2f ms, IPC %.2f\n",
		ph.Instances, ph.MeanDuration/1e6, ph.MeanIPC)

	f := ph.Folds[counters.TotIns]
	if f == nil {
		log.Fatalf("folding failed: %v", ph.FoldErrors)
	}
	fmt.Printf("folded %d samples from %d instances into one synthetic instance\n",
		len(f.Points), f.Instances)
	fmt.Print(report.ASCIIPlot("instruction rate inside the phase (MIPS)",
		f.Grid, scale(f.Rate, 1e3), 72, 12))
	if len(f.Breakpoints) > 0 {
		fmt.Printf("sub-phase boundaries detected at normalized time %v\n", f.Breakpoints)
	}

	// 4. The methodology's output: automated advice.
	fmt.Println("\nadvice:")
	for _, a := range ph.Advice {
		fmt.Println("  •", a)
	}
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}
