// Wavefront walkthrough: folding a pipelined (non-collective) code, and a
// non-monotone internal rate.
//
// The wavefront solver pipelines blocking sends/receives down a rank
// chain, so phase instances start at staggered times on every rank — the
// sampling clock decorrelates from phase starts "for free", which is
// exactly the property folding exploits. The block kernel's instruction
// rate oscillates (two diagonal passes), a shape that aggregate counters
// flatten completely; the folded derivative recovers both humps.
//
// Run with:
//
//	go run ./examples/wavefront
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
	const ranks, iters = 8, 150
	app := apps.NewWavefront(iters)
	tr, err := sim.Run(apps.DefaultTraceConfig(ranks), app)
	if err != nil {
		log.Fatal(err)
	}

	rep, err := core.AnalyzeContext(context.Background(), tr, core.Options{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("flat profile:\n%s\n", rep.Profile.Format())
	fmt.Println("repetition structure (verified before folding):")
	for _, l := range rep.Loops {
		fmt.Println("  " + l.String())
	}
	fmt.Printf("iterations: %d, mean %.2f ms (CV %.1f%%)\n\n",
		rep.Iterations.Count, rep.Iterations.MeanDuration/1e6, 100*rep.Iterations.CV)

	ph := rep.Phases[0] // the sweep blocks
	f := ph.Folds[counters.TotIns]
	if f == nil {
		log.Fatalf("fold failed: %v", ph.FoldErrors)
	}
	fmt.Printf("sweep-block phase: %d instances folded into %d points\n",
		f.Instances, len(f.Points))
	fmt.Print(report.ASCIIPlot("instruction rate (MIPS) — note the two diagonal passes",
		f.Grid, scale(f.Rate, 1e3), 72, 14))

	truth := app.Kernels()[0].ShapeOf(counters.TotIns)
	fmt.Printf("\nreconstruction vs ground truth: %.3f%% absolute mean difference\n",
		100*f.MeanAbsDiff(truth))

	// Pipeline stagger: the first block instance of each rank starts
	// later than its upstream neighbour's.
	first := map[int32]float64{}
	for _, in := range ph.FoldInstances {
		t := float64(in.Start) / 1e6
		if v, ok := first[in.Rank]; !ok || t < v {
			first[in.Rank] = t
		}
	}
	// The last rank's two blocks merge into one double-length burst (no
	// MPI between them), which clusters separately — it has no instances
	// in this phase, so print only the ranks that do.
	fmt.Printf("pipeline stagger (first block per rank, ms):")
	for r := int32(0); r < ranks; r++ {
		if t, ok := first[r]; ok {
			fmt.Printf(" %0.2f", t)
		} else {
			fmt.Printf(" —")
		}
	}
	fmt.Println()
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}
