// CG walkthrough: counter-rate drift (cache warm-up) inside a phase.
//
// The conjugate-gradient solver's SpMV kernel misses the L2 cache heavily
// while its working set streams in, then settles. An aggregate profile
// reports one average miss rate and hides the transient. This example
// folds the SpMV phase's L2 misses from coarse sampling, shows the
// reconstructed miss-rate ramp, compares a coarse-sampling fold against a
// fine-grain reference fold (the paper's comparison), and demonstrates
// reading a trace back from disk — the workflow a tool user follows.
//
// Run with:
//
//	go run ./examples/cg
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/folding"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/trace"
)

func main() {
	const ranks, iters = 16, 200

	// Generate the coarse trace, write it to disk and read it back — the
	// persistent-trace workflow.
	dir, err := os.MkdirTemp("", "cg-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "cg.uvt")

	app := apps.NewCG(iters)
	tr0, err := sim.Run(apps.DefaultTraceConfig(ranks), app)
	if err != nil {
		log.Fatal(err)
	}
	if err := tr0.WriteFile(path); err != nil {
		log.Fatal(err)
	}
	tr, err := trace.ReadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trace round-tripped through %s (%d samples)\n\n", path, len(tr.Samples))

	rep, err := core.AnalyzeContext(context.Background(), tr, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	spmv := findPhase(rep, 5 /* spmv oracle id */)
	if spmv == nil {
		log.Fatal("spmv phase not found")
	}
	f := spmv.Folds[counters.L2DCM]
	if f == nil {
		log.Fatalf("L2 fold: %v", spmv.FoldErrors)
	}

	fmt.Print(report.ASCIIPlot("L2 miss rate per µs inside SpMV (folded from 20 ms sampling)",
		f.Grid, scale(f.Rate, 1e3), 72, 12))
	fmt.Printf("\n%.0f%% of L2 misses happen in the first 20%% of the phase\n",
		100*f.Cumulative[len(f.Cumulative)/5])

	// The paper's comparison: coarse-sampling folding vs a fine-grain
	// sampling reference of the same run.
	trFine, err := sim.Run(apps.FineTraceConfig(ranks), apps.NewCG(iters))
	if err != nil {
		log.Fatal(err)
	}
	repFine, err := core.AnalyzeContext(context.Background(), trFine, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	spmvFine := findPhase(repFine, 5)
	if spmvFine == nil {
		log.Fatal("fine spmv phase not found")
	}
	ff := spmvFine.Folds[counters.L2DCM]
	d := folding.MeanAbsDiffResults(f, ff)
	fmt.Printf("coarse fold vs fine-grain reference: %.2f%% absolute mean difference (claim: < 5%%)\n",
		100*d)

	truth := app.Kernels()[0].ShapeOf(counters.L2DCM)
	fmt.Printf("coarse fold vs analytic ground truth: %.2f%%\n\n", 100*f.MeanAbsDiff(truth))

	fmt.Println("advice:")
	for _, a := range spmv.Advice {
		fmt.Println("  •", a)
	}
}

func findPhase(rep *core.Report, oracle int64) *core.Phase {
	var best *core.Phase
	for i := range rep.Phases {
		ph := &rep.Phases[i]
		if ph.MajorityOracle == oracle && (best == nil || ph.Instances > best.Instances) {
			best = ph
		}
	}
	return best
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}
