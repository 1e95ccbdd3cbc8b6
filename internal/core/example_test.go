package core_test

import (
	"context"
	"fmt"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/sim"
)

// ExampleAnalyzeContext runs the full pipeline — simulate, extract bursts,
// cluster, fold — on the built-in stencil application and prints what the
// methodology unveils about its dominant phase.
func ExampleAnalyzeContext() {
	app := apps.NewStencil(60)
	tr, err := sim.Run(apps.DefaultTraceConfig(4), app)
	if err != nil {
		panic(err)
	}
	rep, err := core.AnalyzeContext(context.Background(), tr, core.Options{})
	if err != nil {
		panic(err)
	}
	ph := rep.Phases[0]
	f := ph.Folds[counters.TotIns]
	fmt.Printf("phases detected: %d\n", rep.Clustering.K)
	fmt.Printf("dominant phase: %d instances, purity %.0f%%\n", ph.Instances, 100*ph.OraclePurity)
	fmt.Printf("sub-phase breakpoints: %d\n", len(f.Breakpoints))
	fmt.Printf("iterations: %d (ranks agree: %v)\n", rep.Iterations.Count, rep.Iterations.RanksAgree)
	// Output:
	// phases detected: 2
	// dominant phase: 238 instances, purity 100%
	// sub-phase breakpoints: 1
	// iterations: 60 (ranks agree: true)
}
