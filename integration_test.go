package repro

// End-to-end integration test: the complete tool-user workflow across
// every subsystem — simulate, persist, reload, export, window, profile,
// analyze, fold, and validate against ground truth — in one pass.

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"

	"repro/internal/apps"
	"repro/internal/burst"
	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/paraver"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/spectral"
	"repro/internal/structure"
	"repro/internal/trace"
)

func TestEndToEndWorkflow(t *testing.T) {
	const ranks, iters = 8, 120

	// 1. Measure: simulate the stencil under coarse sampling.
	app := apps.NewStencil(iters)
	tr, err := sim.Run(apps.DefaultTraceConfig(ranks), app)
	if err != nil {
		t.Fatal(err)
	}

	// 2. Persist, reload and export to Paraver.
	path := filepath.Join(t.TempDir(), "run.uvt")
	if err := tr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	tr, err = trace.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var prv bytes.Buffer
	if err := paraver.Encode(&prv, tr); err != nil {
		t.Fatal(err)
	}

	// 3. Window into the steady state (drop the first and last 10%).
	d := tr.Meta.Duration
	steady := tr.Slice(d/10, d-d/10)
	if err := steady.Validate(); err != nil {
		t.Fatal(err)
	}

	// 4. First look: flat profile and marker statistics.
	prof, err := profile.Compute(steady)
	if err != nil {
		t.Fatal(err)
	}
	if f := prof.MPIFraction(); f <= 0 || f >= 0.5 {
		t.Fatalf("MPI fraction = %g", f)
	}
	if its := structure.Iterations(steady); its.Count < iters*7/10 {
		t.Fatalf("steady-state iterations = %d", its.Count)
	}

	// 5. Marker-free period detection agrees with the iteration markers.
	bursts, err := burst.Extract(steady)
	if err != nil {
		t.Fatal(err)
	}
	period, _, err := spectral.DetectIterations(steady, bursts)
	if err != nil {
		t.Fatal(err)
	}
	markers := structure.Iterations(steady)
	if rel := (float64(period) - markers.MeanDuration) / markers.MeanDuration; rel > 0.1 || rel < -0.1 {
		t.Fatalf("spectral period off by %.1f%%", 100*rel)
	}

	// 6. Full analysis on the windowed trace.
	rep, err := core.AnalyzeContext(context.Background(), steady, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clustering.K < 2 {
		t.Fatalf("K = %d", rep.Clustering.K)
	}
	// Window cuts truncate each rank's sequence differently and a few
	// lognormal-tail bursts get demoted to noise, so even a perfectly
	// SPMD code lands slightly below 1 here.
	if rep.SPMDScore < 0.85 {
		t.Fatalf("SPMD score = %g", rep.SPMDScore)
	}
	ph := rep.Phases[0]
	f := ph.Folds[counters.TotIns]
	if f == nil {
		t.Fatalf("fold failed: %v", ph.FoldErrors)
	}

	// 7. The reconstruction matches the analytic ground truth within the
	// paper's headline bound — through the whole persist/slice pipeline.
	truth := app.Kernels()[0].ShapeOf(counters.TotIns)
	if diff := f.MeanAbsDiff(truth); diff > 0.05 {
		t.Fatalf("end-to-end fold diff = %.4f", diff)
	}
	if d := f.Diagnose(); d.SuspectAliasing {
		t.Fatalf("coverage diagnostics tripped: %+v", d)
	}
	if len(ph.Advice) == 0 {
		t.Fatal("no advice produced")
	}
}
