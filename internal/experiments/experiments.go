// Package experiments regenerates every table (T*) and figure (F*) of the
// reconstructed evaluation (see DESIGN.md for the experiment index). Each
// experiment is a function from an Env to an Artifact — a table and/or
// figure data series — so the same code serves the `report` CLI, the
// benchmark harness, and the tests that assert the paper's claims.
package experiments

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/folding"
	"repro/internal/kernels"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Env is the common experiment environment. The zero value is upgraded to
// the defaults by setDefaults.
type Env struct {
	// Ranks is the number of simulated MPI ranks (default 16).
	Ranks int
	// Iters is the per-app iteration count (default 200).
	Iters int
	// Seed is the simulator seed (default 1).
	Seed uint64
}

func (e *Env) setDefaults() {
	if e.Ranks == 0 {
		e.Ranks = 16
	}
	if e.Iters == 0 {
		e.Iters = 200
	}
	if e.Seed == 0 {
		e.Seed = 1
	}
}

// Artifact is the output of one experiment: an optional table, optional
// figure series keyed by filename stem, and free-form notes.
type Artifact struct {
	ID      string
	Table   *report.Table
	Figures map[string][]report.Series
	Notes   []string
}

// Save writes the artifact under dir: <ID>.txt for the table,
// <ID>_<name>.tsv per figure, notes appended to the table file.
func (a *Artifact) Save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if a.Table != nil || len(a.Notes) > 0 {
		var b strings.Builder
		if a.Table != nil {
			b.WriteString(a.Table.Format())
		}
		for _, n := range a.Notes {
			b.WriteString("note: " + n + "\n")
		}
		if err := os.WriteFile(filepath.Join(dir, a.ID+".txt"), []byte(b.String()), 0o644); err != nil {
			return err
		}
	}
	for name, series := range a.Figures {
		path := filepath.Join(dir, a.ID+"_"+name+".tsv")
		if err := report.WriteSeriesTSV(path, series); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Shared helpers

// runApp simulates the named app under cfg (with the env seed applied).
func runApp(env Env, name string, cfg sim.Config) (*trace.Trace, sim.App, error) {
	app, err := apps.ByName(name, env.Iters)
	if err != nil {
		return nil, nil, err
	}
	cfg.Ranks = env.Ranks
	cfg.Seed = env.Seed
	tr, err := sim.Run(cfg, app)
	if err != nil {
		return nil, nil, err
	}
	return tr, app, nil
}

// analyzeApp simulates and analyzes the named app.
func analyzeApp(env Env, name string, cfg sim.Config) (*core.Report, sim.App, error) {
	tr, app, err := runApp(env, name, cfg)
	if err != nil {
		return nil, nil, err
	}
	rep, err := core.AnalyzeContext(context.Background(), tr, core.Options{})
	if err != nil {
		return nil, nil, err
	}
	return rep, app, nil
}

// kernelByID indexes an app's kernels by oracle id.
func kernelByID(app sim.App) map[int64]*kernels.Kernel {
	m := make(map[int64]*kernels.Kernel)
	for _, k := range app.Kernels() {
		m[k.ID] = k
	}
	return m
}

// dominantPhase returns the analyzed phase with the most instances whose
// majority oracle matches id, or nil.
func dominantPhase(rep *core.Report, id int64) *core.Phase {
	var best *core.Phase
	for i := range rep.Phases {
		ph := &rep.Phases[i]
		if ph.MajorityOracle == id && (best == nil || ph.Instances > best.Instances) {
			best = ph
		}
	}
	return best
}

// mainPhase returns the first (most-time) analyzed phase, or nil.
func mainPhase(rep *core.Report) *core.Phase {
	if len(rep.Phases) == 0 {
		return nil
	}
	return &rep.Phases[0]
}

// mainKernelID maps each app to the kernel its dominant cluster holds.
var mainKernelID = map[string]int64{
	"stencil": 1, // jacobi_sweep
	"nbody":   3, // forces
	"cg":      5, // spmv
}

// pct formats a fraction as a percentage string, keeping enough digits for
// sub-0.1% accuracies to stay visible.
func pct(f float64) string {
	v := 100 * f
	if v != 0 && v > -0.1 && v < 0.1 {
		return fmt.Sprintf("%.3f%%", v)
	}
	return fmt.Sprintf("%.1f%%", v)
}

// foldOf fetches a phase's fold for a counter, or nil.
func foldOf(ph *core.Phase, c counters.Counter) *folding.Result {
	if ph == nil {
		return nil
	}
	return ph.Folds[c]
}
