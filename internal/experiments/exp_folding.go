package experiments

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/folding"
	"repro/internal/report"
	"repro/internal/sim"
)

// foldPair runs one app under the coarse and fine configurations and
// returns the main-kernel phase of each analysis plus the app handle.
func foldPair(env Env, name string) (coarse, fine *core.Phase, app sim.App, err error) {
	repC, app, err := analyzeApp(env, name, apps.DefaultTraceConfig(env.Ranks))
	if err != nil {
		return nil, nil, nil, err
	}
	repF, _, err := analyzeApp(env, name, apps.FineTraceConfig(env.Ranks))
	if err != nil {
		return nil, nil, nil, err
	}
	id := mainKernelID[name]
	coarse = dominantPhase(repC, id)
	fine = dominantPhase(repF, id)
	if coarse == nil || fine == nil {
		return nil, nil, nil, fmt.Errorf("experiments: %s main phase missing (coarse=%v fine=%v)", name, coarse != nil, fine != nil)
	}
	return coarse, fine, app, nil
}

// F2FoldedCurves overlays, for each app's main phase, the folded
// cumulative instruction curve from coarse sampling, the fine-grain
// sampling reference, and the analytic ground truth.
func F2FoldedCurves(env Env) (*Artifact, error) {
	env.setDefaults()
	art := &Artifact{ID: "F2", Figures: map[string][]report.Series{}}
	for _, name := range []string{"stencil", "nbody", "cg"} {
		coarse, fine, app, err := foldPair(env, name)
		if err != nil {
			return nil, err
		}
		fc := foldOf(coarse, counters.TotIns)
		ff := foldOf(fine, counters.TotIns)
		if fc == nil || ff == nil {
			return nil, fmt.Errorf("experiments: %s TOT_INS fold failed (coarse errs %v, fine errs %v)",
				name, coarse.FoldErrors, fine.FoldErrors)
		}
		truth := kernelByID(app)[mainKernelID[name]].ShapeOf(counters.TotIns)
		truthY := make([]float64, len(fc.Grid))
		for i, x := range fc.Grid {
			truthY[i] = truth.Integral(x)
		}
		art.Figures[name] = []report.Series{
			{Name: "folding_coarse", X: fc.Grid, Y: fc.Cumulative},
			{Name: "fine_grain", X: ff.Grid, Y: ff.Cumulative},
			{Name: "ground_truth", X: fc.Grid, Y: truthY},
		}
		art.Notes = append(art.Notes, fmt.Sprintf(
			"%s: coarse-vs-fine diff %.2f%%, coarse-vs-truth diff %.2f%% (%d coarse instances, %d folded points)",
			name, 100*folding.MeanAbsDiffResults(fc, ff), 100*fc.MeanAbsDiff(truth),
			fc.Instances, len(fc.Points)))
	}
	return art, nil
}

// F3Rates derives the instantaneous MIPS and L1-miss-rate evolution inside
// the stencil sweep from the folded curves, with detected sub-phase
// boundaries.
func F3Rates(env Env) (*Artifact, error) {
	env.setDefaults()
	rep, _, err := analyzeApp(env, "stencil", apps.DefaultTraceConfig(env.Ranks))
	if err != nil {
		return nil, err
	}
	ph := dominantPhase(rep, mainKernelID["stencil"])
	fIns := foldOf(ph, counters.TotIns)
	fL1 := foldOf(ph, counters.L1DCM)
	if fIns == nil || fL1 == nil {
		return nil, fmt.Errorf("experiments: stencil folds missing")
	}
	// Rates come out in counts per nanosecond; 1 ins/ns = 1000 MIPS.
	mips := scale(fIns.Rate, 1e3)
	art := &Artifact{ID: "F3", Figures: map[string][]report.Series{
		"rates": {
			{Name: "MIPS", X: fIns.Grid, Y: mips},
			{Name: "L1_misses_per_us", X: fL1.Grid, Y: scale(fL1.Rate, 1e3)},
		},
	}}
	for _, b := range fIns.Breakpoints {
		art.Notes = append(art.Notes, fmt.Sprintf("instruction-rate breakpoint at x=%.2f", b))
	}
	tb := &report.Table{
		Title:  "F3: instantaneous rates inside stencil jacobi_sweep (from folding)",
		Header: []string{"x", "MIPS", "L1_miss/us"},
	}
	for i := 0; i < len(fIns.Grid); i += 10 {
		tb.AddRow(fIns.Grid[i], mips[i], fL1.Rate[i]*1e3)
	}
	art.Table = tb
	return art, nil
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

// T2Accuracy is the headline table: for every app × counter, the absolute
// mean difference between the coarse-sampling fold and (a) the fine-grain
// sampling reference and (b) the analytic ground truth. The paper claims
// (a) < 5%.
func T2Accuracy(env Env) (*Artifact, error) {
	env.setDefaults()
	tb := &report.Table{
		Title:  "T2: folding accuracy (absolute mean difference; paper claims < 5% vs fine grain)",
		Header: []string{"app", "counter", "vs_fine_grain", "vs_ground_truth", "instances", "points"},
	}
	art := &Artifact{ID: "T2", Table: tb}
	worst := 0.0
	for _, name := range []string{"stencil", "nbody", "cg"} {
		coarse, fine, app, err := foldPair(env, name)
		if err != nil {
			return nil, err
		}
		k := kernelByID(app)[mainKernelID[name]]
		for _, c := range []counters.Counter{counters.TotIns, counters.FPOps, counters.L1DCM, counters.L2DCM} {
			fc := foldOf(coarse, c)
			ff := foldOf(fine, c)
			if fc == nil || ff == nil {
				tb.AddRow(name, c.String(), "n/a", "n/a", 0, 0)
				continue
			}
			dFine := folding.MeanAbsDiffResults(fc, ff)
			dTruth := fc.MeanAbsDiff(k.ShapeOf(c))
			if dFine > worst {
				worst = dFine
			}
			tb.AddRow(name, c.String(), pct(dFine), pct(dTruth), fc.Instances, len(fc.Points))
		}
	}
	art.Notes = append(art.Notes, fmt.Sprintf("worst-case vs fine grain: %.2f%% (claim: < 5%%)", 100*worst))
	return art, nil
}

// T3Overhead measures observation-induced runtime dilation: the same app
// run uninstrumented, with probes only, with probes + coarse sampling
// (the folding input), and with probes + fine-grain sampling.
func T3Overhead(env Env) (*Artifact, error) {
	env.setDefaults()
	tb := &report.Table{
		Title:  "T3: runtime dilation of observation modes (vs uninstrumented)",
		Header: []string{"app", "mode", "duration_s", "dilation", "samples"},
	}
	art := &Artifact{ID: "T3", Table: tb}
	for _, name := range []string{"stencil", "nbody", "cg"} {
		base, _, err := runApp(env, name, apps.UninstrumentedConfig(env.Ranks))
		if err != nil {
			return nil, err
		}
		baseDur := float64(base.Meta.Duration)

		modes := []struct {
			label string
			cfg   sim.Config
		}{
			{"instr_only", instrOnlyConfig(env.Ranks)},
			{"coarse_sampling(folding)", apps.DefaultTraceConfig(env.Ranks)},
			{"fine_sampling", apps.FineTraceConfig(env.Ranks)},
		}
		tb.AddRow(name, "uninstrumented", baseDur/1e9, pct(0), 0)
		for _, m := range modes {
			tr, _, err := runApp(env, name, m.cfg)
			if err != nil {
				return nil, err
			}
			d := float64(tr.Meta.Duration)
			tb.AddRow(name, m.label, d/1e9, pct(d/baseDur-1), len(tr.Samples))
		}
	}
	art.Notes = append(art.Notes,
		"folding consumes the coarse-sampling trace; fine sampling is the overhead it avoids")
	return art, nil
}

func instrOnlyConfig(ranks int) sim.Config {
	cfg := apps.DefaultTraceConfig(ranks)
	cfg.Sampling.Period = 0
	return cfg
}
