package core

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/counters"
	"repro/internal/sim"
	"repro/internal/trace"
)

// analyzeApp runs an app under the default evaluation configuration and
// analyzes the trace.
func analyzeApp(t *testing.T, name string, iters int) *Report {
	t.Helper()
	app, err := apps.ByName(name, iters)
	if err != nil {
		t.Fatal(err)
	}
	cfg := apps.DefaultTraceConfig(8)
	tr, err := sim.Run(cfg, app)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := AnalyzeContext(context.Background(), tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestAnalyzeStencilFindsStructure(t *testing.T) {
	rep := analyzeApp(t, "stencil", 120)
	if rep.App != "stencil" || rep.Ranks != 8 {
		t.Fatalf("report header = %q/%d", rep.App, rep.Ranks)
	}
	// Two real phases (sweep + pack); the inter-sendrecv slivers are
	// filtered.
	if rep.Clustering.K < 2 {
		t.Fatalf("K = %d, want >= 2", rep.Clustering.K)
	}
	if rep.Filtered == 0 {
		t.Fatal("expected the tiny inter-exchange bursts to be filtered")
	}
	if rep.CoverageKept < 0.99 {
		t.Fatalf("filter discarded real computation: coverage = %g", rep.CoverageKept)
	}
	if rep.ClusterTimeCoverage < 0.95 {
		t.Fatalf("cluster coverage = %g", rep.ClusterTimeCoverage)
	}
	if len(rep.Phases) == 0 {
		t.Fatal("no phases analyzed")
	}
	// Phase 1 must be the sweep (dominant time), pure per oracle.
	p1 := rep.Phases[0]
	if p1.ClusterID != 1 {
		t.Fatalf("first phase id = %d", p1.ClusterID)
	}
	if p1.MajorityOracle != 1 { // jacobi_sweep kernel ID
		t.Fatalf("phase 1 oracle = %d, want 1 (jacobi_sweep)", p1.MajorityOracle)
	}
	if p1.OraclePurity < 0.99 {
		t.Fatalf("phase 1 purity = %g", p1.OraclePurity)
	}
	// 8 ranks × 120 iters = 960 sweep instances; DBSCAN may shed a few
	// lognormal-tail instances as noise.
	if p1.Instances < 930 || p1.Instances > 960 {
		t.Fatalf("phase 1 instances = %d, want ≈ 960", p1.Instances)
	}
	// The TOT_INS fold must exist and closely match the analytic shape.
	f, ok := p1.Folds[counters.TotIns]
	if !ok {
		t.Fatalf("TOT_INS fold missing (errors: %v)", p1.FoldErrors)
	}
	app := apps.NewStencil(1)
	shape := app.Kernels()[0].ShapeOf(counters.TotIns)
	if d := f.MeanAbsDiff(shape); d > 0.05 {
		t.Fatalf("TOT_INS fold diff = %.4f, want < 0.05 (the paper's headline)", d)
	}
	// Sub-phase structure detected (3 segments → >= 1 breakpoint).
	if len(f.Breakpoints) == 0 {
		t.Fatal("no sub-phase breakpoints detected in the sweep")
	}
	// Stacks folded and attributed to the three source regions.
	if p1.Stacks == nil || len(p1.Stacks.Regions) < 3 {
		t.Fatalf("stack folding incomplete: %+v", p1.Stacks)
	}
	// Advice mentions the internal structure.
	joined := strings.Join(p1.Advice, " | ")
	if !strings.Contains(joined, "sub-phase") && !strings.Contains(joined, "internal structure") {
		t.Fatalf("advice lacks structure insight: %v", p1.Advice)
	}
}

func TestAnalyzeNBodyReportsImbalance(t *testing.T) {
	rep := analyzeApp(t, "nbody", 100)
	if len(rep.Phases) == 0 {
		t.Fatal("no phases")
	}
	p1 := rep.Phases[0]
	if p1.MajorityOracle != 3 { // forces kernel
		t.Fatalf("dominant phase oracle = %d, want 3", p1.MajorityOracle)
	}
	if p1.ImbalanceFactor < 1.15 {
		t.Fatalf("imbalance factor = %g, want > 1.15", p1.ImbalanceFactor)
	}
	found := false
	for _, a := range p1.Advice {
		if strings.Contains(a, "imbalance") {
			found = true
		}
	}
	if !found {
		t.Fatalf("advice lacks imbalance: %v", p1.Advice)
	}
	// Triangular imbalance: middle ranks slowest.
	if p1.RankMeanDuration[3] <= p1.RankMeanDuration[0] {
		t.Fatal("rank mean durations do not show the triangular pattern")
	}
}

func TestAnalyzeCGReportsCacheWarmup(t *testing.T) {
	rep := analyzeApp(t, "cg", 120)
	if len(rep.Phases) == 0 {
		t.Fatal("no phases")
	}
	// Find the dominant spmv phase (oracle 5, most instances).
	var spmv *Phase
	for i := range rep.Phases {
		if rep.Phases[i].MajorityOracle == 5 &&
			(spmv == nil || rep.Phases[i].Instances > spmv.Instances) {
			spmv = &rep.Phases[i]
		}
	}
	if spmv == nil {
		t.Fatalf("no spmv phase found among %d phases", len(rep.Phases))
	}
	f, ok := spmv.Folds[counters.L2DCM]
	if !ok {
		t.Fatalf("L2 fold missing: %v", spmv.FoldErrors)
	}
	// ExpDecay(6, 0.2): ~44% of misses in the first 20% of time.
	if front := f.Cumulative[len(f.Cumulative)/5]; front < 0.4 {
		t.Fatalf("front-loaded misses not reconstructed: %.2f", front)
	}
	found := false
	for _, a := range spmv.Advice {
		if strings.Contains(a, "L2") || strings.Contains(a, "working-set") {
			found = true
		}
	}
	if !found {
		t.Fatalf("advice lacks cache insight: %v", spmv.Advice)
	}
}

func TestAnalyzeIncludesProfileAndStructure(t *testing.T) {
	rep := analyzeApp(t, "stencil", 60)
	if rep.Profile == nil {
		t.Fatalf("profile missing (ProfileErr: %q)", rep.ProfileErr)
	}
	if rep.ProfileErr != "" {
		t.Fatalf("ProfileErr = %q alongside a successful profile", rep.ProfileErr)
	}
	if f := rep.Profile.MPIFraction(); f <= 0 || f >= 0.5 {
		t.Fatalf("MPI fraction = %g", f)
	}
	if rep.Iterations.Count != 60 || !rep.Iterations.RanksAgree {
		t.Fatalf("iterations = %+v", rep.Iterations)
	}
	if len(rep.Loops) != 8 {
		t.Fatalf("loops = %d", len(rep.Loops))
	}
	for _, l := range rep.Loops {
		if l.Period != 2 {
			t.Fatalf("loop = %+v, want period 2 (pack, sweep)", l)
		}
	}
}

func TestAnalyzeInvalidTrace(t *testing.T) {
	tr := &trace.Trace{} // zero ranks
	if _, err := AnalyzeContext(context.Background(), tr, Options{}); err == nil {
		t.Fatal("invalid trace accepted")
	}
}

func TestAnalyzeEmptyTrace(t *testing.T) {
	b := trace.NewBuilder("empty", 2)
	tr := b.Build()
	rep, err := AnalyzeContext(context.Background(), tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Bursts != 0 || len(rep.Phases) != 0 {
		t.Fatalf("empty analysis = %+v", rep)
	}
}

func TestAnalyzeMaxPhases(t *testing.T) {
	app, _ := apps.ByName("cg", 60)
	tr, err := sim.Run(apps.DefaultTraceConfig(4), app)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := AnalyzeContext(context.Background(), tr, Options{MaxPhases: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Phases) != 1 {
		t.Fatalf("phases = %d, want 1", len(rep.Phases))
	}
}

func TestAnalyzeFoldErrorsRecorded(t *testing.T) {
	// nbody's integrate phase has zero L2 misses configured → the L2 fold
	// must fail gracefully and be recorded.
	rep := analyzeApp(t, "nbody", 80)
	var integ *Phase
	for i := range rep.Phases {
		if rep.Phases[i].MajorityOracle == 4 {
			integ = &rep.Phases[i]
		}
	}
	if integ == nil {
		t.Skip("integrate phase not among analyzed clusters")
	}
	if _, ok := integ.Folds[counters.L2DCM]; ok {
		t.Fatal("L2 fold should have failed for integrate")
	}
	if integ.FoldErrors[counters.L2DCM] == nil {
		t.Fatal("L2 fold error not recorded")
	}
}

func TestRateScaleMatchesKernels(t *testing.T) {
	// The folded mean rate (MeanTotal/MeanDuration) for the stencil sweep
	// must equal the kernel's configured instruction rate: 50M ins / 5 ms
	// = 10 ins/ns.
	rep := analyzeApp(t, "stencil", 100)
	f := rep.Phases[0].Folds[counters.TotIns]
	if f == nil {
		t.Fatal("no fold")
	}
	rate := f.MeanTotal / f.MeanDuration
	if math.Abs(rate-10) > 0.5 {
		t.Fatalf("mean instruction rate = %g ins/ns, want ≈ 10", rate)
	}
}
