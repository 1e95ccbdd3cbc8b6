package experiments

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// smallEnv keeps the test runtime reasonable while leaving enough
// instances for folding to converge.
func smallEnv() Env { return Env{Ranks: 8, Iters: 100, Seed: 1} }

func TestAllExperimentsRegistered(t *testing.T) {
	all := All()
	if len(all) != 15 {
		t.Fatalf("experiments = %d, want 15", len(all))
	}
	seen := map[string]bool{}
	for _, e := range all {
		if e.ID == "" || e.Desc == "" || e.Run == nil {
			t.Fatalf("incomplete experiment %+v", e)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
	}
	for _, id := range []string{"T2", "F4", "F6"} {
		if _, err := ByID(id); err != nil {
			t.Fatalf("ByID(%s): %v", id, err)
		}
	}
	if _, err := ByID("T99"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestT2HeadlineClaim(t *testing.T) {
	art, err := T2Accuracy(smallEnv())
	if err != nil {
		t.Fatal(err)
	}
	if art.Table == nil || len(art.Table.Rows) != 12 { // 3 apps × 4 counters
		t.Fatalf("T2 rows = %d, want 12", len(art.Table.Rows))
	}
	// Every successful fold must satisfy the paper's < 5% claim vs fine
	// grain; n/a rows (counter absent in a phase) are allowed.
	for _, row := range art.Table.Rows {
		if row[2] == "n/a" {
			continue
		}
		v := parsePct(t, row[2])
		if v >= 5 {
			t.Errorf("%s/%s: vs fine grain = %s, want < 5%%", row[0], row[1], row[2])
		}
	}
}

func parsePct(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		t.Fatalf("bad percentage %q", s)
	}
	return v
}

func TestT3OverheadOrdering(t *testing.T) {
	art, err := T3Overhead(smallEnv())
	if err != nil {
		t.Fatal(err)
	}
	// Per app: uninstrumented <= instr_only <= coarse < fine.
	rows := art.Table.Rows
	if len(rows) != 12 { // 3 apps × 4 modes
		t.Fatalf("rows = %d", len(rows))
	}
	for a := 0; a < 3; a++ {
		base := parseFloat(t, rows[a*4][2])
		instr := parseFloat(t, rows[a*4+1][2])
		coarse := parseFloat(t, rows[a*4+2][2])
		fine := parseFloat(t, rows[a*4+3][2])
		if !(base <= instr && instr <= coarse && coarse < fine) {
			t.Fatalf("app %s: durations not ordered: %g %g %g %g",
				rows[a*4][0], base, instr, coarse, fine)
		}
		// Fine-grain sampling must be substantially more intrusive than
		// the coarse sampling folding needs. The per-sample cost is fixed,
		// so the sample-count ratio is the exact overhead ratio of the two
		// sampling modes (the table's duration column is rounded for
		// display, so assert on the counts).
		coarseSamples := parseFloat(t, rows[a*4+2][4])
		fineSamples := parseFloat(t, rows[a*4+3][4])
		if fineSamples < 50*coarseSamples {
			t.Fatalf("app %s: fine/coarse sample ratio %.1f× too low",
				rows[a*4][0], fineSamples/coarseSamples)
		}
		_ = instr
	}
}

func parseFloat(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("bad float %q", s)
	}
	return v
}

func TestF4PeriodSweepShape(t *testing.T) {
	env := smallEnv()
	env.Iters = 150
	art, err := F4PeriodSweep(env)
	if err != nil {
		t.Fatal(err)
	}
	acc := art.Figures["accuracy"]
	if len(acc) != 2 {
		t.Fatalf("accuracy series = %d", len(acc))
	}
	diffs := acc[0].Y
	spi := acc[1].Y
	if len(diffs) < 5 {
		t.Fatalf("too few sweep points: %d", len(diffs))
	}
	// Folding accuracy stays under 5% even at the coarsest period...
	for i, d := range diffs {
		if d >= 5 {
			t.Errorf("period %v ms: diff %.2f%% >= 5%%", acc[0].X[i], d)
		}
	}
	// ...while per-instance sample counts collapse below 1 (per-instance
	// analysis impossible — folding is what makes the reconstruction work).
	if spi[len(spi)-1] >= 1 {
		t.Errorf("coarsest period still has %.2f samples/instance", spi[len(spi)-1])
	}
	if spi[0] <= 1 {
		t.Errorf("finest period should have > 1 sample/instance, got %.2f", spi[0])
	}
}

func TestF5ConvergenceImproves(t *testing.T) {
	env := smallEnv()
	art, err := F5InstanceSweep(env)
	if err != nil {
		t.Fatal(err)
	}
	conv := art.Figures["convergence"][0]
	if len(conv.Y) < 4 {
		t.Fatalf("sweep points = %d", len(conv.Y))
	}
	// More instances → better (or equal) accuracy, comparing the sparsest
	// against the densest.
	if conv.Y[len(conv.Y)-1] > conv.Y[0] {
		t.Fatalf("accuracy did not improve with instances: %v", conv.Y)
	}
	// At 400 iterations the fold must satisfy the headline claim.
	if last := conv.Y[len(conv.Y)-1]; last >= 5 {
		t.Fatalf("converged accuracy %.2f%% >= 5%%", last)
	}
}

func TestT4FitAblation(t *testing.T) {
	art, err := T4FitAblation(smallEnv())
	if err != nil {
		t.Fatal(err)
	}
	if len(art.Table.Rows) != 3 {
		t.Fatalf("rows = %d", len(art.Table.Rows))
	}
	for _, row := range art.Table.Rows {
		if v := parsePct(t, row[1]); v >= 5 {
			t.Errorf("model %s diff %.2f%% >= 5%%", row[0], v)
		}
	}
}

func TestT5PruningHelps(t *testing.T) {
	art, err := T5PruneAblation(smallEnv())
	if err != nil {
		t.Fatal(err)
	}
	rows := art.Table.Rows
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	on := parsePct(t, rows[0][2])
	off := parsePct(t, rows[1][2])
	if on >= off {
		t.Fatalf("pruning did not help: on=%.2f%% off=%.2f%%", on, off)
	}
	if pruned := rows[0][1]; pruned == "0" {
		t.Fatal("pruning removed nothing")
	}
}

func TestT6ImbalanceTable(t *testing.T) {
	art, err := T6Imbalance(smallEnv())
	if err != nil {
		t.Fatal(err)
	}
	if len(art.Table.Rows) != 8 {
		t.Fatalf("rows = %d, want 8 (one per rank)", len(art.Table.Rows))
	}
	// Middle ranks slower than edge ranks (triangular imbalance).
	mid := parseFloat(t, art.Table.Rows[3][1])
	edge := parseFloat(t, art.Table.Rows[0][1])
	if mid <= edge*1.2 {
		t.Fatalf("imbalance not visible: mid %.2f vs edge %.2f ms", mid, edge)
	}
}

func TestF1F2F3F6ProduceFigures(t *testing.T) {
	env := smallEnv()
	env.Iters = 60
	for _, id := range []string{"F1", "F2", "F3", "F6"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		art, err := e.Run(env)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(art.Figures) == 0 {
			t.Fatalf("%s produced no figures", id)
		}
		for name, series := range art.Figures {
			if len(series) == 0 {
				t.Fatalf("%s/%s empty", id, name)
			}
			for _, s := range series {
				if len(s.X) != len(s.Y) {
					t.Fatalf("%s/%s/%s length mismatch", id, name, s.Name)
				}
			}
		}
	}
}

func TestT1ClusterQualityTable(t *testing.T) {
	env := smallEnv()
	env.Iters = 60
	art, err := T1ClusterQuality(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(art.Table.Rows) != 3 {
		t.Fatalf("rows = %d", len(art.Table.Rows))
	}
	for _, row := range art.Table.Rows {
		cov := parsePct(t, row[4])
		if cov < 90 {
			t.Errorf("%s: cluster time coverage %.1f%% < 90%%", row[0], cov)
		}
		pur := parsePct(t, row[6])
		if pur < 95 {
			t.Errorf("%s: phase-1 purity %.1f%% < 95%%", row[0], pur)
		}
	}
}

func TestT7NoiseStaysUnderClaim(t *testing.T) {
	art, err := T7NoiseSensitivity(smallEnv())
	if err != nil {
		t.Fatal(err)
	}
	ys := art.Figures["noise"][0].Y
	if len(ys) < 5 {
		t.Fatalf("noise points = %d", len(ys))
	}
	// Accuracy must degrade monotonically-ish and stay under the paper's
	// 5% bound up to σ = 2% of the phase total (index of sigma 0.02).
	if ys[0] >= ys[len(ys)-1] {
		t.Fatalf("noise did not degrade accuracy: %v", ys)
	}
	xs := art.Figures["noise"][0].X
	for i, x := range xs {
		if x <= 2.0 && ys[i] >= 5 {
			t.Fatalf("at σ=%.1f%% accuracy %.2f%% breaches the 5%% bound", x, ys[i])
		}
	}
}

func TestF7IterationAnatomy(t *testing.T) {
	env := smallEnv()
	env.Iters = 80
	art, err := F7IterationFolding(env)
	if err != nil {
		t.Fatal(err)
	}
	series := art.Figures["iteration"]
	if len(series) != 2 {
		t.Fatalf("series = %d", len(series))
	}
	cum := series[0].Y
	// The stencil iteration ends in an Allreduce wait: the cumulative
	// instruction curve must be (nearly) flat over the last few percent
	// and strictly rising through the sweep's core.
	n := len(cum)
	if cum[n-1]-cum[n-3] > 0.02 {
		t.Fatalf("no flat MPI tail: %v", cum[n-5:])
	}
	mid := cum[n/2]
	if mid < 0.05 || mid > 0.95 {
		t.Fatalf("mid-iteration cumulative %g implausible", mid)
	}
}

func TestF8SpectralMatchesMarkers(t *testing.T) {
	env := smallEnv()
	env.Iters = 80
	art, err := F8SpectralDetection(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(art.Table.Rows) != 3 {
		t.Fatalf("rows = %d", len(art.Table.Rows))
	}
	for _, row := range art.Table.Rows {
		if e := parsePct(t, row[3]); e > 10 {
			t.Errorf("%s: spectral error %.1f%% > 10%%", row[0], e)
		}
	}
}

func TestRunAllSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep")
	}
	env := Env{Ranks: 4, Iters: 30, Seed: 1}
	dir := t.TempDir()
	var arts []*Artifact
	for _, e := range All() {
		art, err := e.Run(env)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if err := art.Save(dir); err != nil {
			t.Fatalf("saving %s: %v", e.ID, err)
		}
		arts = append(arts, art)
	}
	// Every artifact produced its file(s).
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < len(arts) {
		t.Fatalf("saved files = %d < %d artifacts", len(entries), len(arts))
	}
}

func TestEnvDefaults(t *testing.T) {
	var e Env
	e.setDefaults()
	if e.Ranks != 16 || e.Iters != 200 || e.Seed != 1 {
		t.Fatalf("defaults = %+v", e)
	}
	custom := Env{Ranks: 4, Iters: 10, Seed: 7}
	custom.setDefaults()
	if custom.Ranks != 4 || custom.Iters != 10 || custom.Seed != 7 {
		t.Fatalf("custom env overwritten: %+v", custom)
	}
}

func TestArtifactSave(t *testing.T) {
	env := smallEnv()
	env.Iters = 40
	art, err := T4FitAblation(env)
	if err != nil {
		t.Fatal(err)
	}
	art.Figures = nil
	dir := t.TempDir()
	if err := art.Save(dir); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "T4.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "T4") {
		t.Fatalf("artifact file: %s", data)
	}
}
