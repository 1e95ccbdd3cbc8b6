package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/apps"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false},
		{19, 0, false},
		{20, 50, true},
		{99, 50, true},
		{100, 90, true},
		{120, 90, true},
		{999, 90, true},
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
	} {
		got, ok := tailPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, tc := range []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {100, 5}, {90, 4.6}, {25, 2},
	} {
		if got := percentile(xs, tc.p); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if xs[0] != 4 {
		t.Errorf("percentile sorted its input in place")
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v, want 0", got)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "analysis", Start: 0, End: 10},
		{ID: 2, Parent: 1, Start: 1, End: 3},
		{ID: 3, Parent: 1, Start: 2, End: 5},   // overlaps span 2: counted once
		{ID: 4, Parent: 1, Start: 8, End: 12},  // clipped to the parent's end
		{ID: 5, Parent: 2, Start: 1, End: 2},   // a grandchild does not count for 1
		{ID: 6, Parent: 0, Start: 20, End: 21}, // another root
	}
	for _, tc := range []struct {
		id   int
		want float64
	}{
		{1, 10 - (4 + 2)},
		{2, 2 - 1},
		{3, 3},
		{6, 1},
	} {
		if got := selfTime(spans, tc.id); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("selfTime(%d) = %v, want %v", tc.id, got, tc.want)
		}
	}
	tr := &tracer{spans: spans}
	if got := tr.blockingTotals("analysis"); len(got) != 1 || got[0] != 6 {
		t.Errorf("blockingTotals = %v, want [6]", got)
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	root := tr.begin("analysis", 0, 1)
	d := tr.timed("core.Reduce", root, 1, func() {})
	tr.end(root)
	if len(tr.spans) != 2 || tr.spans[1].Parent != root || tr.spans[1].Op != 1 || d < 0 {
		t.Fatalf("spans = %+v", tr.spans)
	}
	path := filepath.Join(t.TempDir(), "spans", "x.jsonl")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), "\n"); n != 2 {
		t.Errorf("span log has %d lines, want 2", n)
	}
}

func TestValidName(t *testing.T) {
	for _, s := range []string{"setup_s", "core.map_s", "bench.span_sum_ratio", "lag-p50", "9x"} {
		if !validName(s) {
			t.Errorf("validName(%q) = false", s)
		}
	}
	for _, s := range []string{"", "_x", ".x", "a b", "a/b", "lag%", "é", strings.Repeat("a", 65)} {
		if validName(s) {
			t.Errorf("validName(%q) = true", s)
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !validName(d.name) || !validUnit(d.unit) {
			t.Errorf("metric %q with unit %q is malformed", d.name, d.unit)
		}
	}
}

func TestCoverage(t *testing.T) {
	appends := []appendSeen{
		{due: 0.0, events: 10},
		{due: 0.1, events: 20},
		{due: 0.2, err: errors.New("refused")}, // never acknowledged: skipped
		{due: 0.3, events: 20},                 // no new events: the next snapshot after its due time
		{due: 0.4, events: 35},
		{due: 0.5, events: 50}, // beyond every snapshot
	}
	snaps := []snapSeen{
		{at: 0.05, events: 10},
		{at: 0.25, events: 20}, // arrives before the fourth append was due
		{at: 0.45, events: 30},
		{at: 0.70, events: 40},
	}
	lags, uncovered := coverage(appends, snaps)
	want := []float64{0.05, 0.15, 0.15, 0.30}
	if uncovered != 1 || len(lags) != len(want) {
		t.Fatalf("coverage = %v, %d uncovered; want %v, 1", lags, uncovered, want)
	}
	for i := range want {
		if math.Abs(lags[i]-want[i]) > 1e-12 {
			t.Errorf("lag %d = %v, want %v", i, lags[i], want[i])
		}
	}
	if lags, uncovered := coverage(appends[:2], nil); len(lags) != 0 || uncovered != 2 {
		t.Errorf("with no snapshots: %v, %d uncovered; want none covered, 2", lags, uncovered)
	}
}

func TestParseProm(t *testing.T) {
	text := `# HELP foldsvc_session_snapshots_total Report snapshots.
# TYPE foldsvc_session_snapshots_total counter
foldsvc_session_snapshots_total 53
foldsvc_session_journal_fsync_seconds_bucket{le="0.005"} 90
foldsvc_session_journal_fsync_seconds_sum 0.51
foldsvc_session_journal_fsync_seconds_count 120
parallel_pool_gets{type="float64"} 1.5e+06
`
	got, err := parseProm(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range map[string]float64{
		"foldsvc_session_snapshots_total":                          53,
		`foldsvc_session_journal_fsync_seconds_bucket{le="0.005"}`: 90,
		"foldsvc_session_journal_fsync_seconds_sum":                0.51,
		"foldsvc_session_journal_fsync_seconds_count":              120,
		`parallel_pool_gets{type="float64"}`:                       1.5e6,
	} {
		if got[k] != v {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
	if _, err := parseProm(strings.NewReader("novalue\n")); err == nil {
		t.Error("a line without a value parsed")
	}
}

// TestMetricListsMatchBenchmarkJSON keeps BENCHMARK.json, which names the
// benchmark's command, workloads and metrics, in step with what the
// program reports.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(what string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, doc.Workloads[i].Name, w.name)
		}
	}
}

// TestCoarseLargeIsBenchLarge checks that seed 1 of coarse-large (and of
// online-stream, which shares its input) encodes to exactly the bytes
// of tracegen -preset bench-large.
func TestCoarseLargeIsBenchLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the 19.5 MB bench-large trace twice")
	}
	out := filepath.Join(t.TempDir(), "bench-large.uvt")
	cmd := exec.Command("go", "run", "repro/cmd/tracegen", "-preset", apps.BenchLargeName, "-o", out)
	if msg, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("tracegen: %v\n%s", err, msg)
	}
	want, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"coarse-large", "online-stream"} {
		w, err := workloadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		in, err := w.generate(1)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(in.enc, want) {
			t.Errorf("%s seed 1: %d bytes (sha256 %x), tracegen: %d bytes (sha256 %x)",
				name, len(in.enc), sha256.Sum256(in.enc), len(want), sha256.Sum256(want))
		}
	}
}
