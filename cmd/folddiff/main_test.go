package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/deepeq"
	"repro/internal/diff"
	"repro/internal/sim"
)

// oldReport is json.Marshal of the stencil 4×60 report (default trace
// and analysis options) as saved before reports carried fold bands: it
// has the folded Points, Clustering.Features and Assign, and null StdErr.
const oldReport = "testdata/stencil-4x60-points.json"

// oldNoise is the Noise of each (phase, counter) delta that folddiff
// gave for oldReport against itself when it took the bands from the
// points in the diff itself; -1 where no cell has two points.
var oldNoise = map[string]float64{
	"1/PAPI_TOT_INS": 3.503209651811723e-07,
	"1/PAPI_L1_DCM":  9.242312852347768e-06,
	"1/PAPI_L2_DCM":  1.5867309879680217e-05,
	"1/PAPI_FP_OPS":  3.8921258750657106e-07,
	"2/PAPI_TOT_INS": -1,
	"2/PAPI_L1_DCM":  -1,
	"2/PAPI_FP_OPS":  -1,
}

// TestOldReportKeepsBands: a report saved before reports carried bands
// gets them from its points, equal to the bands a fold computes now, and
// diffs with the noise it always had, against itself and against the
// current report of the same trace.
func TestOldReportKeepsBands(t *testing.T) {
	old, ok := loadReport(oldReport)
	if !ok {
		t.Fatalf("%s is not loaded as a report", oldReport)
	}

	app, err := apps.ByName("stencil", 60)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sim.Run(apps.DefaultTraceConfig(4), app)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := core.Analyze(tr, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(fresh)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "current.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	cur, ok := loadReport(path)
	if !ok {
		t.Fatal("the current report is not loaded as a report")
	}

	for i, ph := range cur.Phases {
		for c, f := range ph.Folds {
			if d := deepeq.Diff(old.Phases[i].Folds[c].StdErr, f.StdErr); d != "" {
				t.Errorf("phase %d %s: bands from the saved points differ from the fold's at %s", ph.ClusterID, c, d)
			}
		}
	}
	for name, b := range map[string]*core.Report{"itself": old, "the current report": cur} {
		d, err := diff.Compare(old, b, diff.Options{Bins: 100})
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]float64{}
		for _, m := range d.Matched {
			for _, cd := range m.Counters {
				got[fmt.Sprintf("%d/%s", m.A.ClusterID, cd.Counter)] = cd.Noise
			}
		}
		if len(got) != len(oldNoise) {
			t.Errorf("against %s: %d counter deltas, want %d", name, len(got), len(oldNoise))
		}
		for k, want := range oldNoise {
			if got[k] != want {
				t.Errorf("against %s: %s noise %v, want %v", name, k, got[k], want)
			}
		}
	}
}
