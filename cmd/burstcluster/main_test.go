package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/burst"
	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestRunMatchesBatchClustering runs the tool on stencil 4×40, once from
// a file and once from the same bytes on a reader that hides its size
// (as stdin does). Both must print the same text, and the burst counts
// and phase count it prints must be those of cluster.ClusterBursts over
// burst.Filter(Extract) of the trace.
func TestRunMatchesBatchClustering(t *testing.T) {
	app, err := apps.ByName("stencil", 40)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sim.Run(apps.DefaultTraceConfig(4), app)
	if err != nil {
		t.Fatal(err)
	}
	var enc bytes.Buffer
	if err := tr.Write(&enc); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "in.uvt")
	if err := os.WriteFile(path, enc.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	const minDur trace.Time = 50_000
	ccfg := cluster.Config{MinPts: 4, UseIPC: true, Parallelism: 2}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var fromFile, fromReader bytes.Buffer
	if err := run(&fromFile, f, minDur, ccfg, ""); err != nil {
		t.Fatal(err)
	}
	if err := run(&fromReader, struct{ io.Reader }{bytes.NewReader(enc.Bytes())}, minDur, ccfg, ""); err != nil {
		t.Fatal(err)
	}
	if fromFile.String() != fromReader.String() {
		t.Fatalf("file and reader inputs print different text:\n%s\n---\n%s", fromFile.String(), fromReader.String())
	}

	all, err := burst.Extract(tr)
	if err != nil {
		t.Fatal(err)
	}
	kept, _ := burst.Filter{MinDuration: minDur}.Apply(all)
	res := cluster.ClusterBursts(kept, ccfg)
	if res.K < 2 {
		t.Fatalf("reference clustering found %d phases, want at least 2", res.K)
	}
	head := fmt.Sprintf("stencil: %d bursts (%d filtered,", len(all), len(all)-len(kept))
	if out := fromFile.String(); !strings.HasPrefix(out, head) || !strings.Contains(out, fmt.Sprintf(", K=%d,", res.K)) {
		t.Errorf("output does not report %q and K=%d:\n%s", head, res.K, out)
	}
}

// TestRunRejectsInvalidTrace runs the tool on stencil 4×30 whose
// declared duration ends 1 ns before its last event. Like every
// whole-trace analysis it must fail with Validate's error.
func TestRunRejectsInvalidTrace(t *testing.T) {
	app, err := apps.ByName("stencil", 30)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sim.Run(apps.DefaultTraceConfig(4), app)
	if err != nil {
		t.Fatal(err)
	}
	tr.Meta.Duration = tr.Events[len(tr.Events)-1].Time - 1
	want := tr.Validate()
	if want == nil {
		t.Fatal("the shortened trace validates")
	}
	var enc bytes.Buffer
	if err := tr.Write(&enc); err != nil {
		t.Fatal(err)
	}
	err = run(io.Discard, &enc, 50_000, cluster.Config{MinPts: 4, UseIPC: true}, "")
	if !errors.Is(err, trace.ErrInvalid) || err.Error() != want.Error() {
		t.Fatalf("run = %v, want %v", err, want)
	}
}
