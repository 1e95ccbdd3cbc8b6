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
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestRunMatchesBatchStructure runs the tool on stencil 4×40, once from
// a file and once from the same bytes on a reader that hides its size
// (as stdin does). Both must print the same text, and the burst count
// and phase count it prints must be those of cluster.ClusterBursts over
// burst.Filter(Extract) of the trace.
func TestRunMatchesBatchStructure(t *testing.T) {
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
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var fromFile, fromReader bytes.Buffer
	if err := run(&fromFile, f, minDur, false); err != nil {
		t.Fatal(err)
	}
	if err := run(&fromReader, struct{ io.Reader }{bytes.NewReader(enc.Bytes())}, minDur, false); err != nil {
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
	res := cluster.ClusterBursts(kept, cluster.Config{UseIPC: true})
	if res.K < 2 {
		t.Fatalf("reference clustering found %d phases, want at least 2", res.K)
	}
	want := fmt.Sprintf("\n%d bursts in %d phases; repetition structure:\n", len(kept), res.K)
	if out := fromFile.String(); !strings.Contains(out, want) {
		t.Errorf("output does not report %q:\n%s", strings.TrimSpace(want), out)
	}
}

// TestRunChecksTrace runs the tool on stencil 4×30 whose declared
// duration ends 1 ns before its last event. Like every whole-trace
// analysis, a strict run must fail with Validate's error, and a lenient
// one must print the validation warning after the salvage warnings.
func TestRunChecksTrace(t *testing.T) {
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

	err = run(io.Discard, bytes.NewReader(enc.Bytes()), 50_000, false)
	if !errors.Is(err, trace.ErrInvalid) || err.Error() != want.Error() {
		t.Fatalf("strict run = %v, want %v", err, want)
	}

	var out bytes.Buffer
	if err := run(&out, bytes.NewReader(enc.Bytes()), 50_000, true); err != nil {
		t.Fatal(err)
	}
	// Lenient decoding drops the event past the duration, so the check
	// sees the salvaged records, as fold -lenient's does.
	salvaged, st, err := trace.ReadFromLenient(bytes.NewReader(enc.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	verr := salvaged.Validate()
	if verr == nil {
		t.Fatal("the salvaged trace validates")
	}
	var head strings.Builder
	head.WriteString("DEGRADED trace — results carry concessions:\n")
	for _, w := range append(st.Warnings(), core.ValidationWarning(verr)) {
		head.WriteString("  ! " + w + "\n")
	}
	if got := out.String(); !strings.HasPrefix(got, head.String()) {
		t.Fatalf("lenient output does not open with\n%s\ngot:\n%s", head.String(), got)
	}
}
