package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/apps"
	"repro/internal/sim"
)

// TestStdinMatchesFile locks -in -: slicing a trace read from stdin (a
// pipe, whose size the decoder cannot know) writes the exact bytes that
// slicing the same trace read from a file writes.
func TestStdinMatchesFile(t *testing.T) {
	app, err := apps.ByName("stencil", 30)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sim.Run(apps.DefaultTraceConfig(3), app)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "in.uvt")
	if err := tr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	enc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	from := fmt.Sprintf("%dns", tr.Meta.Duration/4)
	to := fmt.Sprintf("%dns", tr.Meta.Duration*3/4)
	fromFile := filepath.Join(dir, "file.uvt")
	if err := run(path, from, to, fromFile, false); err != nil {
		t.Fatal(err)
	}

	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		pw.Write(enc)
		pw.Close()
	}()
	stdin := os.Stdin
	os.Stdin = pr
	defer func() { os.Stdin = stdin; pr.Close() }()
	fromStdin := filepath.Join(dir, "stdin.uvt")
	if err := run("-", from, to, fromStdin, false); err != nil {
		t.Fatal(err)
	}

	a, err := os.ReadFile(fromFile)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(fromStdin)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 || !bytes.Equal(a, b) {
		t.Fatalf("-in - wrote %d bytes differing from -in file's %d", len(b), len(a))
	}
}

// TestStreamLenientSalvages checks that -lenient survives a truncated
// input and reports the damage.
func TestStreamLenientSalvages(t *testing.T) {
	app, err := apps.ByName("stencil", 30)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sim.Run(apps.DefaultTraceConfig(2), app)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cut.uvt")
	if err := os.WriteFile(path, buf.Bytes()[:buf.Len()*3/5], 0o644); err != nil {
		t.Fatal(err)
	}

	if _, _, err := readInput(path, false); err == nil {
		t.Fatal("strict stream decoded a truncated trace")
	}
	got, stats, err := readInput(path, true)
	if err != nil {
		t.Fatalf("lenient stream failed: %v", err)
	}
	if !stats.Truncated {
		t.Errorf("truncation unreported: %+v", stats)
	}
	kept := len(got.Events) + len(got.Samples) + len(got.Comms)
	total := len(tr.Events) + len(tr.Samples) + len(tr.Comms)
	if kept == 0 || kept >= total {
		t.Errorf("salvaged %d of %d records, want a proper prefix", kept, total)
	}
	if got.Meta.App != tr.Meta.App {
		t.Errorf("metadata lost in salvage: %q", got.Meta.App)
	}
	var sink bytes.Buffer
	if err := got.Slice(0, got.Meta.Duration).Write(&sink); err != nil {
		t.Errorf("salvaged slice does not encode: %v", err)
	}
}
