package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/sim"
	"repro/internal/trace"
)

// stencilTrace encodes a stencil 4×30 run. With short set, its declared
// duration ends 1 ns before its last event, an MPI exit, which breaks
// Trace.Validate.
func stencilTrace(t *testing.T, short bool) []byte {
	t.Helper()
	app, err := apps.ByName("stencil", 30)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sim.Run(apps.DefaultTraceConfig(4), app)
	if err != nil {
		t.Fatal(err)
	}
	if short {
		tr.Meta.Duration = tr.Events[len(tr.Events)-1].Time - 1
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFoldIterationsChecksTrace: fold -iterations checks its trace like
// every whole-trace command. Strict, a trace that fails validation is
// an error naming the late event; lenient, the DEGRADED block lists the
// dropped event and then the validation warning, and the iterations are
// folded anyway; a clean trace prints what it printed before the check
// existed, strict or lenient.
func TestFoldIterationsChecksTrace(t *testing.T) {
	short := stencilTrace(t, true)
	var out bytes.Buffer
	err := foldIterations(&out, bytes.NewReader(short), "", 100, false)
	if !errors.Is(err, trace.ErrInvalid) || !strings.Contains(err.Error(), "after duration") {
		t.Fatalf("strict: err = %v, want a validation error naming the late event", err)
	}
	if out.Len() != 0 {
		t.Errorf("strict: printed %q before failing", out.String())
	}

	out.Reset()
	if err := foldIterations(&out, bytes.NewReader(short), "", 100, true); err != nil {
		t.Fatalf("lenient: %v", err)
	}
	lines := strings.Split(out.String(), "\n")
	if len(lines) < 6 || !strings.HasSuffix(lines[0], "whole iterations") ||
		lines[2] != "DEGRADED analysis — results carry concessions:" ||
		!strings.HasPrefix(lines[3], "  ! salvage decode: dropped 1 events") ||
		!strings.HasPrefix(lines[4], "  ! trace failed validation (") || lines[5] != "" {
		t.Errorf("lenient: output starts\n%s\nwant the header, then a DEGRADED block of the salvage and validation warnings",
			strings.Join(lines[:min(len(lines), 6)], "\n"))
	}

	// The digest of the output before the check existed.
	const want = "05430cb52802d4dc737e92410ed1f6064505b67b1a82043d212714225ab3471d"
	clean := stencilTrace(t, false)
	for _, lenient := range []bool{false, true} {
		out.Reset()
		if err := foldIterations(&out, bytes.NewReader(clean), "", 100, lenient); err != nil {
			t.Fatalf("clean, lenient %v: %v", lenient, err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(out.Bytes())); got != want {
			t.Errorf("clean, lenient %v: output digest %s, want %s:\n%s", lenient, got, want, out.String())
		}
	}
}
