// Command trslice extracts a time window from a trace (e.g. the steady
// state after initialization), writing a new re-based trace.
//
// Usage:
//
//	trslice -in app.uvt -from 2.5s -to 10s -o steady.uvt
//	tracegen -app stencil -o - | trslice -in - -from 2.5s -to 10s -o steady.uvt
//
// Windows accept "s", "ms", "us"/"µs" and "ns" suffixes (bare numbers are
// seconds).
//
// The input is decoded record by record as it is read; -in - reads
// stdin, and the written slice is byte-identical to a file input's.
// -lenient salvages damaged inputs: undecodable records are skipped,
// validation failures are tolerated with a warning, and the salvage
// tally is printed instead of aborting on the first fault.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/trace"
)

func main() {
	var (
		in      = flag.String("in", "", "input trace file, - for stdin (required)")
		from    = flag.String("from", "0", "window start (e.g. 2.5s, 300ms)")
		to      = flag.String("to", "", "window end (default: trace end)")
		out     = flag.String("o", "", "output trace file (required)")
		lenient = flag.Bool("lenient", false, "salvage damaged traces: skip undecodable records, tolerate validation failures, and report the salvage tally instead of aborting")
	)
	flag.Parse()
	if *out == "" {
		fatal(fmt.Errorf("missing -o"))
	}
	if *in == "" {
		fatal(fmt.Errorf("missing -in"))
	}
	if err := run(*in, *from, *to, *out, *lenient); err != nil {
		fatal(err)
	}
}

// run slices the trace read from in ("-" for stdin) to the window
// [from, to) and writes the slice to out.
func run(in, from, to, out string, lenient bool) error {
	tr, stats, err := readInput(in, lenient)
	if err != nil {
		return err
	}
	if lenient && stats.Degraded() {
		fmt.Fprintf(os.Stderr, "trslice: salvaged a damaged trace: %d records dropped, truncated=%v, bad sections=%d\n",
			stats.Dropped(), stats.Truncated, stats.BadSections)
	}
	f, err := parseTime(from)
	if err != nil {
		return fmt.Errorf("bad -from: %w", err)
	}
	t := tr.Meta.Duration
	if to != "" {
		t, err = parseTime(to)
		if err != nil {
			return fmt.Errorf("bad -to: %w", err)
		}
	}
	sl := tr.Slice(f, t)
	if err := sl.Validate(); err != nil {
		if !lenient {
			return fmt.Errorf("sliced trace invalid: %w", err)
		}
		fmt.Fprintf(os.Stderr, "trslice: sliced trace failed validation (%v); writing anyway\n", err)
	}
	if err := sl.WriteFile(out); err != nil {
		return err
	}
	st := sl.Stats()
	fmt.Printf("wrote %s: window [%s, %s) → %.3f s, %d events, %d samples, %d comms\n",
		out, from, to, float64(st.Duration)/1e9, st.Events, st.Samples, st.Comms)
	return nil
}

// readInput decodes the input trace as it is read from path ("-" for
// stdin), salvaging a damaged one when lenient.
func readInput(path string, lenient bool) (*trace.Trace, trace.DecodeStats, error) {
	r := io.Reader(os.Stdin)
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, trace.DecodeStats{}, err
		}
		defer f.Close()
		r = f
	}
	if lenient {
		return trace.ReadFromLenient(r)
	}
	tr, err := trace.ReadFrom(r)
	return tr, trace.DecodeStats{}, err
}

// parseTime converts a human time string to virtual nanoseconds.
func parseTime(s string) (trace.Time, error) {
	mult := 1e9 // bare numbers are seconds
	switch {
	case strings.HasSuffix(s, "ns"):
		s, mult = strings.TrimSuffix(s, "ns"), 1
	case strings.HasSuffix(s, "us"):
		s, mult = strings.TrimSuffix(s, "us"), 1e3
	case strings.HasSuffix(s, "µs"):
		s, mult = strings.TrimSuffix(s, "µs"), 1e3
	case strings.HasSuffix(s, "ms"):
		s, mult = strings.TrimSuffix(s, "ms"), 1e6
	case strings.HasSuffix(s, "s"):
		s, mult = strings.TrimSuffix(s, "s"), 1e9
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		return 0, err
	}
	if v < 0 {
		return 0, fmt.Errorf("negative time %q", s)
	}
	return trace.Time(v * mult), nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "trslice:", err)
	os.Exit(1)
}
