// Command trstats prints a trace's flat profile and detected temporal
// structure — the quick first look an analyst takes before folding.
//
// The trace is consumed record by record through the streaming
// pipeline, never materialized; -in - reads stdin:
// tracegen -o - | trstats -in -.
//
// Usage:
//
//	trstats -in stencil.uvt [-min-duration 50] [-lenient]
//
// -lenient salvages damaged traces: undecodable records are skipped
// and the dropped-record summary is printed, instead of aborting. A
// salvaged trace whose flat profile cannot be computed (a rank cut off
// inside an MPI call) says so and still prints its structure.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/burst"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/profile"
	"repro/internal/structure"
	"repro/internal/trace"
)

func main() {
	var (
		in      = flag.String("in", "", "input trace file, - for stdin (required)")
		minDur  = flag.Float64("min-duration", 50, "burst duration filter in µs")
		lenient = flag.Bool("lenient", false, "salvage damaged traces: skip undecodable records and report what was dropped instead of aborting")
	)
	flag.Parse()
	if *in == "" {
		fatal(fmt.Errorf("missing -in"))
	}
	r := io.Reader(os.Stdin)
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r = f
	}
	if err := run(os.Stdout, r, trace.Time(*minDur*1e3), *lenient); err != nil {
		fatal(err)
	}
}

// run streams the trace read from r through the pipeline's map half,
// skipping sample attachment (this tool never needs the samples), and
// prints the first look to w. The trace is checked as it streams, like
// every whole-trace analysis: strict fails on the first violation, and
// lenient reports it after the salvage warnings.
func run(w io.Writer, r io.Reader, minDur trace.Time, lenient bool) error {
	mode := trace.Strict
	if lenient {
		mode = trace.Lenient
	}
	sr, err := trace.NewStreamReaderMode(r, mode)
	if err != nil {
		return err
	}
	chk := trace.Checked(sr, mode)
	out, err := pipeline.RunContext(context.Background(), chk, pipeline.Config{
		MinBurstDuration: minDur,
		NoSamples:        true,
	})
	if err != nil {
		return err
	}
	var warns []string
	if out.Decode != nil {
		warns = out.Decode.Warnings()
	}
	if err := chk.Err(); err != nil {
		warns = append(warns, core.ValidationWarning(err))
	}
	printDegraded(w, warns)
	fmt.Fprintf(w, "%s: %d ranks, %.3f s, %d events, %d samples, %d comms\n\n",
		out.Meta.App, out.Meta.Ranks, float64(out.Meta.Duration)/1e9,
		out.Records.Events, out.Records.Samples, out.Records.Comms)
	prof, err := profile.Merge([]*profile.Partial{out.ProfilePartial}, out.Meta.Duration)
	switch {
	case err == nil:
		fmt.Fprint(w, prof.Format())
	case lenient:
		// A salvaged trace often cannot profile (e.g. a rank truncated
		// mid-MPI); degrade instead of aborting — the structural stats
		// below still stand.
		fmt.Fprintf(w, "  ! flat profile unavailable: %s\n", err)
	default:
		return err
	}
	printIterations(w, structure.IterationsFromMarks(out.Marks))

	res := cluster.ClusterBursts(out.Kept, cluster.Config{UseIPC: true})
	if res.K == 0 && lenient && len(out.Kept) > 0 {
		// The duration-quantile split keeps a salvaged trace structured
		// where DBSCAN finds no phase, as the analysis engine does.
		res = cluster.QuantileFallback(out.Kept, 2)
	}
	printStructure(w, out.Kept, res.K)
	return nil
}

// printDegraded reports a lenient run's concessions, the decode
// salvage's first and then a failed validation, as fold does.
func printDegraded(w io.Writer, warns []string) {
	if len(warns) == 0 {
		return
	}
	fmt.Fprintln(w, "DEGRADED trace — results carry concessions:")
	for _, warn := range warns {
		fmt.Fprintln(w, "  !", warn)
	}
	fmt.Fprintln(w)
}

func printIterations(w io.Writer, its structure.IterationStats) {
	if its.Count > 0 {
		agree := ""
		if !its.RanksAgree {
			agree = " (ranks disagree!)"
		}
		fmt.Fprintf(w, "\niterations: %d%s, mean %.3f ms, CV %.1f%%\n",
			its.Count, agree, its.MeanDuration/1e6, 100*its.CV)
	}
}

// printStructure prints the phase count and the repetition structure of
// the labelled kept bursts.
func printStructure(w io.Writer, kept []burst.Burst, k int) {
	if len(kept) == 0 {
		fmt.Fprintln(w, "\nno bursts after filtering — nothing to structure")
		return
	}
	fmt.Fprintf(w, "\n%d bursts in %d phases; repetition structure:\n", len(kept), k)
	for _, l := range structure.DetectLoops(structure.Sequences(kept)) {
		fmt.Fprintln(w, "  "+l.String())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "trstats:", err)
	os.Exit(1)
}
