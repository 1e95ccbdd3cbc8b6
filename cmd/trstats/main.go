// Command trstats prints a trace's flat profile and detected temporal
// structure — the quick first look an analyst takes before folding.
//
// With -stream the trace is consumed record by record through the
// streaming pipeline (stdin when -in is empty), never materializing it:
// tracegen -o - | trstats -stream.
//
// Usage:
//
//	trstats -in stencil.uvt [-lenient]
//	trstats -stream [-in stencil.uvt] [-lenient]
//
// -lenient salvages damaged traces: undecodable records are skipped
// and the dropped-record summary is printed, instead of aborting.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/burst"
	"repro/internal/cluster"
	"repro/internal/pipeline"
	"repro/internal/profile"
	"repro/internal/structure"
	"repro/internal/trace"
)

func main() {
	var (
		in      = flag.String("in", "", "input trace file (required unless -stream, which defaults to stdin)")
		minDur  = flag.Float64("min-duration", 50, "burst duration filter in µs")
		stream  = flag.Bool("stream", false, "consume the trace record-by-record (stdin when -in is empty or \"-\")")
		lenient = flag.Bool("lenient", false, "salvage damaged traces: skip undecodable records and report what was dropped instead of aborting")
	)
	flag.Parse()
	if *stream {
		streamStats(*in, *minDur, *lenient)
		return
	}
	if *in == "" {
		fatal(fmt.Errorf("missing -in"))
	}
	var tr *trace.Trace
	var err error
	if *lenient {
		var st trace.DecodeStats
		tr, st, err = trace.ReadFileLenient(*in)
		if err == nil {
			printSalvage(st)
		}
	} else {
		tr, err = trace.ReadFile(*in)
	}
	if err != nil {
		fatal(err)
	}
	st := tr.Stats()
	fmt.Printf("%s: %d ranks, %.3f s, %d events, %d samples, %d comms\n\n",
		tr.Meta.App, tr.Meta.Ranks, float64(st.Duration)/1e9, st.Events, st.Samples, st.Comms)

	p, err := profile.Compute(tr)
	if err != nil {
		fatal(err)
	}
	fmt.Print(p.Format())

	printIterations(structure.Iterations(tr))

	all, err := burst.Extract(tr)
	if err != nil {
		fatal(err)
	}
	kept, _ := burst.Filter{MinDuration: trace.Time(*minDur * 1e3)}.Apply(all)
	printStructure(kept, cluster.ClusterBursts(kept, cluster.Config{UseIPC: true}).K, nil)
}

// streamStats produces the same first look from a record stream via the
// analysis pipeline, skipping sample attachment (this tool never needs
// the samples).
func streamStats(in string, minDur float64, lenient bool) {
	r := io.Reader(os.Stdin)
	if in != "" && in != "-" {
		f, err := os.Open(in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r = f
	}
	mode := trace.Strict
	if lenient {
		mode = trace.Lenient
	}
	sr, err := trace.NewStreamReaderMode(r, mode)
	if err != nil {
		fatal(err)
	}
	out, err := pipeline.RunContext(context.Background(), sr, pipeline.Config{
		MinBurstDuration: trace.Time(minDur * 1e3),
		Cluster:          cluster.Config{UseIPC: true},
		NoSamples:        true,
		Lenient:          lenient,
	})
	if err != nil {
		fatal(err)
	}
	if out.Decode != nil {
		printSalvage(*out.Decode)
	}
	fmt.Printf("%s: %d ranks, %.3f s, %d events, %d samples, %d comms\n\n",
		out.Meta.App, out.Meta.Ranks, float64(out.Meta.Duration)/1e9,
		out.Records.Events, out.Records.Samples, out.Records.Comms)
	switch {
	case out.Profile != nil:
		fmt.Print(out.Profile.Format())
	case lenient:
		// A salvaged trace often cannot profile (e.g. a rank truncated
		// mid-MPI); degrade instead of aborting — the structural stats
		// below still stand.
		fmt.Printf("  ! flat profile unavailable: %s\n", out.ProfileErr)
	default:
		fatal(fmt.Errorf("%s", out.ProfileErr))
	}
	printIterations(out.Iterations)
	printStructure(out.Kept, out.Clustering.K, out.Loops)
}

// printSalvage reports what a lenient decode had to drop.
func printSalvage(st trace.DecodeStats) {
	if !st.Degraded() {
		return
	}
	fmt.Println("DEGRADED trace — salvage decoding made concessions:")
	for _, w := range st.Warnings() {
		fmt.Println("  !", w)
	}
	fmt.Println()
}

func printIterations(its structure.IterationStats) {
	if its.Count > 0 {
		agree := ""
		if !its.RanksAgree {
			agree = " (ranks disagree!)"
		}
		fmt.Printf("\niterations: %d%s, mean %.3f ms, CV %.1f%%\n",
			its.Count, agree, its.MeanDuration/1e6, 100*its.CV)
	}
}

// printStructure prints the phase count and repetition structure; loops
// may be precomputed (streaming) or derived here from the kept bursts.
func printStructure(kept []burst.Burst, k int, loops []structure.Loop) {
	if len(kept) == 0 {
		fmt.Println("\nno bursts after filtering — nothing to structure")
		return
	}
	if loops == nil {
		loops = structure.DetectLoops(structure.Sequences(kept))
	}
	fmt.Printf("\n%d bursts in %d phases; repetition structure:\n", len(kept), k)
	for _, l := range loops {
		fmt.Println("  " + l.String())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "trstats:", err)
	os.Exit(1)
}
