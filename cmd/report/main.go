// Command report regenerates the reconstructed evaluation: every table
// (T1–T7) and figure (F1–F8) of EXPERIMENTS.md, written under -out.
//
// With -stream it instead renders an analysis report for a trace
// consumed record by record (stdin when -in is empty), so tracegen
// output can be piped straight in: tracegen -o - | report -stream.
//
// Usage:
//
//	report -out out [-ranks 16] [-iters 200] [-seed 1] [-only T2]
//	report -stream [-in stencil.uvt] [-online] [-lenient]
//
// -lenient (with -stream) salvages damaged traces: undecodable records
// are skipped and the report is rendered DEGRADED with the concessions
// listed, instead of aborting on the first fault.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/report"
)

func main() {
	var (
		out     = flag.String("out", "out", "output directory")
		ranks   = flag.Int("ranks", 16, "simulated MPI ranks")
		iters   = flag.Int("iters", 200, "application iterations")
		seed    = flag.Uint64("seed", 1, "simulator seed")
		only    = flag.String("only", "", "run a single experiment id (e.g. T2, F4)")
		stream  = flag.Bool("stream", false, "render an analysis report for a streamed trace instead of running experiments")
		in      = flag.String("in", "", "with -stream: input trace file (stdin when empty or \"-\")")
		online  = flag.Bool("online", false, "with -stream: bounded-memory analysis (train-then-classify, incremental folding)")
		lenient = flag.Bool("lenient", false, "with -stream: salvage damaged traces and render a DEGRADED report instead of aborting")
	)
	flag.Parse()
	if *stream {
		streamReport(*in, *online, *lenient)
		return
	}
	env := experiments.Env{Ranks: *ranks, Iters: *iters, Seed: *seed}

	if *only != "" {
		e, err := experiments.ByID(*only)
		if err != nil {
			fatal(err)
		}
		start := time.Now()
		art, err := e.Run(env)
		if err != nil {
			fatal(err)
		}
		if err := art.Save(*out); err != nil {
			fatal(err)
		}
		printArtifact(art, time.Since(start))
		return
	}

	for _, e := range experiments.All() {
		start := time.Now()
		art, err := e.Run(env)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", e.ID, err))
		}
		if err := art.Save(*out); err != nil {
			fatal(err)
		}
		printArtifact(art, time.Since(start))
	}
	fmt.Printf("\nall experiments written to %s/\n", *out)
}

func printArtifact(a *experiments.Artifact, dur time.Duration) {
	fmt.Printf("── %s (%.1fs)\n", a.ID, dur.Seconds())
	if a.Table != nil {
		fmt.Print(a.Table.Format())
	}
	for _, n := range a.Notes {
		fmt.Println("note:", n)
	}
	for name := range a.Figures {
		fmt.Printf("figure data: %s_%s.tsv\n", a.ID, name)
	}
	fmt.Println()
}

// streamReport analyzes a record stream and renders the result as a
// single text report: summary, per-stage pipeline metrics, and a table
// of the detected phases.
func streamReport(in string, online, lenient bool) {
	r := io.Reader(os.Stdin)
	if in != "" && in != "-" {
		f, err := os.Open(in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r = f
	}
	opts := core.Options{Stream: core.StreamOptions{Online: online}, Lenient: lenient}
	rep, err := core.AnalyzeStreamContext(context.Background(), r, opts)
	if err != nil {
		fatal(err)
	}

	mode := "exact"
	if rep.Online {
		mode = "online"
	}
	fmt.Printf("%s: %d ranks, %.3f s, %d events / %d samples / %d comms (%s streaming analysis)\n",
		rep.App, rep.Ranks, float64(rep.Meta.Duration)/1e9,
		rep.Records.Events, rep.Records.Samples, rep.Records.Comms, mode)
	fmt.Printf("%d bursts (%d filtered, %.1f%% time kept), K=%d, cluster time coverage %.1f%%, SPMD score %.2f\n\n",
		rep.Bursts, rep.Filtered, 100*rep.CoverageKept,
		rep.Clustering.K, 100*rep.ClusterTimeCoverage, rep.SPMDScore)
	if rep.TrainErr != "" {
		fmt.Printf("online training failed: %s — no phases classified\n\n", rep.TrainErr)
	}
	if rep.Degraded {
		fmt.Println("DEGRADED analysis — results carry concessions:")
		for _, w := range rep.Warnings {
			fmt.Println("  !", w)
		}
		fmt.Println()
	}

	st := &report.Table{
		Title:  "Pipeline stages",
		Header: []string{"stage", "records_in", "records_out", "bytes", "wall_ms"},
	}
	for _, m := range rep.Pipeline {
		st.AddRow(m.Stage, m.RecordsIn, m.RecordsOut, m.Bytes,
			float64(m.Wall.Microseconds())/1e3)
	}
	fmt.Print(st.Format())
	fmt.Println()

	if len(rep.Phases) == 0 {
		fmt.Println("no phases detected")
		return
	}
	tb := &report.Table{
		Title:  "Detected computation phases",
		Header: []string{"phase", "instances", "total_time_s", "mean_ms", "IPC", "folded_counters", "advice"},
	}
	for _, ph := range rep.Phases {
		cs := make([]string, 0, len(ph.Folds))
		for c := range ph.Folds {
			cs = append(cs, c.String())
		}
		sort.Strings(cs)
		folded := ""
		for i, c := range cs {
			if i > 0 {
				folded += ","
			}
			folded += c
		}
		tb.AddRow(fmt.Sprintf("Phase %d", ph.ClusterID), ph.Instances,
			float64(ph.TotalTime)/1e9, ph.MeanDuration/1e6, ph.MeanIPC,
			folded, len(ph.Advice))
	}
	fmt.Print(tb.Format())
	for _, ph := range rep.Phases {
		for _, a := range ph.Advice {
			fmt.Printf("phase %d: %s\n", ph.ClusterID, a)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "report:", err)
	os.Exit(1)
}
