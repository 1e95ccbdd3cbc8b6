// Command report regenerates the reconstructed evaluation: every table
// (T1–T7) and figure (F1–F8) of EXPERIMENTS.md, written under -out.
//
// Usage:
//
//	report -out out [-ranks 16] [-iters 200] [-seed 1] [-only T2]
//
// One trace's analysis report is fold's: fold -in stencil.uvt -stages.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/experiments"
)

func main() {
	var (
		out   = flag.String("out", "out", "output directory")
		ranks = flag.Int("ranks", 16, "simulated MPI ranks")
		iters = flag.Int("iters", 200, "application iterations")
		seed  = flag.Uint64("seed", 1, "simulator seed")
		only  = flag.String("only", "", "run a single experiment id (e.g. T2, F4)")
	)
	flag.Parse()
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "report:", err)
	os.Exit(1)
}
