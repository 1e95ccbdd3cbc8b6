// Command tracegen runs one of the built-in synthetic applications under
// the simulator and writes the resulting trace, optionally also in the
// Paraver-style text format. With -o - the encoded trace goes to stdout
// (status to stderr), so it can be piped straight into a streaming
// consumer: tracegen -app stencil -o - | fold -in -. Adding
// -pace 50000 paces the stdout stream to about that many records per
// second of wall-clock time, emulating a live application feeding a
// consumer in real time.
//
// Usage:
//
//	tracegen -app stencil -ranks 16 -iters 200 -o stencil.uvt [-prv] [-period 20] [-seed 1]
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/paraver"
	"repro/internal/sim"
	"repro/internal/trace"
)

func main() {
	var (
		appName = flag.String("app", "stencil", "application: "+strings.Join(apps.Names(), ", "))
		preset  = flag.String("preset", "", "named workload preset overriding -app/-ranks/-iters ("+apps.BenchLargeName+": ~100k bursts for the large-scale benchmarks)")
		ranks   = flag.Int("ranks", 16, "number of MPI ranks")
		iters   = flag.Int("iters", 200, "main-loop iterations")
		seed    = flag.Uint64("seed", 1, "simulator seed")
		period  = flag.Float64("period", 20, "sampling period in ms (0 disables sampling)")
		fine    = flag.Bool("fine", false, "use the fine-grain reference configuration (50 µs)")
		out     = flag.String("o", "", "output trace file (default <app>.uvt)")
		prv     = flag.Bool("prv", false, "also write <out>.prv and <out>.pcf (Paraver-style text)")
		pace    = flag.Float64("pace", 0, "with -o -, pace stdout emission to about this many records/s instead of writing at full speed (0 = no pacing); exercises live consumers")

		perturb       = flag.Float64("perturb", 0, "slow selected iterations' kernel instances by this factor (0 disables; e.g. 1.5 = 50% slower)")
		perturbFrac   = flag.Float64("perturb-frac", 0.5, "fraction of iterations perturbed (selection is seeded, not a prefix)")
		perturbKernel = flag.String("perturb-kernel", "", "restrict perturbation to one kernel name (empty = all kernels)")
		perturbAt     = flag.Float64("perturb-at", 0.6, "normalized position inside the instance where the stall is inserted")
		perturbSeed   = flag.Uint64("perturb-seed", 1, "iteration-selection seed (independent of -seed)")
	)
	flag.Parse()

	switch *preset {
	case "":
	case apps.BenchLargeName:
		*appName, *ranks, *iters = apps.BenchLargeApp, apps.BenchLargeRanks, apps.BenchLargeIters
	default:
		fatal(fmt.Errorf("unknown preset %q (want %s)", *preset, apps.BenchLargeName))
	}
	if err := validateShape(*ranks, *iters); err != nil {
		fatal(err)
	}

	app, err := apps.ByName(*appName, *iters)
	if err != nil {
		fatal(err)
	}
	var cfg sim.Config
	if *fine {
		cfg = apps.FineTraceConfig(*ranks)
	} else {
		cfg = apps.DefaultTraceConfig(*ranks)
		cfg.Sampling.Period = trace.Time(*period * 1e6)
	}
	cfg.Seed = *seed
	if *perturb != 0 {
		cfg.Perturb = sim.PerturbConfig{
			Factor:   *perturb,
			Fraction: *perturbFrac,
			Kernel:   *perturbKernel,
			At:       *perturbAt,
			Seed:     *perturbSeed,
		}
	}

	tr, err := sim.Run(cfg, app)
	if err != nil {
		fatal(err)
	}
	path := *out
	if path == "" {
		path = *appName + ".uvt"
	}
	if path == "-" {
		if *prv {
			fatal(fmt.Errorf("-prv needs a file path, not stdout"))
		}
		if *pace < 0 {
			fatal(fmt.Errorf("-pace must be >= 0 (got %g)", *pace))
		}
		if *pace > 0 {
			if err := writePaced(tr, os.Stdout, *pace); err != nil {
				fatal(err)
			}
		} else if err := tr.Write(os.Stdout); err != nil {
			fatal(err)
		}
		st := tr.Stats()
		fmt.Fprintf(os.Stderr, "wrote trace to stdout: %d ranks, %.3f s virtual time, %d events, %d samples, %d comms\n",
			tr.Meta.Ranks, float64(st.Duration)/1e9, st.Events, st.Samples, st.Comms)
		return
	}
	if *pace > 0 {
		fatal(fmt.Errorf("-pace works with -o - (stdout streaming) only"))
	}
	if err := tr.WriteFile(path); err != nil {
		fatal(err)
	}
	st := tr.Stats()
	fmt.Printf("wrote %s: %d ranks, %.3f s virtual time, %d events, %d samples, %d comms\n",
		path, tr.Meta.Ranks, float64(st.Duration)/1e9, st.Events, st.Samples, st.Comms)

	if *prv {
		if err := writePRV(tr, path); err != nil {
			fatal(err)
		}
	}
}

// writePaced emits the encoded trace in wall-clock-paced slices so the
// whole stream lasts about records/rate seconds — a cheap stand-in for
// a live application when exercising streaming consumers (fold -in -,
// live analysis sessions). Pacing is byte-proportional over the encoded
// form; the receiving decoder sees the same bytes either way.
func writePaced(tr *trace.Trace, w io.Writer, rate float64) error {
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		return err
	}
	st := tr.Stats()
	records := float64(st.Events + st.Samples + st.Comms)
	total := time.Duration(records / rate * float64(time.Second))
	const tick = 50 * time.Millisecond
	steps := int(total / tick)
	data := buf.Bytes()
	if steps < 1 {
		_, err := w.Write(data)
		return err
	}
	chunk := (len(data) + steps - 1) / steps
	if chunk < 1 {
		chunk = 1
	}
	for off := 0; off < len(data); off += chunk {
		end := off + chunk
		if end > len(data) {
			end = len(data)
		}
		if _, err := w.Write(data[off:end]); err != nil {
			return err
		}
		if end < len(data) {
			time.Sleep(tick)
		}
	}
	return nil
}

// validateShape rejects impossible workload shapes up front, with an
// error naming the flag, instead of letting the simulator fail
// obscurely (or spin) on a zero or negative size.
func validateShape(ranks, iters int) error {
	if ranks < 1 {
		return fmt.Errorf("-ranks must be >= 1 (got %d)", ranks)
	}
	if iters < 1 {
		return fmt.Errorf("-iters must be >= 1 (got %d)", iters)
	}
	return nil
}

func writePRV(tr *trace.Trace, base string) error {
	prvPath := base + ".prv"
	f, err := os.Create(prvPath)
	if err != nil {
		return err
	}
	if err := paraver.Encode(f, tr); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	pcfPath := base + ".pcf"
	g, err := os.Create(pcfPath)
	if err != nil {
		return err
	}
	if err := paraver.EncodePCF(g, tr); err != nil {
		g.Close()
		return err
	}
	if err := g.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s and %s\n", prvPath, pcfPath)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracegen:", err)
	os.Exit(1)
}
