// Command perfbench is the repository's benchmark. It runs one named
// workload against the analysis engine (internal/core and the layers
// under it) or, for live-session, against an in-process foldsvc daemon,
// checks the outputs, and prints one JSON result line last:
//
//	{"correct": true, "attempted": 5, "failed": 0, "metrics": {...}}
//
// An untraced run (-trace 0) reports the end-to-end metrics; a traced
// run (-trace 1) times the benchmark's own calls into each layer,
// reports the per-layer metrics and writes its spans as JSON lines
// under -work. Inputs come from internal/sim with the given seed; the
// code under test receives only the encoded bytes.
//
// Usage (from the repository root; run.py builds and runs this):
//
//	perfbench -workload coarse-large -seed 1 -seconds 20 -trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// setupReps is how many times a run sets its workload up; setup_s is
// the median.
const setupReps = 3

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: coarse-large, fine-fold, online-stream or live-session")
	seed := fs.Uint64("seed", 1, "simulator seed for the workload's inputs")
	seconds := fs.Float64("seconds", 20, "length of the measured phase in seconds")
	traced := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	work := fs.String("work", ".bench_build", "directory for session journals and the span log")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments: workload %q, seconds %g, trace %d: %v\n", *name, *seconds, *traced, err)
		return 2
	}
	if err := runWorkload(w, *seed, *seconds, *traced == 1, *work, stdout, stderr); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	return 0
}

func runWorkload(w *workload, seed uint64, seconds float64, traced bool, work string, stdout, stderr io.Writer) error {
	ctx := context.Background()
	tmp := filepath.Join(work, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	o := newOutcome()

	// Set-up, several times: generate and encode the inputs, and on
	// live-session start the daemon and open the session too.
	var setups []float64
	var in *input
	var env *liveEnv
	for i := 0; i < setupReps; i++ {
		if env != nil {
			env.stop()
			env = nil
		}
		start := time.Now()
		var err error
		in, err = w.generate(seed)
		if err == nil && w.appends > 0 {
			env, err = startLive(ctx, tmp)
		}
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	if env != nil {
		defer env.stop()
	}
	o.values["setup_s"] = median(setups)
	// Only the encoded bytes stay alive; hand the simulation's memory
	// back before the measured phase resets the RSS peak.
	runtime.GC()
	debug.FreeOSMemory()

	var t *tracer
	if traced {
		t = newTracer()
	}
	var err error
	if w.appends > 0 {
		err = runLive(ctx, w, in, env, seconds, t, o)
	} else {
		err = runBatch(ctx, w, in, seconds, t, o)
	}
	if err != nil {
		return err
	}
	o.values["success_ratio"] = 0
	if o.attempted > 0 {
		o.values["success_ratio"] = float64(o.attempted-o.failed) / float64(o.attempted)
	}

	defs := endToEnd
	if traced {
		defs = perLayer
		path := filepath.Join(work, "spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
		if err := t.write(path); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(stderr, "perfbench: %d spans written to %s\n", len(t.spans), path)
	}
	for _, p := range o.problems {
		fmt.Fprintf(stderr, "perfbench: check failed: %s\n", p)
	}
	res, err := o.result(defs)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	return nil
}
