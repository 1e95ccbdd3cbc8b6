// Command fold runs the full analysis pipeline on a trace — burst
// extraction, clustering, folding, call-stack folding — and reports each
// detected phase's internal evolution, with ASCII curve previews and the
// heuristic advice the methodology derives.
//
// The trace is analyzed record by record as it is read, never
// materialized, and checked for validity on the way. -in - reads stdin,
// so tracegen output can be piped straight in:
//
//	tracegen -app stencil -o - | fold -in -
//
// Adding -online bounds memory regardless of trace length: phases are
// classified on the fly from a training prefix and samples are folded
// incrementally instead of being retained.
//
// Usage:
//
//	fold -in stencil.uvt [-counter PAPI_TOT_INS] [-bins 100] [-model binned+pchip]
//	     [-phases 5] [-curves out_dir] [-iterations] [-stages] [-lenient]
//	     [-online [-train 512] | -model-out phases.model | -model-in phases.model]
//
// -model-out saves the cluster model trained on this trace so later
// runs can classify against it with -model-in, skipping training
// entirely — train once, classify repeatedly.
//
// -lenient salvages damaged traces: undecodable records are skipped at
// the decoder, validation failures are tolerated, and the analysis is
// reported as DEGRADED with every concession itemized, instead of
// aborting on the first fault.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/folding"
	"repro/internal/report"
	"repro/internal/trace"
)

func main() {
	var (
		in         = flag.String("in", "", "input trace file, - for stdin (required)")
		counter    = flag.String("counter", "", "restrict folding to one PAPI counter name (default: all)")
		bins       = flag.Int("bins", 100, "folded-curve grid resolution")
		model      = flag.String("model", "binned+pchip", "fit model: binned+pchip, kernel, binned")
		phases     = flag.Int("phases", 5, "maximum phases to analyze")
		curves     = flag.String("curves", "", "directory to write per-phase folded-curve TSVs")
		iterations = flag.Bool("iterations", false, "fold whole iterations (EvIteration markers) instead of clustered bursts")
		par        = flag.Int("parallel", 0, "analysis worker count (0 = all cores, 1 = sequential); output is identical either way")
		silN       = flag.Int("sil-sample", 0, "score at most S members per cluster in the silhouette (0 = exact up to 4,096 bursts, 256 per cluster above; S at or above the largest cluster is exact)")
		online     = flag.Bool("online", false, "bounded-memory analysis (train-then-classify, incremental folding)")
		train      = flag.Int("train", 0, "with -online: training-prefix length in bursts (0 = default 512)")
		stages     = flag.Bool("stages", false, "print per-stage pipeline metrics")
		lenient    = flag.Bool("lenient", false, "salvage damaged traces: skip undecodable records, tolerate validation failures, and report the degradation instead of aborting")
		modelOut   = flag.String("model-out", "", "write the trained cluster model to this file after analyzing")
		modelIn    = flag.String("model-in", "", "classify against a previously saved cluster model instead of training one")
	)
	flag.Parse()

	opts := core.Options{MaxPhases: *phases, Parallelism: *par, Lenient: *lenient}
	opts.Cluster.SilhouetteSample = *silN
	opts.Fold.Bins = *bins
	switch *model {
	case "binned+pchip":
		opts.Fold.Model = folding.ModelBinnedPCHIP
	case "kernel":
		opts.Fold.Model = folding.ModelKernel
	case "binned":
		opts.Fold.Model = folding.ModelBinned
	default:
		fatal(fmt.Errorf("unknown model %q", *model))
	}
	if *counter != "" {
		c, err := counters.ParseCounter(*counter)
		if err != nil {
			fatal(err)
		}
		opts.Counters = []counters.Counter{c}
	}

	if (*modelIn != "" || *modelOut != "") && (*online || *iterations) {
		fatal(fmt.Errorf("-model-in/-model-out need the exact clustering pipeline and cannot be combined with -online or -iterations"))
	}
	if *online && *iterations {
		fatal(fmt.Errorf("-iterations folds whole iterations and cannot be combined with -online"))
	}
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
	if *iterations {
		if err := foldIterations(os.Stdout, r, *counter, *bins, *lenient); err != nil {
			fatal(err)
		}
		return
	}

	opts.Stream = core.StreamOptions{Online: *online, TrainBursts: *train}
	var rep *core.Report
	var err error
	if *modelIn != "" || *modelOut != "" {
		rep, err = analyzeWithModel(r, opts, *modelIn, *modelOut)
	} else {
		rep, err = core.AnalyzeStreamContext(context.Background(), r, opts)
	}
	if err != nil {
		fatal(err)
	}

	mode := ""
	if rep.Online {
		mode = " (online classification)"
	}
	fmt.Printf("%s: %d ranks, %d bursts (%d filtered), %d phases detected%s\n\n",
		rep.App, rep.Ranks, rep.Bursts, rep.Filtered, rep.Clustering.K, mode)
	if rep.TrainErr != "" {
		fmt.Printf("online training failed: %s — no phases classified\n\n", rep.TrainErr)
	}
	if rep.Degraded {
		printDegraded(os.Stdout, rep.Warnings)
	}
	if *stages {
		printStages(rep)
	}

	for _, ph := range rep.Phases {
		fmt.Printf("── Phase %d ─ %d instances, %.3f s total, mean %.3f ms, IPC %.2f",
			ph.ClusterID, ph.Instances, float64(ph.TotalTime)/1e9, ph.MeanDuration/1e6, ph.MeanIPC)
		if ph.ImbalanceFactor > 0 {
			fmt.Printf(", imbalance %.2f", ph.ImbalanceFactor)
		}
		fmt.Println()

		cs := make([]counters.Counter, 0, len(ph.Folds))
		for c := range ph.Folds {
			cs = append(cs, c)
		}
		sort.Slice(cs, func(i, j int) bool { return cs[i] < cs[j] })
		for _, c := range cs {
			f := ph.Folds[c]
			if rep.Online {
				fmt.Printf("\n%s: folded incrementally from %d instances (%d pruned)\n",
					c, f.Instances, f.Pruned)
			} else {
				fmt.Printf("\n%s: %d points folded from %d instances (%d pruned)\n",
					c, len(f.Points), f.Instances, f.Pruned)
			}
			fmt.Print(report.ASCIIPlot(
				fmt.Sprintf("  instantaneous %s rate (per µs) over normalized time", c),
				f.Grid, scale(f.Rate, 1e3), 72, 12))
			if len(f.Breakpoints) > 0 {
				fmt.Printf("  sub-phase boundaries at x = %v\n", f.Breakpoints)
			}
			if *curves != "" {
				path := filepath.Join(*curves, fmt.Sprintf("phase%d_%s.tsv", ph.ClusterID, c))
				err := report.WriteSeriesTSV(path, []report.Series{
					{Name: "cumulative", X: f.Grid, Y: f.Cumulative},
					{Name: "rate_per_us", X: f.Grid, Y: scale(f.Rate, 1e3)},
				})
				if err != nil {
					fatal(err)
				}
			}
		}
		// Counter-id order, not map order, so stdout is byte-stable.
		for c := counters.Counter(0); c < counters.NumCounters; c++ {
			if err, ok := ph.FoldErrors[c]; ok {
				fmt.Printf("%s: not folded (%v)\n", c, err)
			}
		}
		if ph.Stacks != nil && len(ph.Stacks.Regions) > 0 {
			fmt.Printf("\ncall-stack folding (%d samples): regions ", ph.Stacks.Samples)
			for i, id := range ph.Stacks.Regions {
				if i > 0 {
					fmt.Print(", ")
				}
				fmt.Print(rep.Meta.RegionName(id))
			}
			fmt.Println()
			if trs := ph.Stacks.Transitions(); len(trs) > 0 {
				fmt.Printf("region transitions at x = %v\n", trs)
			}
		}
		if len(ph.Advice) > 0 {
			fmt.Println("\nadvice:")
			for _, a := range ph.Advice {
				fmt.Println("  •", a)
			}
		}
		fmt.Println()
	}
}

// analyzeWithModel runs the analysis through the map/reduce algebra
// with an explicit cluster model: either classify against a model saved
// earlier (-model-in, skipping training entirely) or train one from this
// trace's whole-trace partial and optionally persist it (-model-out) for
// later runs — the memoized-intermediate path the service-side result
// cache exercises.
func analyzeWithModel(r io.Reader, opts core.Options, inPath, outPath string) (*core.Report, error) {
	p, err := core.MapShardStreamContext(context.Background(), r, core.WholeSpec(), opts)
	if err != nil {
		return nil, err
	}
	parts := []*core.Partial{p}
	var model *cluster.Model
	if inPath != "" {
		data, err := os.ReadFile(inPath)
		if err != nil {
			return nil, err
		}
		model, err = cluster.DecodeModel(data)
		if err != nil {
			return nil, fmt.Errorf("decode model %s: %w", inPath, err)
		}
	} else if model, err = core.TrainModelFromPartials(parts, opts); err != nil {
		return nil, fmt.Errorf("train model: %w", err)
	}
	if outPath != "" {
		data, err := model.Encode()
		if err != nil {
			return nil, fmt.Errorf("encode model: %w", err)
		}
		if err := os.WriteFile(outPath, data, 0o644); err != nil {
			return nil, err
		}
	}
	return core.Reduce(parts, model, opts)
}

// printStages renders the pipeline's per-stage metrics.
func printStages(rep *core.Report) {
	fmt.Println("pipeline stages:")
	for _, m := range rep.Pipeline {
		fmt.Printf("  %-9s in=%-9d out=%-7d", m.Stage, m.RecordsIn, m.RecordsOut)
		if m.Bytes > 0 {
			fmt.Printf(" bytes=%-9d", m.Bytes)
		}
		fmt.Printf(" wall=%s\n", m.Wall.Round(10*time.Microsecond))
	}
	fmt.Println()
}

// printDegraded prints the DEGRADED block: one line per concession.
func printDegraded(w io.Writer, warnings []string) {
	fmt.Fprintln(w, "DEGRADED analysis — results carry concessions:")
	for _, warn := range warnings {
		fmt.Fprintln(w, "  !", warn)
	}
	fmt.Fprintln(w)
}

// foldIterations runs marker-driven iteration folding of the trace r
// holds instead of the clustering pipeline, and prints it to w. It
// checks the trace like every whole-trace analysis: strict, a trace
// that fails Trace.Validate is an error; lenient, the DEGRADED block
// lists the salvage warnings, then the validation warning, and the
// trace is folded anyway, unless its metadata declares no rank.
func foldIterations(w io.Writer, r io.Reader, counterName string, bins int, lenient bool) error {
	var (
		tr  *trace.Trace
		st  trace.DecodeStats
		err error
	)
	if lenient {
		tr, st, err = trace.ReadFromLenient(r)
	} else {
		tr, err = trace.ReadFrom(r)
	}
	if err != nil {
		return err
	}
	warnings := st.Warnings()
	if err := tr.Validate(); err != nil {
		if !lenient || tr.Meta.Validate() != nil {
			return err
		}
		warnings = append(warnings, core.ValidationWarning(err))
	}
	instances, err := folding.InstancesFromIterations(tr)
	if err != nil {
		return err
	}
	cs := []counters.Counter{counters.TotIns}
	if counterName != "" {
		c, err := counters.ParseCounter(counterName)
		if err != nil {
			return err
		}
		cs = []counters.Counter{c}
	}
	fmt.Fprintf(w, "%s: folding %d whole iterations\n\n", tr.Meta.App, len(instances))
	if len(warnings) > 0 {
		printDegraded(w, warnings)
	}
	for _, c := range cs {
		res, err := folding.Fold(instances, folding.Config{Counter: c, Bins: bins})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s over one iteration (mean %.2f ms):\n", c, res.MeanDuration/1e6)
		fmt.Fprint(w, report.ASCIIPlot("  cumulative", res.Grid, res.Cumulative, 72, 12))
		fmt.Fprint(w, report.ASCIIPlot("  rate (per µs)", res.Grid, scale(res.Rate, 1e3), 72, 12))
		if len(res.Breakpoints) > 0 {
			fmt.Fprintf(w, "  compute/wait boundaries at x = %v\n", res.Breakpoints)
		}
	}
	return nil
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fold:", err)
	os.Exit(1)
}
