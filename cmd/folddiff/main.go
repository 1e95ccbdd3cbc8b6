// Command folddiff compares two runs of (nominally) the same
// application: it analyzes both inputs through the standard pipeline,
// matches the detected phases across the runs by cluster-centroid
// similarity, and reports where inside each matched phase the behavior
// diverged — per-phase duration/occurrence deltas, per-counter shape
// and rate deltas with the normalized-time window of maximum
// divergence, and a significance guard against run-to-run noise.
//
// Each input is either a trace (.uvt) or an already-analyzed report
// (the JSON core.Report that fold -json consumers and foldsvc produce);
// report inputs skip re-analysis entirely (a report saved before reports
// carried fold bands gets them from its folded points). With -stream,
// trace inputs are analyzed record by record ("-" reads one side from
// stdin).
//
// Usage:
//
//	folddiff [flags] runA.uvt runB.uvt
//	folddiff -json baseline.report.json regression.uvt
//	tracegen -o - -perturb 1.2 | folddiff runA.uvt -stream -
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/diff"
	"repro/internal/fit"
	"repro/internal/trace"
)

func main() {
	var (
		stream    = flag.Bool("stream", false, "analyze trace inputs record-by-record (\"-\" reads that side from stdin)")
		lenient   = flag.Bool("lenient", false, "salvage damaged traces: analyze whatever decodes and mark the diff degraded")
		shards    = flag.Int("shards", 1, "analyze trace inputs through the map/reduce algebra over this many shards (output is identical for any count)")
		shardMode = flag.String("shard-mode", "time", "how -shards splits the traces: time (window slices) or rank (rank groups)")
		modelIn   = flag.String("model-in", "", "classify both traces against a previously saved cluster model instead of training per run")
		phases    = flag.Int("phases", 5, "maximum phases to analyze per run")
		counter   = flag.String("counter", "", "restrict folding to one PAPI counter name (default: all)")
		par       = flag.Int("parallel", 0, "analysis worker count (0 = all cores, 1 = sequential); output is identical either way")
		bins      = flag.Int("bins", 100, "common normalized-time grid resolution for the delta curves")
		radius    = flag.Float64("match-radius", 0, "centroid capture radius for cross-run phase matching (0 = default 0.75)")
		sigma     = flag.Float64("sigma", 0, "significance multiplier over the folded clouds' standard error (0 = default 3)")
		noise     = flag.Float64("noise-floor", 0, "minimum shape divergence (fraction of phase total) ever considered significant (0 = default 0.02)")
		jsonOut   = flag.Bool("json", false, "emit the diff report as JSON instead of the human tables")
	)
	flag.Parse()
	if flag.NArg() != 2 {
		fatal(fmt.Errorf("need exactly two inputs (traces or saved reports), got %d", flag.NArg()))
	}

	opts := core.Options{MaxPhases: *phases, Parallelism: *par, Lenient: *lenient}
	if *counter != "" {
		c, err := counters.ParseCounter(*counter)
		if err != nil {
			fatal(err)
		}
		opts.Counters = []counters.Counter{c}
	}
	shMode, err := core.ParseShardMode(*shardMode)
	if err != nil {
		fatal(err)
	}
	var model *cluster.Model
	if *modelIn != "" {
		if *stream {
			fatal(fmt.Errorf("-model-in needs the batch clustering pipeline and cannot be combined with -stream"))
		}
		data, err := os.ReadFile(*modelIn)
		if err != nil {
			fatal(err)
		}
		model, err = cluster.DecodeModel(data)
		if err != nil {
			fatal(fmt.Errorf("decode model %s: %w", *modelIn, err))
		}
	}

	repA := analyzeInput(flag.Arg(0), *stream, *shards, shMode, model, opts)
	repB := analyzeInput(flag.Arg(1), *stream, *shards, shMode, model, opts)

	d, err := diff.Compare(repA, repB, diff.Options{
		Bins:        *bins,
		MatchRadius: *radius,
		SigmaK:      *sigma,
		NoiseFloor:  *noise,
	})
	if err != nil {
		fatal(err)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(d); err != nil {
			fatal(err)
		}
		return
	}
	fmt.Print(d.Format())
}

// analyzeInput turns one CLI argument into a Report: a saved JSON
// report is loaded as-is; a trace is analyzed through the selected
// pipeline ("-" streams from stdin).
func analyzeInput(path string, stream bool, shards int, shMode core.ShardMode, model *cluster.Model, opts core.Options) *core.Report {
	if path != "-" {
		if rep, ok := loadReport(path); ok {
			return rep
		}
	}

	if stream {
		r, closeIn, err := openInput(path)
		if err != nil {
			fatal(err)
		}
		rep, err := core.AnalyzeStream(r, opts)
		closeIn()
		if err != nil {
			fatal(fmt.Errorf("%s: %w", name(path), err))
		}
		return rep
	}
	if path == "-" {
		fatal(fmt.Errorf("stdin input needs -stream"))
	}

	var tr *trace.Trace
	var decodeStats trace.DecodeStats
	var err error
	if opts.Lenient {
		tr, decodeStats, err = trace.ReadFileLenient(path)
	} else {
		tr, err = trace.ReadFile(path)
	}
	if err != nil {
		fatal(err)
	}
	var rep *core.Report
	if model != nil {
		rep, err = analyzeWithModel(tr, shards, shMode, model, opts)
	} else {
		rep, err = core.AnalyzeSharded(tr, shards, shMode, opts)
	}
	if err != nil {
		fatal(fmt.Errorf("%s: %w", path, err))
	}
	if opts.Lenient {
		rep.NoteDecode(decodeStats)
	}
	return rep
}

// loadReport tries to read path as a saved JSON core.Report. ok is
// false when the file is not JSON (i.e. a binary trace).
func loadReport(path string) (*core.Report, bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	if len(trimmed) == 0 || trimmed[0] != '{' {
		return nil, false
	}
	var rep core.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		fatal(fmt.Errorf("%s looks like JSON but does not decode as a report: %w", path, err))
	}
	if rep.App == "" && len(rep.Phases) == 0 {
		fatal(fmt.Errorf("%s decodes as JSON but carries no analysis (not a saved report?)", path))
	}
	if err := fillBands(&rep, data); err != nil {
		fatal(fmt.Errorf("%s: folded points: %w", path, err))
	}
	return &rep, true
}

// fillBands computes the fold bands of a report saved before reports
// carried them. Such a report has null StdErr and the folded Points,
// which core.Report no longer decodes, so only the points are decoded
// here, for the folds that lack bands.
func fillBands(rep *core.Report, data []byte) error {
	missing := false
	for _, ph := range rep.Phases {
		for _, f := range ph.Folds {
			missing = missing || f.StdErr == nil
		}
	}
	if !missing {
		return nil
	}
	var saved struct {
		Phases []struct {
			Folds map[counters.Counter]struct{ Points []fit.Point }
		}
	}
	if err := json.Unmarshal(data, &saved); err != nil {
		return err
	}
	for i, ph := range rep.Phases {
		for c, f := range ph.Folds {
			if pts := saved.Phases[i].Folds[c].Points; f.StdErr == nil && len(pts) > 0 {
				f.Points = pts
				f.ComputeBands()
			}
		}
	}
	return nil
}

// analyzeWithModel classifies a trace against a shared, pre-trained
// cluster model through the map/reduce algebra — both runs see the
// same phase definitions, which pins cross-run cluster ids.
func analyzeWithModel(tr *trace.Trace, shards int, mode core.ShardMode, model *cluster.Model, opts core.Options) (*core.Report, error) {
	shs := core.Split(tr, shards, mode)
	parts := make([]*core.Partial, len(shs))
	for i := range shs {
		p, err := core.MapShard(shs[i], opts)
		if err != nil {
			return nil, fmt.Errorf("map shard %d: %w", i, err)
		}
		parts[i] = p
	}
	return core.Reduce(parts, model, opts)
}

// openInput resolves a streaming input: stdin for "-", the named file
// otherwise.
func openInput(path string) (io.Reader, func(), error) {
	if path == "" || path == "-" {
		return os.Stdin, func() {}, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	return f, func() { f.Close() }, nil
}

func name(path string) string {
	if path == "" || path == "-" {
		return "stdin"
	}
	return path
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "folddiff:", err)
	os.Exit(1)
}
