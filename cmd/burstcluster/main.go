// Command burstcluster extracts computation bursts from a trace and
// clusters them, printing the discovered application structure and
// optionally writing the scatter data for plotting.
//
// The trace is consumed record by record through the streaming
// pipeline, never materialized; -in - reads stdin:
// tracegen -o - | burstcluster -in -.
//
// Usage:
//
//	burstcluster -in stencil.uvt [-min-duration 50] [-eps 0] [-minpts 4] [-scatter scatter.tsv]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cluster"
	"repro/internal/pipeline"
	"repro/internal/report"
	"repro/internal/trace"
)

func main() {
	var (
		in     = flag.String("in", "", "input trace file, - for stdin (required)")
		minDur = flag.Float64("min-duration", 50, "burst duration filter in µs")
		eps    = flag.Float64("eps", 0, "DBSCAN eps in normalized space (0 = automatic)")
		minPts = flag.Int("minpts", 4, "DBSCAN minPts")
		noIPC  = flag.Bool("no-ipc", false, "cluster in 2-D (duration × instructions) instead of 3-D")
		scout  = flag.String("scatter", "", "write burst scatter TSV (duration_us, ipc, cluster)")
		par    = flag.Int("parallel", 0, "clustering worker count (0 = all cores, 1 = sequential); output is identical either way")
		silN   = flag.Int("sil-sample", 0, "score at most S members per cluster in the silhouette (0 = exact up to 4,096 bursts, 256 per cluster above; S at or above the largest cluster is exact)")
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
	ccfg := cluster.Config{Eps: *eps, MinPts: *minPts, UseIPC: !*noIPC,
		Parallelism: *par, SilhouetteSample: *silN}
	if err := run(os.Stdout, r, trace.Time(*minDur*1e3), ccfg, *scout); err != nil {
		fatal(err)
	}
}

// run streams the trace read from r through the pipeline's map half
// (no samples: the burst path is all this tool needs), checking it as
// every whole-trace analysis does, clusters the kept bursts and prints
// the structure to w; a non-empty scatter names the TSV to write the
// burst scatter to.
func run(w io.Writer, r io.Reader, minDur trace.Time, ccfg cluster.Config, scatter string) error {
	sr, err := trace.NewStreamReader(r)
	if err != nil {
		return err
	}
	out, err := pipeline.RunContext(context.Background(), trace.Checked(sr, trace.Strict), pipeline.Config{
		MinBurstDuration: minDur,
		NoSamples:        true,
	})
	if err != nil {
		return err
	}
	kept := out.Kept
	res := cluster.ClusterBursts(kept, ccfg)
	coverage := 0.0
	if out.AllTime > 0 {
		coverage = float64(out.KeptTime) / float64(out.AllTime)
	}

	fmt.Fprintf(w, "%s: %d bursts (%d filtered, %.1f%% time kept), K=%d, eps=%.4f, silhouette=%.3f\n",
		out.Meta.App, out.Bursts, out.Bursts-len(kept), 100*coverage,
		res.K, res.Eps, res.Silhouette)
	fmt.Fprintf(w, "cluster time coverage: %.1f%%\n\n", 100*cluster.ClusterTimeCoverage(kept, res.Assign))

	tb := &report.Table{
		Title:  "Detected computation phases",
		Header: []string{"cluster", "instances", "total_time_s", "mean_duration_ms", "mean_IPC"},
	}
	type agg struct {
		n   int
		tot trace.Time
		ipc float64
	}
	byCluster := map[int]*agg{}
	for i, b := range kept {
		c := res.Assign[i]
		a := byCluster[c]
		if a == nil {
			a = &agg{}
			byCluster[c] = a
		}
		a.n++
		a.tot += b.Duration()
		a.ipc += b.IPC()
	}
	for c := 1; c <= res.K; c++ {
		a := byCluster[c]
		if a == nil {
			continue
		}
		tb.AddRow(fmt.Sprintf("Cluster %d", c), a.n,
			float64(a.tot)/1e9, float64(a.tot)/float64(a.n)/1e6, a.ipc/float64(a.n))
	}
	if a := byCluster[cluster.Noise]; a != nil {
		tb.AddRow("noise", a.n, float64(a.tot)/1e9, float64(a.tot)/float64(a.n)/1e6, a.ipc/float64(a.n))
	}
	fmt.Fprint(w, tb.Format())

	if scatter != "" {
		rows := make([][]string, 0, len(kept))
		for i, b := range kept {
			rows = append(rows, []string{
				fmt.Sprintf("%g", float64(b.Duration())/1e3),
				fmt.Sprintf("%g", b.IPC()),
				fmt.Sprintf("%d", res.Assign[i]),
			})
		}
		if err := report.WriteTSV(scatter, []string{"duration_us", "ipc", "cluster"}, rows); err != nil {
			return err
		}
		fmt.Fprintf(w, "\nwrote %s\n", scatter)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "burstcluster:", err)
	os.Exit(1)
}
