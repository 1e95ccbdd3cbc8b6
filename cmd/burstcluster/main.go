// Command burstcluster extracts computation bursts from a trace and
// clusters them, printing the discovered application structure and
// optionally writing the scatter data for plotting.
//
// With -stream the trace is consumed record by record through the
// streaming pipeline (stdin when -in is empty), never materializing it:
// tracegen -o - | burstcluster -stream.
//
// Usage:
//
//	burstcluster -in stencil.uvt [-min-duration 50] [-eps 0] [-minpts 4] [-scatter scatter.tsv]
//	burstcluster -stream [-in stencil.uvt] [...]
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
	"repro/internal/report"
	"repro/internal/trace"
)

func main() {
	var (
		in     = flag.String("in", "", "input trace file (required unless -stream, which defaults to stdin)")
		minDur = flag.Float64("min-duration", 50, "burst duration filter in µs")
		eps    = flag.Float64("eps", 0, "DBSCAN eps in normalized space (0 = automatic)")
		minPts = flag.Int("minpts", 4, "DBSCAN minPts")
		noIPC  = flag.Bool("no-ipc", false, "cluster in 2-D (duration × instructions) instead of 3-D")
		scout  = flag.String("scatter", "", "write burst scatter TSV (duration_us, ipc, cluster)")
		par    = flag.Int("parallel", 0, "clustering worker count (0 = all cores, 1 = sequential); output is identical either way")
		knn    = flag.String("knn", "auto", "k-dist neighbor search for automatic eps: auto, kdtree, brute (eps is identical either way)")
		silN   = flag.Int("sil-sample", 0, "score at most S members per cluster in the silhouette (0 = exact, O(n²); S > 0 = approximate, O((K·S)²))")
		stream = flag.Bool("stream", false, "consume the trace record-by-record (stdin when -in is empty or \"-\")")
	)
	flag.Parse()
	index, err := cluster.ParseIndexMode(*knn)
	if err != nil {
		fatal(err)
	}
	ccfg := cluster.Config{Eps: *eps, MinPts: *minPts, UseIPC: !*noIPC,
		Parallelism: *par, Index: index, SilhouetteSample: *silN}

	var (
		app      string
		nAll     int
		kept     []burst.Burst
		coverage float64
		res      cluster.Result
	)
	if *stream {
		r, closeIn, err := openInput(*in)
		if err != nil {
			fatal(err)
		}
		sr, err := trace.NewStreamReader(r)
		if err != nil {
			fatal(err)
		}
		// The pipeline's burst path is all this tool needs: skip sample
		// attachment entirely.
		out, err := pipeline.RunContext(context.Background(), sr, pipeline.Config{
			MinBurstDuration: trace.Time(*minDur * 1e3),
			Cluster:          ccfg,
			NoSamples:        true,
		})
		closeIn()
		if err != nil {
			fatal(err)
		}
		app, nAll, kept, coverage, res = out.Meta.App, out.Bursts, out.Kept, out.CoverageKept, out.Clustering
	} else {
		if *in == "" {
			fatal(fmt.Errorf("missing -in"))
		}
		tr, err := trace.ReadFile(*in)
		if err != nil {
			fatal(err)
		}
		all, err := burst.Extract(tr)
		if err != nil {
			fatal(err)
		}
		kept, _ = burst.Filter{MinDuration: trace.Time(*minDur * 1e3)}.Apply(all)
		res = cluster.ClusterBursts(kept, ccfg)
		app, nAll, coverage = tr.Meta.App, len(all), burst.Coverage(kept, all)
	}

	fmt.Printf("%s: %d bursts (%d filtered, %.1f%% time kept), K=%d, eps=%.4f, silhouette=%.3f\n",
		app, nAll, nAll-len(kept), 100*coverage,
		res.K, res.Eps, res.Silhouette)
	fmt.Printf("cluster time coverage: %.1f%%\n\n", 100*cluster.ClusterTimeCoverage(kept, res.Assign))

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
	fmt.Print(tb.Format())

	if *scout != "" {
		rows := make([][]string, 0, len(kept))
		for i, b := range kept {
			rows = append(rows, []string{
				fmt.Sprintf("%g", float64(b.Duration())/1e3),
				fmt.Sprintf("%g", b.IPC()),
				fmt.Sprintf("%d", res.Assign[i]),
			})
		}
		if err := report.WriteTSV(*scout, []string{"duration_us", "ipc", "cluster"}, rows); err != nil {
			fatal(err)
		}
		fmt.Printf("\nwrote %s\n", *scout)
	}
}

// openInput resolves the streaming input: stdin when path is empty or
// "-", the named file otherwise.
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "burstcluster:", err)
	os.Exit(1)
}
