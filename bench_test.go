package repro

// The benchmark harness: one benchmark per table (T1–T6) and figure
// (F1–F6) of the reconstructed evaluation — each regenerates its artifact
// end to end (simulate → trace → cluster → fold → report) — plus
// micro-benchmarks of the load-bearing algorithms.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// The experiment benches use a reduced environment (4 ranks, 60
// iterations) so a full sweep stays in the tens of seconds; `cmd/report`
// regenerates the full-size artifacts.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"runtime"
	"sync"
	"testing"

	"repro/internal/apps"
	"repro/internal/burst"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/diff"
	"repro/internal/experiments"
	"repro/internal/fit"
	"repro/internal/folding"
	"repro/internal/rescache"
	"repro/internal/sim"
	"repro/internal/trace"
)

func benchEnv() experiments.Env {
	return experiments.Env{Ranks: 4, Iters: 60, Seed: 1}
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	env := benchEnv()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(env); err != nil {
			b.Fatal(err)
		}
	}
}

// --- one benchmark per table/figure ---

func BenchmarkF1Clustering(b *testing.B)     { benchExperiment(b, "F1") }
func BenchmarkT1ClusterQuality(b *testing.B) { benchExperiment(b, "T1") }
func BenchmarkF2Folding(b *testing.B)        { benchExperiment(b, "F2") }
func BenchmarkF3Rates(b *testing.B)          { benchExperiment(b, "F3") }
func BenchmarkT2Accuracy(b *testing.B)       { benchExperiment(b, "T2") }
func BenchmarkT3Overhead(b *testing.B)       { benchExperiment(b, "T3") }
func BenchmarkF4PeriodSweep(b *testing.B)    { benchExperiment(b, "F4") }
func BenchmarkF5InstanceSweep(b *testing.B)  { benchExperiment(b, "F5") }
func BenchmarkF6Callstack(b *testing.B)      { benchExperiment(b, "F6") }
func BenchmarkT4FitAblation(b *testing.B)    { benchExperiment(b, "T4") }
func BenchmarkT5PruneAblation(b *testing.B)  { benchExperiment(b, "T5") }
func BenchmarkT6Imbalance(b *testing.B)      { benchExperiment(b, "T6") }
func BenchmarkT7Noise(b *testing.B)          { benchExperiment(b, "T7") }
func BenchmarkF7IterationFold(b *testing.B)  { benchExperiment(b, "F7") }
func BenchmarkF8Spectral(b *testing.B)       { benchExperiment(b, "F8") }

// --- micro-benchmarks of the load-bearing pieces ---

// BenchmarkSimulator measures raw trace-generation throughput.
func BenchmarkSimulator(b *testing.B) {
	app := apps.NewStencil(50)
	cfg := apps.DefaultTraceConfig(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := sim.Run(cfg, app)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(tr.Events) + len(tr.Samples)))
	}
}

func benchTrace(b *testing.B) *trace.Trace {
	b.Helper()
	app := apps.NewStencil(100)
	tr, err := sim.Run(apps.DefaultTraceConfig(8), app)
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

// BenchmarkTraceEncode measures binary serialization.
func BenchmarkTraceEncode(b *testing.B) {
	tr := benchTrace(b)
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := tr.Write(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}

// BenchmarkTraceDecode measures binary deserialization.
func BenchmarkTraceDecode(b *testing.B) {
	tr := benchTrace(b)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trace.ReadFrom(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeStream compares the two stream-decode hot paths over
// one encoded trace: row (one Record at a time via Next) and columnar
// (arena-backed column blocks via NextBlock, no per-record struct).
func BenchmarkDecodeStream(b *testing.B) {
	tr := benchTrace(b)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()

	b.Run("row", func(b *testing.B) {
		b.SetBytes(int64(len(raw)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sr, err := trace.NewStreamReader(bytes.NewReader(raw))
			if err != nil {
				b.Fatal(err)
			}
			var rec trace.Record
			for {
				if err := sr.Next(&rec); err != nil {
					if err == io.EOF {
						break
					}
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("columnar", func(b *testing.B) {
		b.SetBytes(int64(len(raw)))
		b.ReportAllocs()
		blk := trace.NewColBlock(256)
		defer blk.Release()
		for i := 0; i < b.N; i++ {
			sr, err := trace.NewStreamReader(bytes.NewReader(raw))
			if err != nil {
				b.Fatal(err)
			}
			for {
				if err := sr.NextBlock(blk); err != nil {
					if err == io.EOF {
						break
					}
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkAnalyzeEndToEnd runs the full streaming analysis (decode →
// extract → cluster → attach) over the encoded bench-large trace: the
// headline end-to-end number. The silhouette is sampled (it would
// otherwise be >90% of the run and has its own benchmarks) so the
// decode/extract/attach path carries the time. The sub-benchmark keeps
// the "columnar" name it has in earlier BENCH snapshots, so the
// trajectory stays comparable. Needs BENCH_SCALE=large; simulation and
// encoding sit outside the timer.
func BenchmarkAnalyzeEndToEnd(b *testing.B) {
	if !benchScaleLarge() {
		b.Skip("set BENCH_SCALE=large to analyze the bench-large trace end to end")
	}
	app, err := apps.ByName(apps.BenchLargeApp, apps.BenchLargeIters)
	if err != nil {
		b.Fatal(err)
	}
	cfg := apps.DefaultTraceConfig(apps.BenchLargeRanks)
	cfg.Seed = apps.BenchLargeSeed
	tr, err := sim.Run(cfg, app)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()

	b.Run("columnar", func(b *testing.B) {
		b.SetBytes(int64(len(raw)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var opts core.Options
			opts.Cluster.SilhouetteSample = 256
			if _, err := core.AnalyzeStream(bytes.NewReader(raw), opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAnalyzeCached prices the content-addressed result cache on
// the bench-large trace at the rescache boundary the daemon uses:
//
//   - cold: empty cache, so GetOrCompute digests the bytes and runs the
//     full streaming analysis + JSON encode — the miss path.
//   - warm: the same lookup against a warm cache — digest, key build,
//     sharded-LRU hit. The ≥100× ns/op and allocs/op gap versus cold is
//     the headline win the cache exists for.
//   - coalesced-8: 8 concurrent identical requests against an empty
//     cache; singleflight runs ONE analysis and the other 7 share it,
//     so ns/op tracks cold (one run), not 8×cold.
//
// Needs BENCH_SCALE=large; simulation and encoding sit outside the
// timer.
func BenchmarkAnalyzeCached(b *testing.B) {
	if !benchScaleLarge() {
		b.Skip("set BENCH_SCALE=large to exercise the result cache on the bench-large trace")
	}
	app, err := apps.ByName(apps.BenchLargeApp, apps.BenchLargeIters)
	if err != nil {
		b.Fatal(err)
	}
	cfg := apps.DefaultTraceConfig(apps.BenchLargeRanks)
	cfg.Seed = apps.BenchLargeSeed
	tr, err := sim.Run(cfg, app)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()

	opts := core.Options{}
	opts.Cluster.SilhouetteSample = 256
	fp := opts.Fingerprint()
	analyze := func(ctx context.Context) (rescache.Result, error) {
		rep, err := core.AnalyzeStreamContext(ctx, bytes.NewReader(raw), opts)
		if err != nil {
			return rescache.Result{}, err
		}
		data, err := json.Marshal(rep)
		if err != nil {
			return rescache.Result{}, err
		}
		return rescache.Result{Data: append(data, '\n')}, nil
	}

	b.Run("cold", func(b *testing.B) {
		b.SetBytes(int64(len(raw)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c := rescache.New(rescache.Config{})
			key := rescache.Key("report", trace.DigestBytes(raw), fp)
			if _, _, err := c.GetOrCompute(context.Background(), key, analyze); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		c := rescache.New(rescache.Config{})
		if _, _, err := c.GetOrCompute(context.Background(),
			rescache.Key("report", trace.DigestBytes(raw), fp), analyze); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(raw)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			key := rescache.Key("report", trace.DigestBytes(raw), fp)
			v, st, err := c.GetOrCompute(context.Background(), key, analyze)
			if err != nil || st != rescache.Hit || len(v) == 0 {
				b.Fatalf("expected a warm hit, got status %v err %v", st, err)
			}
		}
	})
	b.Run("coalesced-8", func(b *testing.B) {
		b.SetBytes(int64(len(raw)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c := rescache.New(rescache.Config{})
			key := rescache.Key("report", trace.DigestBytes(raw), fp)
			var wg sync.WaitGroup
			for j := 0; j < 8; j++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if _, _, err := c.GetOrCompute(context.Background(), key, analyze); err != nil {
						b.Error(err)
					}
				}()
			}
			wg.Wait()
		}
	})
}

// BenchmarkAnalyzeSharded runs the batch analysis through the map/reduce
// algebra at increasing shard counts over the bench-large trace. The
// Report is identical at every count (TestShardedEquivalence); the
// benchmark prices the decomposition itself — per-shard pipeline set-up,
// the joint merge sort, and the reduce-side clustering — against the
// single-pass baseline (1shards ≙ Analyze). Needs BENCH_SCALE=large;
// simulation sits outside the timer.
func BenchmarkAnalyzeSharded(b *testing.B) {
	if !benchScaleLarge() {
		b.Skip("set BENCH_SCALE=large to analyze the bench-large trace sharded")
	}
	app, err := apps.ByName(apps.BenchLargeApp, apps.BenchLargeIters)
	if err != nil {
		b.Fatal(err)
	}
	cfg := apps.DefaultTraceConfig(apps.BenchLargeRanks)
	cfg.Seed = apps.BenchLargeSeed
	tr, err := sim.Run(cfg, app)
	if err != nil {
		b.Fatal(err)
	}

	for _, n := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("%dshards", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				opts := core.Options{}
				opts.Cluster.SilhouetteSample = 256
				if _, err := core.AnalyzeSharded(tr, n, core.ShardTime, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBurstExtract measures burst extraction over a full trace.
func BenchmarkBurstExtract(b *testing.B) {
	tr := benchTrace(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := burst.Extract(tr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDBSCAN measures density clustering of 10k 3-D points.
func BenchmarkDBSCAN(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 2))
	points := make([][]float64, 10_000)
	for i := range points {
		c := float64(i % 5)
		points[i] = []float64{
			c/5 + 0.01*rng.NormFloat64(),
			c/5 + 0.01*rng.NormFloat64(),
			0.5 + 0.01*rng.NormFloat64(),
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cluster.DBSCAN(points, 0.05, 4)
	}
}

// BenchmarkKMeans measures the baseline clusterer on the same workload.
func BenchmarkKMeans(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 2))
	points := make([][]float64, 10_000)
	for i := range points {
		c := float64(i % 5)
		points[i] = []float64{c/5 + 0.01*rng.NormFloat64(), c/5 + 0.01*rng.NormFloat64()}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cluster.KMeans(points, 5, 1, 50)
	}
}

// benchInstances synthesizes folding input: n instances with s samples,
// each counter in cs (default TOT_INS) ticking along its own shape.
func benchInstances(n, s int, cs ...counters.Counter) []folding.Instance {
	if len(cs) == 0 {
		cs = []counters.Counter{counters.TotIns}
	}
	rng := rand.New(rand.NewPCG(3, 4))
	shapes := []counters.Shape{
		counters.ExpDecay(3, 0.2), counters.Linear(0.4, 1.6), counters.Constant(),
		counters.Piecewise(counters.Segment{Width: 0.4, Area: 0.7}, counters.Segment{Width: 0.6, Area: 0.3}),
	}
	out := make([]folding.Instance, n)
	var clock trace.Time
	for i := range out {
		d := trace.Time(1_000_000)
		in := folding.Instance{Start: clock, End: clock + d}
		for _, c := range cs {
			in.Totals[c] = 10_000_000
		}
		for j := 0; j < s; j++ {
			x := rng.Float64()
			var sm trace.Sample
			sm.Time = in.Start + trace.Time(x*float64(d))
			for k, c := range cs {
				sm.Counters[c] = int64(1e7 * shapes[k%len(shapes)].Integral(x))
			}
			in.Samples = append(in.Samples, sm)
		}
		out[i] = in
		clock += d
	}
	return out
}

// BenchmarkFold measures the folding reconstruction: one counter over
// 1000 instances × 2 samples, and a phase-sized cloud (1600 instances ×
// 70 samples, ~112k points) with the four default counters folded
// together through FoldCounters, as the engine folds each phase.
func BenchmarkFold(b *testing.B) {
	b.Run("1000x2", func(b *testing.B) {
		instances := benchInstances(1000, 2)
		cfg := folding.Config{Counter: counters.TotIns}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := folding.Fold(instances, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("phase-1600x70x4", func(b *testing.B) {
		cs := []counters.Counter{counters.TotIns, counters.FPOps, counters.L1DCM, counters.L2DCM}
		instances := benchInstances(1600, 70, cs...)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, errs := folding.FoldCounters(instances, folding.Config{}, cs, 1)
			for _, err := range errs {
				if err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkFoldStacks measures call-stack folding.
func BenchmarkFoldStacks(b *testing.B) {
	instances := benchInstances(1000, 3)
	for i := range instances {
		for j := range instances[i].Samples {
			instances[i].Samples[j].Stack = []uint32{uint32(j%3) + 1, 9}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		folding.FoldStacks(instances, 50)
	}
}

// BenchmarkIsotonic measures PAVA on 100k points.
func BenchmarkIsotonic(b *testing.B) {
	rng := rand.New(rand.NewPCG(5, 6))
	pts := make([]fit.Point, 100_000)
	for i := range pts {
		x := float64(i) / 100_000
		pts[i] = fit.Point{X: x, Y: x + 0.1*rng.NormFloat64(), W: 1}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fit.Isotonic(pts)
	}
}

// BenchmarkPCHIP measures construction + 10k evaluations.
func BenchmarkPCHIP(b *testing.B) {
	xs := make([]float64, 101)
	ys := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(i) / 100
		ys[i] = xs[i] * xs[i]
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := fit.NewPCHIP(xs, ys)
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 10_000; j++ {
			p.Eval(float64(j) / 10_000)
		}
	}
}

// BenchmarkAnalyzePipeline measures the full Analyze pipeline on a
// moderate trace with the engine pinned to one worker — the sequential
// baseline the parallel variant is judged against.
func BenchmarkAnalyzePipeline(b *testing.B) {
	tr := benchTrace(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Analyze(tr, core.Options{Parallelism: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyzePipelineParallel is the same pipeline saturating all
// cores (the default Options). Compare against BenchmarkAnalyzePipeline
// in BENCH_<date>.json to read the speedup; on a 1-core runner the two
// should be within noise of each other (the fan-out costs nothing when
// there is nothing to fan onto).
func BenchmarkAnalyzePipelineParallel(b *testing.B) {
	tr := benchTrace(b)
	opts := core.Options{Parallelism: runtime.GOMAXPROCS(0)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Analyze(tr, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamVsBatchMemory compares the allocation footprint of the
// two analysis paths on the same encoded 200-iteration stencil trace.
// "batch" decodes the full trace and runs Analyze — allocations scale
// with the record count. "stream" runs AnalyzeStream over the bytes
// record by record through pooled blocks; "stream/online" adds
// train-then-classify and incremental folding, so its allocations scale
// with bursts and bins rather than records. Compare B/op across the
// three sub-benchmarks in BENCH_MEM_<date>.json.
func BenchmarkStreamVsBatchMemory(b *testing.B) {
	tr, err := sim.Run(apps.DefaultTraceConfig(8), apps.NewStencil(200))
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()

	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(raw)))
		for i := 0; i < b.N; i++ {
			tr, err := trace.ReadFrom(bytes.NewReader(raw))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := core.Analyze(tr, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("stream", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(raw)))
		for i := 0; i < b.N; i++ {
			if _, err := core.AnalyzeStream(bytes.NewReader(raw), core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("stream/online", func(b *testing.B) {
		opts := core.Options{Stream: core.StreamOptions{Online: true}}
		b.ReportAllocs()
		b.SetBytes(int64(len(raw)))
		for i := 0; i < b.N; i++ {
			if _, err := core.AnalyzeStream(bytes.NewReader(raw), opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchClusteredPoints builds a labeled point set sized so the O(n²)
// silhouette dominates.
func benchClusteredPoints(n int) ([][]float64, []int) {
	rng := rand.New(rand.NewPCG(7, 8))
	points := make([][]float64, n)
	assign := make([]int, n)
	for i := range points {
		c := i % 5
		points[i] = []float64{
			float64(c)/5 + 0.01*rng.NormFloat64(),
			float64(c)/5 + 0.01*rng.NormFloat64(),
			0.5 + 0.01*rng.NormFloat64(),
		}
		assign[i] = c + 1
	}
	return points, assign
}

// benchScaleLarge reports whether the expensive large-scale baselines
// were requested (`make bench BENCH_SCALE=large`). The quadratic
// reference kernels at n=100k take minutes per op, so they stay off the
// default sweep; the indexed kernels run at every n unconditionally.
func benchScaleLarge() bool { return os.Getenv("BENCH_SCALE") == "large" }

// benchSizes are the point counts the clustering-kernel benchmarks
// sweep; names like "10k" key the BENCH_<date>.json trajectory.
var benchSizes = []struct {
	n    int
	name string
}{{1000, "1k"}, {10_000, "10k"}, {100_000, "100k"}}

// BenchmarkSilhouette sweeps the silhouette kernel across sizes and
// exactness: "exact" is the per-cluster sum decomposition (bit-identical
// to the historical all-pairs scan), "sampled256" caps every cluster at
// 256 strided members (O(n·K·S)). exact-100k needs BENCH_SCALE=large.
func BenchmarkSilhouette(b *testing.B) {
	for _, sz := range benchSizes {
		points, assign := benchClusteredPoints(sz.n)
		b.Run("exact-"+sz.name, func(b *testing.B) {
			if sz.n >= 100_000 && !benchScaleLarge() {
				b.Skip("quadratic at n=100k; set BENCH_SCALE=large")
			}
			for i := 0; i < b.N; i++ {
				cluster.SilhouetteSampled(points, assign, 0, 1)
			}
		})
		b.Run("sampled256-"+sz.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cluster.SilhouetteSampled(points, assign, 256, 1)
			}
		})
	}
}

// BenchmarkAutoEps sweeps k-dist eps selection across sizes and neighbor
// search: "brute" scans all pairs with a bounded heap per row, "kd"
// queries the k-d tree. Both return bit-identical eps, so the ratio is
// pure index speedup. brute-100k needs BENCH_SCALE=large.
func BenchmarkAutoEps(b *testing.B) {
	modes := []struct {
		mode cluster.IndexMode
		name string
	}{{cluster.IndexBrute, "brute"}, {cluster.IndexKDTree, "kd"}}
	for _, sz := range benchSizes {
		points, _ := benchClusteredPoints(sz.n)
		for _, m := range modes {
			b.Run(m.name+"-"+sz.name, func(b *testing.B) {
				if m.mode == cluster.IndexBrute && sz.n >= 100_000 && !benchScaleLarge() {
					b.Skip("quadratic at n=100k; set BENCH_SCALE=large")
				}
				for i := 0; i < b.N; i++ {
					cluster.AutoEpsMode(points, 4, 1, m.mode)
				}
			})
		}
	}
}

// benchUniformPoints spreads n points uniformly over the unit cube —
// the bounded-density regime the DBSCAN grid is built for (the blob set
// from benchClusteredPoints would put thousands of points in one cell
// and measure the scan, not the index).
func benchUniformPoints(n int) [][]float64 {
	rng := rand.New(rand.NewPCG(9, 10))
	points := make([][]float64, n)
	for i := range points {
		points[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	return points
}

// BenchmarkDBSCANIndex measures one steady-state neighbor query against
// the packed-coordinate grid, with eps sized for ~20 expected neighbors
// at every n. The grid is built and the append buffer grown before the
// timer starts, so allocs/op reports the steady state — the contract is
// 0 B/op.
func BenchmarkDBSCANIndex(b *testing.B) {
	for _, sz := range benchSizes {
		points := benchUniformPoints(sz.n)
		eps := math.Cbrt(20.0 * 6 / math.Pi / float64(sz.n))
		b.Run(sz.name, func(b *testing.B) {
			g := cluster.NewNeighborGrid(points, eps)
			var buf []int32
			for i := range points {
				buf = g.Append(i, buf[:0])
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = g.Append(i%sz.n, buf[:0])
			}
		})
	}
}

// BenchmarkClusterTraceLarge runs the full clustering stage (normalize,
// auto-eps, DBSCAN, sampled silhouette) over the bench-large preset
// trace — ~100k kept bursts from 32 stencil ranks — the end-to-end
// workload the indexed kernels exist for. Needs BENCH_SCALE=large; the
// trace is simulated outside the timer.
func BenchmarkClusterTraceLarge(b *testing.B) {
	if !benchScaleLarge() {
		b.Skip("set BENCH_SCALE=large to simulate and cluster the ~100k-burst trace")
	}
	app, err := apps.ByName(apps.BenchLargeApp, apps.BenchLargeIters)
	if err != nil {
		b.Fatal(err)
	}
	cfg := apps.DefaultTraceConfig(apps.BenchLargeRanks)
	cfg.Seed = apps.BenchLargeSeed
	tr, err := sim.Run(cfg, app)
	if err != nil {
		b.Fatal(err)
	}
	all, err := burst.Extract(tr)
	if err != nil {
		b.Fatal(err)
	}
	kept, _ := burst.Filter{MinDuration: 50_000}.Apply(all)
	b.Logf("clustering %d kept bursts", len(kept))
	ccfg := cluster.Config{UseIPC: true, Parallelism: 1, SilhouetteSample: 256}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cluster.ClusterBursts(kept, ccfg)
	}
}

// BenchmarkDiff prices the cross-run differential analysis
// (internal/diff) on the bench-large preset: the baseline run against a
// perturbed re-run (20% slowdown injected into every sweep iteration),
// both analyzed outside the timer. What is measured is exactly the
// diff-specific work — raw-space centroid matching, resampling both
// runs' folded curves onto the common grid, divergence localization and
// the significance guard — i.e. the marginal cost of a /v1/diff answer
// once both sides are cache hits. Needs BENCH_SCALE=large.
func BenchmarkDiff(b *testing.B) {
	if !benchScaleLarge() {
		b.Skip("set BENCH_SCALE=large to diff two bench-large analyses")
	}
	analyzeRun := func(seed uint64, perturb sim.PerturbConfig) *core.Report {
		app, err := apps.ByName(apps.BenchLargeApp, apps.BenchLargeIters)
		if err != nil {
			b.Fatal(err)
		}
		cfg := apps.DefaultTraceConfig(apps.BenchLargeRanks)
		cfg.Seed = seed
		cfg.Perturb = perturb
		tr, err := sim.Run(cfg, app)
		if err != nil {
			b.Fatal(err)
		}
		opts := core.Options{}
		opts.Cluster.SilhouetteSample = 256
		rep, err := core.Analyze(tr, opts)
		if err != nil {
			b.Fatal(err)
		}
		return rep
	}
	repA := analyzeRun(apps.BenchLargeSeed, sim.PerturbConfig{})
	repB := analyzeRun(apps.BenchLargeSeed+1, sim.PerturbConfig{
		Factor: 1.2, Fraction: 1, Kernel: "jacobi_sweep", At: 0.6, Seed: 7,
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := diff.Compare(repA, repB, diff.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if len(d.Matched) == 0 {
			b.Fatal("diff matched no phases")
		}
	}
}
