package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"

	"repro/internal/burst"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/folding"
	"repro/internal/online"
	"repro/internal/parallel"
	"repro/internal/trace"
)

// memSnap is the cumulative heap activity at one instant.
type memSnap struct{ alloc, mallocs uint64 }

func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnap{ms.TotalAlloc, ms.Mallocs}
}

func mb(bytes uint64) float64 { return float64(bytes) / 1e6 }

// poolTotals sums gets and misses over every internal/parallel pool.
func poolTotals() (gets, misses uint64) {
	for _, st := range parallel.Pools() {
		gets += st.Gets
		misses += st.Misses
	}
	return gets, misses
}

// layerCosts accumulates the heap and pool counters of the traced
// analyses, one entry per analysis.
type layerCosts struct {
	mapAllocMB, mapAllocs, trainAllocMB, reduceAllocMB []float64
	poolGets, poolMisses                               uint64
	reportMB                                           float64
}

// composed is one traced analysis: the steps of core.AnalyzeStreamContext
// called one by one, each inside a span under an "analysis" root, ending
// in the report's encoding. Exact mode trains a model from the partial
// and reduces against it; online mode reduces the fused partial alone.
// Stage walls are zeroed before encoding, so the returned digest is
// comparable with digest() of an untraced report.
func composed(ctx context.Context, t *tracer, op int, enc []byte, opts core.Options, lc *layerCosts) (*core.Report, *core.Partial, [sha256.Size]byte, error) {
	var sum [sha256.Size]byte
	root := t.begin("analysis", 0, op)
	defer t.end(root)

	var part *core.Partial
	var err error
	m0 := readMem()
	g0, mi0 := poolTotals()
	t.timed("core.MapShardStreamContext", root, op, func() {
		part, err = core.MapShardStreamContext(ctx, bytes.NewReader(enc), core.WholeSpec(), opts)
	})
	m1 := readMem()
	g1, mi1 := poolTotals()
	if err != nil {
		return nil, nil, sum, err
	}
	lc.mapAllocMB = append(lc.mapAllocMB, mb(m1.alloc-m0.alloc))
	lc.mapAllocs = append(lc.mapAllocs, float64(m1.mallocs-m0.mallocs))
	lc.poolGets += g1 - g0
	lc.poolMisses += mi1 - mi0
	parts := []*core.Partial{part}

	var model *cluster.Model
	if !opts.Stream.Online {
		t.timed("core.TrainModelFromPartials", root, op, func() {
			model, err = core.TrainModelFromPartials(parts, opts)
		})
		if err != nil {
			return nil, nil, sum, err
		}
		m2 := readMem()
		lc.trainAllocMB = append(lc.trainAllocMB, mb(m2.alloc-m1.alloc))
		m1 = m2
	}

	var rep *core.Report
	t.timed("core.Reduce", root, op, func() {
		rep, err = core.Reduce(parts, model, opts)
	})
	if err != nil {
		return nil, nil, sum, err
	}
	lc.reduceAllocMB = append(lc.reduceAllocMB, mb(readMem().alloc-m1.alloc))

	for i := range rep.Pipeline {
		rep.Pipeline[i].Wall = 0
	}
	var data []byte
	t.timed("json.Marshal", root, op, func() {
		data, err = json.Marshal(rep)
	})
	if err != nil {
		return nil, nil, sum, err
	}
	lc.reportMB = mb(uint64(len(data)))
	return rep, part, sha256.Sum256(data), nil
}

// clusterConfig is the clustering configuration core applies for opts:
// the 3-D feature space and the engine's default worker bound.
func clusterConfig(opts core.Options) cluster.Config {
	cl := opts.Cluster
	cl.UseIPC = true
	if cl.Parallelism == 0 {
		cl.Parallelism = opts.Parallelism
	}
	if cl.Parallelism <= 0 {
		cl.Parallelism = runtime.GOMAXPROCS(0)
	}
	return cl
}

// trainBursts is the online training-prefix length the engine defaults to.
func trainBursts(opts core.Options) int {
	if opts.Stream.TrainBursts > 0 {
		return opts.Stream.TrainBursts
	}
	return 512
}

// probeLayers times each layer's public functions once, as probe spans
// under their own root, on the workload's bytes and the last traced
// analysis (rep and part). It fills the per-layer values that spans of
// the blocking path cannot give and returns the report of the
// core.AnalyzeContext probe for the caller to check.
func probeLayers(ctx context.Context, t *tracer, enc []byte, opts core.Options, rep *core.Report, part *core.Partial, o *outcome) (*core.Report, error) {
	root := t.begin("probes", 0, 0)
	defer t.end(root)
	v := o.values

	// Data plane: one columnar decode pass, then burst extraction on the
	// decoded trace.
	var records int
	var err error
	v["trace.decode_s"] = t.timed("trace.StreamReader.NextBlock", root, 0, func() {
		records, err = decodePass(enc)
	})
	if err != nil {
		return nil, fmt.Errorf("decode probe: %w", err)
	}
	v["trace.records"] = float64(records)
	tr, err := trace.ReadFrom(bytes.NewReader(enc))
	if err != nil {
		return nil, fmt.Errorf("decode trace: %w", err)
	}
	v["burst.extract_s"] = t.timed("burst.Extract", root, 0, func() {
		_, err = burst.Extract(tr)
	})
	if err != nil {
		return nil, fmt.Errorf("extract probe: %w", err)
	}
	v["burst.kept_ratio"] = 0
	if rep.Bursts > 0 {
		v["burst.kept_ratio"] = float64(rep.Bursts-rep.Filtered) / float64(rep.Bursts)
	}

	// The whole analysis from an in-memory trace, as a session snapshot
	// runs it.
	var whole *core.Report
	v["session.reanalyze_s"] = t.timed("core.AnalyzeContext", root, 0, func() {
		whole, err = core.AnalyzeContext(ctx, tr, opts)
	})
	if err != nil {
		return nil, fmt.Errorf("reanalyze probe: %w", err)
	}

	// Online training on the first kept bursts in (start, rank) order:
	// the early-trace window the online path trains on.
	cl := clusterConfig(opts)
	prefix := append([]burst.Burst(nil), part.Kept[:min(trainBursts(opts), len(part.Kept))]...)
	var clf *online.Classifier
	m0 := readMem()
	v["online.train_s"] = t.timed("online.Train", root, 0, func() {
		clf, err = online.Train(prefix, cl)
	})
	if err != nil {
		return nil, fmt.Errorf("online.Train probe: %w", err)
	}
	if opts.Stream.Online {
		// The online path's only clustering is this training.
		v["cluster.train_s"] = v["online.train_s"]
		v["cluster.train_alloc_mb"] = mb(readMem().alloc - m0.alloc)
	}

	// Clustering kernels on the points the workload clusters: every kept
	// burst on the exact path, the training prefix on the online path.
	points, res := part.Kept, rep.Clustering
	if opts.Stream.Online {
		points, res = prefix, clf.Training
	}
	assign, k, minPts := res.Assign, res.K, res.MinPts
	feats := cluster.Features(points, cl.UseIPC)
	var eps float64
	v["cluster.autoeps_s"] = t.timed("cluster.AutoEpsMode", root, 0, func() {
		eps = cluster.AutoEpsMode(feats, minPts, cl.Parallelism, cl.Index)
	})
	v["cluster.dbscan_s"] = t.timed("cluster.DBSCANP", root, 0, func() {
		cluster.DBSCANP(feats, eps, minPts, cl.Parallelism)
	})
	v["cluster.silhouette_s"] = t.timed("cluster.SilhouetteSampled", root, 0, func() {
		cluster.SilhouetteSampled(feats, assign, cl.SilhouetteSample, cl.Parallelism)
	})
	noise := 0
	for _, a := range assign {
		if a == cluster.Noise {
			noise++
		}
	}
	v["cluster.points"] = float64(len(feats))
	v["cluster.k"] = float64(k)
	v["cluster.noise_ratio"] = 0
	if len(assign) > 0 {
		v["cluster.noise_ratio"] = float64(noise) / float64(len(assign))
	}

	// Folding: every analyzed phase × counter, plus the stack fold. The
	// online path keeps no instances, so there the prefix's phases are
	// folded instead.
	groups := make([][]folding.Instance, 0, len(rep.Phases))
	stackBins := 0
	for _, ph := range rep.Phases {
		groups = append(groups, ph.FoldInstances)
		if ph.Stacks != nil {
			stackBins = ph.Stacks.Bins
		}
	}
	if opts.Stream.Online {
		attached := burst.AttachSamples(tr, prefix)
		groups = groups[:0]
		for cid := 1; cid <= k && len(groups) < len(rep.Phases); cid++ {
			groups = append(groups, folding.InstancesFromBursts(prefix, attached, cid))
		}
	}
	var foldPoints, pruned, folded, failures int
	var foldS float64
	cs := reportCounters(rep)
	for _, ins := range groups {
		for _, c := range cs {
			cfg := opts.Fold
			cfg.Counter = c
			var res *folding.Result
			foldS += t.timed("folding.Fold", root, 0, func() {
				res, err = folding.Fold(ins, cfg)
			})
			if err != nil {
				failures++
				continue
			}
			foldPoints += len(res.Points)
			pruned += res.Pruned
			folded += res.Instances
		}
		if stackBins > 0 {
			foldS += t.timed("folding.FoldStacks", root, 0, func() {
				folding.FoldStacks(ins, stackBins)
			})
		}
	}
	v["folding.fold_s"] = foldS
	v["folding.points"] = float64(foldPoints)
	v["folding.fit_failures"] = float64(failures)
	v["folding.pruned_ratio"] = 0
	if folded+pruned > 0 {
		v["folding.pruned_ratio"] = float64(pruned) / float64(folded+pruned)
	}
	return whole, nil
}

// decodePass decodes enc once into recycled column blocks and returns
// the record count.
func decodePass(enc []byte) (int, error) {
	sr, err := trace.NewStreamReader(bytes.NewReader(enc))
	if err != nil {
		return 0, err
	}
	blk := trace.NewColBlock(4096)
	defer blk.Release()
	n := 0
	for {
		err := sr.NextBlock(blk)
		if errors.Is(err, io.EOF) {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		n += blk.Len()
	}
}

// reportCounters lists the counters the report folded or tried to fold.
func reportCounters(rep *core.Report) []counters.Counter {
	seen := map[counters.Counter]bool{}
	for _, ph := range rep.Phases {
		for c := range ph.Folds {
			seen[c] = true
		}
		for c := range ph.FoldErrors {
			seen[c] = true
		}
	}
	cs := make([]counters.Counter, 0, len(seen))
	for c := range seen {
		cs = append(cs, c)
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i] < cs[j] })
	return cs
}

// layerValues turns the traced analyses' spans and counters into the
// blocking-path per-layer metrics; analyzeS is the untraced median the
// span sum is compared with.
func layerValues(t *tracer, lc *layerCosts, analyzeS float64, o *outcome) {
	v := o.values
	v["core.map_s"] = median(t.selfTimes("core.MapShardStreamContext"))
	v["core.reduce_s"] = median(t.selfTimes("core.Reduce"))
	v["core.encode_s"] = median(t.selfTimes("json.Marshal"))
	v["core.map_alloc_mb"] = median(lc.mapAllocMB)
	v["core.map_allocs"] = median(lc.mapAllocs)
	v["core.reduce_alloc_mb"] = median(lc.reduceAllocMB)
	v["core.report_mb"] = lc.reportMB
	v["parallel.pool_miss_ratio"] = 0
	if lc.poolGets > 0 {
		v["parallel.pool_miss_ratio"] = float64(lc.poolMisses) / float64(lc.poolGets)
	}
	if train := t.selfTimes("core.TrainModelFromPartials"); len(train) > 0 {
		v["cluster.train_s"] = median(train)
		v["cluster.train_alloc_mb"] = median(lc.trainAllocMB)
	}
	if analyzeS > 0 {
		v["bench.span_sum_ratio"] = median(t.blockingTotals("analysis")) / analyzeS
	}
}
