package cluster

import (
	"cmp"
	"fmt"
	"log/slog"
	"math"
	"slices"

	"repro/internal/burst"
	"repro/internal/parallel"
)

// Config parameterizes burst clustering.
type Config struct {
	// Eps is the DBSCAN neighborhood radius in normalized feature space;
	// 0 selects it automatically from the k-dist curve (see AutoEpsMode).
	Eps float64
	// MinPts is the DBSCAN density threshold; 0 defaults to 4 (the usual
	// choice for 2-3 dimensional spaces).
	MinPts int
	// UseIPC adds IPC as a third feature dimension alongside log duration
	// and log instructions.
	UseIPC bool
	// Parallelism bounds the workers used by the heavy kernels
	// (AutoEpsMode's k-d tree build and k-dist scan, the silhouette) and
	// by DBSCAN's core-point and border-point passes; 0 selects
	// GOMAXPROCS, 1 forces sequential execution. The clustering result
	// is identical for every value.
	Parallelism int
	// Index selects the neighbor-search implementation behind
	// AutoEpsMode's k-dist scan. IndexAuto (the zero value) uses the k-d
	// tree at or above indexAutoMin points and the brute-force scan below;
	// IndexBrute and IndexKDTree force one path. Both produce
	// bit-identical eps for every input — the tree search is exact — so
	// this is purely a performance knob.
	Index IndexMode
	// SilhouetteSample caps how many members of each cluster the
	// silhouette scores. A positive value S deterministically scores S
	// evenly strided members of every cluster larger than S against each
	// other, weighted back to a per-point mean, so the kernel costs
	// O((K·S)²) whatever n is, at the cost of an approximate coefficient
	// (see SilhouetteSampled); an S at or above the largest cluster
	// scores every member and is exact. 0 (the default), like any
	// negative value, is chosen from the input size, as IndexAuto is: the
	// exact all-members computation, n²/2 distances, up to 4,096 bursts,
	// and a 256-member sample above. Result.SilhouetteSample records which
	// kernel ran.
	SilhouetteSample int
	// Logger, when non-nil, receives a structured record per clustering
	// run (point count, chosen eps, K, silhouette) so long-running
	// services can watch parameter selection live. It never affects the
	// result.
	Logger *slog.Logger
}

// IndexMode selects the neighbor-search implementation for the
// parameter-selection kernels.
type IndexMode int

const (
	// IndexAuto picks the k-d tree at or above indexAutoMin points and
	// brute force below, where the tree's build cost is not yet repaid.
	IndexAuto IndexMode = iota
	// IndexBrute forces the O(n²) reference scan.
	IndexBrute
	// IndexKDTree forces the indexed O(n log n) scan.
	IndexKDTree
)

// indexAutoMin is the point count at which IndexAuto switches from the
// brute-force scan to the k-d tree.
const indexAutoMin = 512

// silhouetteAutoMax is the largest burst count whose default silhouette
// (Config.SilhouetteSample = 0) is exact; above it the default scores
// silhouetteAutoSample members per cluster, whose cost does not grow
// with the burst count.
const (
	silhouetteAutoMax    = 4096
	silhouetteAutoSample = 256
)

// String names the mode.
func (m IndexMode) String() string {
	switch m {
	case IndexAuto:
		return "auto"
	case IndexBrute:
		return "brute"
	case IndexKDTree:
		return "kdtree"
	}
	return fmt.Sprintf("IndexMode(%d)", int(m))
}

// Result is the outcome of clustering a burst set.
type Result struct {
	// Assign maps each input burst to a cluster id: 0 = noise, 1..K are
	// clusters ordered by decreasing total burst time. Like Features it
	// is an in-memory handle, one entry per burst, and not serialized:
	// a report's JSON stays O(clusters) however many bursts it covers.
	Assign []int `json:"-"`
	// K is the number of clusters found (excluding noise).
	K int
	// Eps and MinPts are the effective DBSCAN parameters.
	Eps    float64
	MinPts int
	// Features is the normalized feature matrix used (for plots), one
	// row per burst; in memory only, like Assign.
	Features [][]float64 `json:"-"`
	// Silhouette is the mean silhouette coefficient over clustered points
	// (NaN when fewer than 2 clusters): exact when SilhouetteSample is 0,
	// else estimated from the scored sample. With the default config it
	// is exact up to 4,096 bursts and sampled above.
	Silhouette float64
	// SilhouetteSample is the per-cluster sample the silhouette kernel
	// scored: 0 when it scored every member (the exact bits), else the S
	// that cut at least one cluster.
	SilhouetteSample int `json:",omitempty"`
}

// Features computes the clustering feature matrix for bursts: log10
// duration, log10 instructions, and optionally IPC, min-max normalized to
// [0,1] per dimension. Non-positive durations/instruction counts clamp to
// 1 before the log.
func Features(bursts []burst.Burst, useIPC bool) [][]float64 {
	flat, dim := featuresFlat(bursts, useIPC)
	return rowsOf(flat, dim)
}

// featuresFlat is the columnar core of Features: the same per-burst
// arithmetic and the same min-max normalization, but the matrix lives in
// one row-major allocation instead of a slice per burst. Downstream
// kernels that index rows (DBSCAN) wrap it with rowsOf; the silhouette
// kernel reads the flat array directly, and the k-d tree copies it once
// into its slot order.
func featuresFlat(bursts []burst.Burst, useIPC bool) ([]float64, int) {
	dim := 2
	if useIPC {
		dim = 3
	}
	flat := make([]float64, len(bursts)*dim)
	for i := range bursts {
		d := float64(bursts[i].Duration())
		if d < 1 {
			d = 1
		}
		ins := float64(bursts[i].Instructions())
		if ins < 1 {
			ins = 1
		}
		row := flat[i*dim : (i+1)*dim]
		row[0] = math.Log10(d)
		row[1] = math.Log10(ins)
		if useIPC {
			row[2] = bursts[i].IPC()
		}
	}
	normalizeFlat(flat, dim)
	return flat, dim
}

// rowsOf builds capacity-capped row headers over a row-major flat
// matrix, giving the [][]float64 shape the row-oriented kernels expect
// in a single header allocation.
func rowsOf(flat []float64, dim int) [][]float64 {
	if dim <= 0 {
		return nil
	}
	n := len(flat) / dim
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = flat[i*dim : (i+1)*dim : (i+1)*dim]
	}
	return rows
}

// normalizeFlat min-max scales each column of the row-major matrix to
// [0,1] in place. Constant columns become 0.
func normalizeFlat(flat []float64, dim int) {
	if len(flat) == 0 || dim <= 0 {
		return
	}
	n := len(flat) / dim
	for d := 0; d < dim; d++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := 0; i < n; i++ {
			v := flat[i*dim+d]
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		span := hi - lo
		for i := 0; i < n; i++ {
			if span == 0 {
				flat[i*dim+d] = 0
			} else {
				flat[i*dim+d] = (flat[i*dim+d] - lo) / span
			}
		}
	}
}

// AutoEpsMode estimates the DBSCAN eps from the k-dist distribution: the
// distance of each point to its k-th nearest neighbor is computed and the
// 99th percentile returned, so that ≥99% of points are core points at the
// chosen radius. Compared with the classic knee-of-the-sorted-curve rule,
// the high percentile is robust to the heavy-tailed densities that
// lognormal duration noise produces — the knee rule lands in the dense
// bulk and fragments each phase into shards.
//
// The k-dist scan is partitioned into contiguous ranges for at most
// parallelism workers (0 = GOMAXPROCS), each k-dist written to its own
// slot. mode selects the neighbor search: the indexed path builds a k-d
// tree (on the same workers) and queries it in the tree's slot order
// with a bounded max-heap per point — O(n log n) total instead of the
// brute scan's O(n²) — and both paths finish with a quickselect of the
// 99th percentile rather than a full sort, which reads the k-dists in
// any order. Because the tree search is exact and sqrt is monotone,
// every mode returns bit-identical eps on the same input, for every
// parallelism (the *Property* tests in knn_test.go enforce this). The
// rows are copied once into a pooled row-major buffer and handed to
// autoEpsFlat.
func AutoEpsMode(points [][]float64, k, parallelism int, mode IndexMode) float64 {
	if len(points) == 0 {
		return 0.1
	}
	dim := len(points[0])
	flat := parallel.GetFloat64(len(points) * dim)
	defer parallel.PutFloat64(flat)
	for i, p := range points {
		copy(flat[i*dim:(i+1)*dim], p)
	}
	return autoEpsFlat(flat, dim, k, parallelism, mode)
}

// autoEpsFlat is AutoEpsMode over a row-major flat matrix, the layout
// featuresFlat produces; flat is only read. The k-d tree copies it into
// its slot order; the brute path scans contiguous row views.
func autoEpsFlat(flat []float64, dim, k, parallelism int, mode IndexMode) float64 {
	if dim <= 0 {
		return 0.1
	}
	n := len(flat) / dim
	if n == 0 {
		return 0.1
	}
	if k >= n {
		k = n - 1
	}
	if k < 1 {
		return 0.1
	}
	var kd []float64
	if mode == IndexKDTree || (mode == IndexAuto && n >= indexAutoMin) {
		kd = NewKDTreeFlat(flat, dim, parallelism).KDists(k, parallelism)
	} else {
		kd = make([]float64, n)
		parallel.ForEachChunk(n, parallelism, func(lo, hi int) {
			heap := make([]float64, 0, k)
			for i := lo; i < hi; i++ {
				h := heap[:0]
				pi := flat[i*dim : (i+1)*dim]
				for j := 0; j < n; j++ {
					if i != j {
						jo := j * dim
						h = pushBounded(h, dist2(pi, flat[jo:jo+dim]), k)
					}
				}
				kd[i] = math.Sqrt(h[0])
			}
		})
	}
	// The 99th-percentile k-dist via quickselect, floored at 1e-3 so a
	// degenerate point set (all duplicates) still yields a usable
	// radius. n*99/100 <= n-1 for every n >= 1.
	eps := quantileSelect(kd, n*99/100)
	if eps <= 0 {
		eps = 1e-3
	}
	return eps
}

// minClusterShare is the fraction of the clustered bursts below which
// a cluster is demoted to noise. Heavy-tailed duration noise produces
// tiny outlying shards that DBSCAN dutifully groups; they are
// measurement debris, not application phases.
const minClusterShare = 0.01

// SetDefaults sets MinPts to its default when unset, and a negative
// SilhouetteSample to 0, the default it scores like. ClusterBursts and
// the analysis options fingerprint both call it, so each default is
// written only here.
func (c *Config) SetDefaults() {
	if c.MinPts == 0 {
		c.MinPts = 4
	}
	if c.SilhouetteSample < 0 {
		c.SilhouetteSample = 0
	}
}

// ClusterBursts runs the full burst-clustering pipeline: feature
// extraction, parameter selection, DBSCAN, and renumbering of clusters by
// decreasing total burst time. The input bursts' Cluster fields are set.
func ClusterBursts(bursts []burst.Burst, cfg Config) Result {
	cfg.SetDefaults()
	res := Result{MinPts: cfg.MinPts, Eps: cfg.Eps}
	if len(bursts) == 0 {
		return res
	}
	flat, dim := featuresFlat(bursts, cfg.UseIPC)
	res.Features = rowsOf(flat, dim)
	if res.Eps == 0 {
		res.Eps = autoEpsFlat(flat, dim, res.MinPts, cfg.Parallelism, cfg.Index)
	}
	raw := DBSCANP(res.Features, res.Eps, res.MinPts, cfg.Parallelism)

	// DBSCANP numbers its clusters densely 1..max(raw), so per-cluster
	// tallies are slices indexed by its ids.
	sizes := make([]int, slices.Max(raw)+1)
	totals := make([]int64, len(sizes))
	for i, c := range raw {
		sizes[c]++
		totals[c] += int64(bursts[i].Duration())
	}

	// Demote sub-scale shards to noise, rank the rest by total time and
	// renumber them 1..K.
	minSize := int(minClusterShare * float64(len(raw)))
	var ids []int
	for c := Noise + 1; c < len(sizes); c++ {
		if sizes[c] >= minSize {
			ids = append(ids, c)
		}
	}
	slices.SortFunc(ids, func(a, b int) int {
		if c := cmp.Compare(totals[b], totals[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	remap := make([]int, len(sizes))
	for newID, oldID := range ids {
		remap[oldID] = newID + 1
	}
	res.Assign = make([]int, len(raw))
	for i, c := range raw {
		res.Assign[i] = remap[c]
		bursts[i].Cluster = remap[c]
	}
	res.K = len(ids)
	sample := cfg.SilhouetteSample
	if sample == 0 && len(bursts) > silhouetteAutoMax {
		sample = silhouetteAutoSample
	}
	res.Silhouette, res.SilhouetteSample = silhouetteFlat(flat, dim, res.Assign, sample, cfg.Parallelism)
	if cfg.Logger != nil {
		cfg.Logger.Info("clustered bursts", "bursts", len(bursts),
			"eps", res.Eps, "min_pts", res.MinPts, "clusters", res.K,
			"silhouette", res.Silhouette)
	}
	return res
}

// ClusterTimeCoverage returns the fraction of total burst time assigned to
// non-noise clusters — the paper reports its clusters covering the bulk of
// computation time.
func ClusterTimeCoverage(bursts []burst.Burst, assign []int) float64 {
	if len(bursts) != len(assign) {
		panic(fmt.Sprintf("cluster: %d bursts vs %d assignments", len(bursts), len(assign)))
	}
	type sums struct{ tot, cov int64 }
	// Integer sums are order-independent, so the chunked reduction is
	// deterministic for any worker count.
	s := parallel.Reduce(len(bursts), 0,
		func() sums { return sums{} },
		func(a sums, i int) sums {
			d := int64(bursts[i].Duration())
			a.tot += d
			if assign[i] != Noise {
				a.cov += d
			}
			return a
		},
		func(a, b sums) sums { return sums{a.tot + b.tot, a.cov + b.cov} })
	if s.tot == 0 {
		return 0
	}
	return float64(s.cov) / float64(s.tot)
}
