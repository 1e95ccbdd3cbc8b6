package cluster

import (
	"fmt"
	"log/slog"
	"math"
	"sort"

	"repro/internal/burst"
	"repro/internal/parallel"
)

// Config parameterizes burst clustering.
type Config struct {
	// Eps is the DBSCAN neighborhood radius in normalized feature space;
	// 0 selects it automatically from the k-dist curve (see AutoEps).
	Eps float64
	// MinPts is the DBSCAN density threshold; 0 defaults to 4 (the usual
	// choice for 2-3 dimensional spaces).
	MinPts int
	// UseIPC adds IPC as a third feature dimension alongside log duration
	// and log instructions.
	UseIPC bool
	// MinClusterShare demotes clusters holding less than this fraction of
	// the clustered bursts to noise (default 0.01). Heavy-tailed duration
	// noise produces tiny outlying shards that DBSCAN dutifully groups;
	// they are measurement debris, not application phases.
	MinClusterShare float64
	// Parallelism bounds the workers used by the heavy kernels
	// (AutoEps, the silhouette) and by DBSCAN's core-point and border-point
	// passes; 0 selects GOMAXPROCS, 1 forces sequential execution. The
	// clustering result is identical for every value.
	Parallelism int
	// Index selects the neighbor-search implementation behind AutoEps's
	// k-dist scan. IndexAuto (the zero value) uses the k-d tree at or
	// above indexAutoMin points and the brute-force scan below;
	// IndexBrute and IndexKDTree force one path. Both produce
	// bit-identical eps for every input — the tree search is exact — so
	// this is purely a performance knob.
	Index IndexMode
	// SilhouetteSample caps how many members of each cluster the
	// silhouette scores. 0 (the default) keeps the exact all-members
	// computation, n²/2 distances; a positive value S deterministically
	// scores S evenly strided members of every cluster larger than S
	// against each other, weighted back to a per-point mean, so the
	// kernel costs O((K·S)²) whatever n is, at the cost of an approximate
	// coefficient (see SilhouetteSampled).
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

// String names the mode as the CLIs spell it (-knn flag values).
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

// ParseIndexMode parses a -knn flag value ("auto", "brute", "kdtree").
func ParseIndexMode(s string) (IndexMode, error) {
	switch s {
	case "auto", "":
		return IndexAuto, nil
	case "brute":
		return IndexBrute, nil
	case "kdtree", "kd", "tree":
		return IndexKDTree, nil
	}
	return IndexAuto, fmt.Errorf("cluster: unknown index mode %q (want auto, brute or kdtree)", s)
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
	// (NaN when fewer than 2 clusters): exact by default, estimated from
	// the scored sample when Config.SilhouetteSample is positive.
	Silhouette float64
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
// kernels that index rows (DBSCAN) wrap it with rowsOf; the k-d tree
// and the silhouette kernel read the flat array directly.
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
// [0,1] in place — the same per-dimension scan order and arithmetic as
// Normalize, so both layouts produce bit-identical values.
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

// Normalize min-max scales each column of the matrix to [0,1] in place.
// Constant columns become 0.
func Normalize(m [][]float64) {
	if len(m) == 0 {
		return
	}
	dim := len(m[0])
	for d := 0; d < dim; d++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, row := range m {
			if row[d] < lo {
				lo = row[d]
			}
			if row[d] > hi {
				hi = row[d]
			}
		}
		span := hi - lo
		for _, row := range m {
			if span == 0 {
				row[d] = 0
			} else {
				row[d] = (row[d] - lo) / span
			}
		}
	}
}

// AutoEps estimates the DBSCAN eps from the k-dist distribution: the
// distance of each point to its k-th nearest neighbor is computed and the
// 99th percentile returned, so that ≥99% of points are core points at the
// chosen radius. Compared with the classic knee-of-the-sorted-curve rule,
// the high percentile is robust to the heavy-tailed densities that
// lognormal duration noise produces — the knee rule lands in the dense
// bulk and fragments each phase into shards.
func AutoEps(points [][]float64, k int) float64 {
	return AutoEpsMode(points, k, 0, IndexAuto)
}

// AutoEpsP is AutoEps with an explicit worker bound: the k-dist scan is
// row-partitioned onto at most parallelism workers (0 = GOMAXPROCS).
// Every row's k-dist is computed independently and written to its own
// slot, so the returned eps is identical for every worker count.
func AutoEpsP(points [][]float64, k, parallelism int) float64 {
	return AutoEpsMode(points, k, parallelism, IndexAuto)
}

// AutoEpsMode is AutoEpsP with an explicit neighbor-search mode. The
// indexed path queries a k-d tree with a bounded max-heap per point —
// O(n log n) total instead of the brute scan's O(n²) — and both paths
// finish with a quickselect of the 99th percentile rather than a full
// sort. Because the tree search is exact and sqrt is monotone, every
// mode returns bit-identical eps on the same input, for every
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

// autoEpsFlat is AutoEpsMode over a row-major flat matrix — the
// zero-copy path from featuresFlat. The k-d tree bulk-loads the array;
// the brute path scans contiguous row views.
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
	kd := make([]float64, n)
	if mode == IndexKDTree || (mode == IndexAuto && n >= indexAutoMin) {
		tree := NewKDTreeFlat(flat, dim)
		parallel.ForEachChunk(n, parallelism, func(lo, hi int) {
			heap := parallel.GetFloat64(k)
			defer parallel.PutFloat64(heap)
			for i := lo; i < hi; i++ {
				kd[i] = tree.KNearestDist(i, k, heap)
			}
		})
	} else {
		parallel.ForEachChunk(n, parallelism, func(lo, hi int) {
			heap := parallel.GetFloat64(k)
			defer parallel.PutFloat64(heap)
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

// ClusterBursts runs the full burst-clustering pipeline: feature
// extraction, parameter selection, DBSCAN, and renumbering of clusters by
// decreasing total burst time. The input bursts' Cluster fields are set.
func ClusterBursts(bursts []burst.Burst, cfg Config) Result {
	res := Result{MinPts: cfg.MinPts, Eps: cfg.Eps}
	if res.MinPts == 0 {
		res.MinPts = 4
	}
	if len(bursts) == 0 {
		return res
	}
	flat, dim := featuresFlat(bursts, cfg.UseIPC)
	res.Features = rowsOf(flat, dim)
	if res.Eps == 0 {
		res.Eps = autoEpsFlat(flat, dim, res.MinPts, cfg.Parallelism, cfg.Index)
	}
	raw := DBSCANP(res.Features, res.Eps, res.MinPts, cfg.Parallelism)

	// Demote sub-scale shards to noise.
	share := cfg.MinClusterShare
	if share == 0 {
		share = 0.01
	}
	if share > 0 {
		sizes := map[int]int{}
		for _, c := range raw {
			if c != Noise {
				sizes[c]++
			}
		}
		minSize := int(share * float64(len(raw)))
		for i, c := range raw {
			if c != Noise && sizes[c] < minSize {
				raw[i] = Noise
			}
		}
	}

	// Rank clusters by total time, renumber 1..K.
	totals := map[int]int64{}
	for i, c := range raw {
		if c != Noise {
			totals[c] += int64(bursts[i].Duration())
		}
	}
	ids := make([]int, 0, len(totals))
	for id := range totals {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool {
		if totals[ids[a]] != totals[ids[b]] {
			return totals[ids[a]] > totals[ids[b]]
		}
		return ids[a] < ids[b]
	})
	remap := map[int]int{Noise: Noise}
	for newID, oldID := range ids {
		remap[oldID] = newID + 1
	}
	res.Assign = make([]int, len(raw))
	for i, c := range raw {
		res.Assign[i] = remap[c]
		bursts[i].Cluster = remap[c]
	}
	res.K = len(ids)
	res.Silhouette = silhouetteFlat(flat, dim, res.Assign, cfg.SilhouetteSample, cfg.Parallelism)
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
