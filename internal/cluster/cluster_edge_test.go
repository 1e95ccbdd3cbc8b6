package cluster

import (
	"math"
	"testing"

	"repro/internal/burst"
)

// These tests lock exact values for the quadratic kernels (AutoEps,
// Silhouette) on hand-computable inputs, so the parallel implementations
// are verified against the sequential semantics, and pin the edge cases —
// all-noise, single cluster, duplicate points — that a chunked rewrite
// could silently change.

func TestSilhouetteExactTwoPairs(t *testing.T) {
	// Two vertical pairs 10 apart. By symmetry every point has
	// a = 1 (its pair partner) and b = (10 + sqrt(101))/2.
	pts := [][]float64{{0, 0}, {0, 1}, {10, 0}, {10, 1}}
	assign := []int{1, 1, 2, 2}
	b := (10 + math.Sqrt(101)) / 2
	want := (b - 1) / b
	if got := SilhouetteSampled(pts, assign, 0, 0); math.Abs(got-want) > 1e-12 {
		t.Fatalf("silhouette = %.15f, want %.15f", got, want)
	}
}

func TestSilhouetteDuplicatePointsPerfect(t *testing.T) {
	// Each cluster collapses to one location: a = 0, b = 1 → s = 1 exactly
	// for every point.
	pts := [][]float64{{0, 0}, {0, 0}, {0, 0}, {1, 0}, {1, 0}, {1, 0}}
	assign := []int{1, 1, 1, 2, 2, 2}
	if got := SilhouetteSampled(pts, assign, 0, 0); got != 1 {
		t.Fatalf("duplicate-cluster silhouette = %g, want exactly 1", got)
	}
}

func TestSilhouetteAllPointsIdentical(t *testing.T) {
	// Every point identical across two clusters: a = b = 0, the 0/0
	// coefficient is defined as 0.
	pts := [][]float64{{0.5, 0.5}, {0.5, 0.5}, {0.5, 0.5}, {0.5, 0.5}}
	assign := []int{1, 1, 2, 2}
	if got := SilhouetteSampled(pts, assign, 0, 0); got != 0 {
		t.Fatalf("identical-points silhouette = %g, want exactly 0", got)
	}
}

func TestSilhouetteAllNoiseAndSingleCluster(t *testing.T) {
	pts := [][]float64{{0, 0}, {1, 0}, {2, 0}}
	if got := SilhouetteSampled(pts, []int{0, 0, 0}, 0, 0); !math.IsNaN(got) {
		t.Fatalf("all-noise silhouette = %g, want NaN", got)
	}
	if got := SilhouetteSampled(pts, []int{1, 1, 1}, 0, 0); !math.IsNaN(got) {
		t.Fatalf("single-cluster silhouette = %g, want NaN", got)
	}
	// Two clusters where one is pure noise is still a single cluster.
	if got := SilhouetteSampled(pts, []int{1, 1, 0}, 0, 0); !math.IsNaN(got) {
		t.Fatalf("cluster+noise silhouette = %g, want NaN", got)
	}
}

func TestSilhouetteIgnoresNoisePoints(t *testing.T) {
	// A far-away noise point must not shift any clustered point's b.
	pts := [][]float64{{0, 0}, {0, 1}, {10, 0}, {10, 1}}
	assign := []int{1, 1, 2, 2}
	base := SilhouetteSampled(pts, assign, 0, 0)
	withNoise := SilhouetteSampled(
		append(pts, []float64{1e6, 1e6}),
		append(append([]int{}, assign...), Noise), 0, 0)
	if base != withNoise {
		t.Fatalf("noise point changed silhouette: %g vs %g", base, withNoise)
	}
}

func TestSilhouetteParallelMatchesSequential(t *testing.T) {
	pts, labels := blobs(4, 50, 3, 0.05, 11)
	normalizeRows(pts)
	// Mark a few points noise so the noise-skipping paths run too.
	assign := append([]int{}, labels...)
	for i := 0; i < len(assign); i += 17 {
		assign[i] = Noise
	}
	seq := SilhouetteSampled(pts, assign, 0, 1)
	for _, p := range []int{2, 3, 8, 32} {
		if par := SilhouetteSampled(pts, assign, 0, p); par != seq {
			t.Fatalf("p=%d: silhouette %.17g != sequential %.17g", p, par, seq)
		}
	}
}

func TestAutoEpsExactLine(t *testing.T) {
	// 1-D line {0,1,2,3}, k=2: k-dists are {2,1,1,2}; the 99th-percentile
	// index is 4*99/100 = 3 → eps = 2 exactly.
	pts := [][]float64{{0}, {1}, {2}, {3}}
	if got := AutoEpsMode(pts, 2, 0, IndexAuto); got != 2 {
		t.Fatalf("AutoEps = %g, want exactly 2", got)
	}
}

func TestAutoEpsDuplicatePointsFloor(t *testing.T) {
	// All-duplicate points: every k-dist is 0, and the positive floor must
	// kick in at exactly 1e-3.
	pts := [][]float64{{1, 1}, {1, 1}, {1, 1}, {1, 1}, {1, 1}, {1, 1}}
	if got := AutoEpsMode(pts, 3, 0, IndexAuto); got != 1e-3 {
		t.Fatalf("duplicate-points AutoEps = %g, want exactly 1e-3", got)
	}
}

func TestAutoEpsParallelMatchesSequential(t *testing.T) {
	pts, _ := blobs(3, 60, 3, 0.04, 21)
	normalizeRows(pts)
	seq := AutoEpsMode(pts, 4, 1, IndexAuto)
	for _, p := range []int{2, 3, 8, 32} {
		if par := AutoEpsMode(pts, 4, p, IndexAuto); par != seq {
			t.Fatalf("p=%d: AutoEps %.17g != sequential %.17g", p, par, seq)
		}
	}
}

func TestDBSCANParallelMatchesSequential(t *testing.T) {
	pts, _ := blobs(3, 80, 2, 0.05, 31)
	// Outliers exercise the noise path.
	pts = append(pts, []float64{50, 50}, []float64{-40, 12})
	seq := DBSCANP(pts, 0.2, 4, 1)
	for _, p := range []int{2, 4, 16} {
		par := DBSCANP(pts, 0.2, 4, p)
		for i := range seq {
			if par[i] != seq[i] {
				t.Fatalf("p=%d: point %d assigned %d, sequential %d", p, i, par[i], seq[i])
			}
		}
	}
}

func TestClusterBurstsParallelismInvariant(t *testing.T) {
	bursts := makeBursts()
	seq := ClusterBursts(append([]burst.Burst(nil), bursts...), Config{UseIPC: true, Parallelism: 1})
	par := ClusterBursts(append([]burst.Burst(nil), bursts...), Config{UseIPC: true, Parallelism: 8})
	if seq.K != par.K || seq.Eps != par.Eps || seq.Silhouette != par.Silhouette {
		t.Fatalf("header mismatch: seq K=%d eps=%.17g sil=%.17g, par K=%d eps=%.17g sil=%.17g",
			seq.K, seq.Eps, seq.Silhouette, par.K, par.Eps, par.Silhouette)
	}
	for i := range seq.Assign {
		if seq.Assign[i] != par.Assign[i] {
			t.Fatalf("assignment %d differs: %d vs %d", i, seq.Assign[i], par.Assign[i])
		}
	}
}

// TestClusterBurstsIndexInvariant extends the determinism guarantee to
// the index knob: the full pipeline result — eps, K, silhouette, every
// assignment — must be bit-identical for every neighbor-search mode at
// every parallelism, because the k-d tree path is exact.
func TestClusterBurstsIndexInvariant(t *testing.T) {
	bursts := makeBursts()
	base := ClusterBursts(append([]burst.Burst(nil), bursts...), Config{UseIPC: true, Parallelism: 1})
	for _, mode := range []IndexMode{IndexAuto, IndexBrute, IndexKDTree} {
		for _, par := range []int{1, 8} {
			got := ClusterBursts(append([]burst.Burst(nil), bursts...),
				Config{UseIPC: true, Parallelism: par, Index: mode})
			if got.K != base.K || got.Eps != base.Eps || got.Silhouette != base.Silhouette {
				t.Fatalf("mode=%v par=%d: K=%d eps=%.17g sil=%.17g, want K=%d eps=%.17g sil=%.17g",
					mode, par, got.K, got.Eps, got.Silhouette, base.K, base.Eps, base.Silhouette)
			}
			for i := range base.Assign {
				if got.Assign[i] != base.Assign[i] {
					t.Fatalf("mode=%v par=%d: assignment %d differs: %d vs %d",
						mode, par, i, got.Assign[i], base.Assign[i])
				}
			}
		}
	}
}
