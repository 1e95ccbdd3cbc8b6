package cluster

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
)

// Property tests: the indexed kernels must agree with their brute-force
// references on randomized inputs (fixed seeds). `make check` runs these
// explicitly in addition to the ordinary test pass.

// propPoints generates a randomized point set mixing dense blobs,
// uniform background noise, and exact duplicates — the shapes that break
// naive spatial indexes (ties, empty cells, heavy cells).
func propPoints(rng *rand.Rand, n, dim int) [][]float64 {
	pts := make([][]float64, 0, n)
	for len(pts) < n {
		switch rng.IntN(4) {
		case 0: // uniform background
			p := make([]float64, dim)
			for d := range p {
				p[d] = rng.Float64()
			}
			pts = append(pts, p)
		case 1, 2: // dense blob
			c := make([]float64, dim)
			for d := range c {
				c[d] = rng.Float64()
			}
			m := 1 + rng.IntN(20)
			for j := 0; j < m && len(pts) < n; j++ {
				p := make([]float64, dim)
				for d := range p {
					p[d] = c[d] + 0.02*rng.NormFloat64()
				}
				pts = append(pts, p)
			}
		case 3: // exact duplicates
			p := make([]float64, dim)
			for d := range p {
				p[d] = rng.Float64()
			}
			m := 1 + rng.IntN(5)
			for j := 0; j < m && len(pts) < n; j++ {
				pts = append(pts, p)
			}
		}
	}
	return pts
}

// bruteKDist is the O(n) reference: sort all distances from point i and
// take the k-th.
func bruteKDist(pts [][]float64, i, k int) float64 {
	dists := make([]float64, 0, len(pts)-1)
	for j := range pts {
		if j != i {
			dists = append(dists, math.Sqrt(dist2(pts[i], pts[j])))
		}
	}
	sort.Float64s(dists)
	return dists[k-1]
}

// TestKNNPropertyMatchesBrute checks every k-dist the batch scan returns
// against the brute-force reference for the point at its slot.
func TestKNNPropertyMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 7))
	for trial := 0; trial < 15; trial++ {
		n := 30 + rng.IntN(250)
		dim := 1 + rng.IntN(3)
		tree := NewKDTreeFlat(flatOf(propPoints(rng, n, dim)), dim, 1+trial%3)
		rows := rowsOf(tree.pts, dim)
		for _, k := range []int{1, 2, 4, 9} {
			if k >= n {
				continue
			}
			kd := tree.KDists(k, 1+trial%4)
			for s := range rows {
				if want := bruteKDist(rows, s, k); kd[s] != want {
					t.Fatalf("trial %d n=%d dim=%d: slot %d k=%d: tree %.17g != brute %.17g",
						trial, n, dim, s, k, kd[s], want)
				}
			}
		}
	}
}

// flatOf concatenates rows into one row-major array.
func flatOf(rows [][]float64) []float64 {
	var flat []float64
	for _, p := range rows {
		flat = append(flat, p...)
	}
	return flat
}

// TestKDTreeBuildInvariant checks trees built over random, ascending and
// descending inputs: the tree holds exactly the input rows; every inner
// node's middle slot holds the rank-mid point of its range on the
// node's axis, with no larger value left of it and no smaller one right
// of it, and that axis has the range's maximum spread (ties to the
// lowest axis); every leaf holds 1 to kdLeafSize points. Builds on 1, 2
// and 4 workers must produce the same layout; the last trial is wide
// enough for the build to start goroutines.
func TestKDTreeBuildInvariant(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 141))
	const trials = 13
	for trial := 0; trial < trials; trial++ {
		n := 1 + rng.IntN(400)
		if trial == trials-1 {
			n = 2*kdParallelMin + rng.IntN(1000)
		}
		dim := 1 + rng.IntN(3)
		pts := propPoints(rng, n, dim)
		for _, order := range []string{"random", "ascending", "descending"} {
			rows := slices.Clone(pts)
			switch order {
			case "ascending":
				slices.SortStableFunc(rows, slices.Compare[[]float64])
			case "descending":
				slices.SortStableFunc(rows, func(a, b []float64) int { return slices.Compare(b, a) })
			}
			flat := flatOf(rows)
			tree := NewKDTreeFlat(flat, dim, 1)
			got, want := rowsOf(tree.pts, dim), slices.Clone(rows)
			slices.SortFunc(got, slices.Compare[[]float64])
			slices.SortFunc(want, slices.Compare[[]float64])
			if !slices.EqualFunc(got, want, slices.Equal[[]float64]) {
				t.Fatalf("trial %d n=%d dim=%d %s: the tree's rows are not the input rows", trial, n, dim, order)
			}
			if err := checkKDNodes(tree, 0, n); err != "" {
				t.Fatalf("trial %d n=%d dim=%d %s: %s", trial, n, dim, order, err)
			}
			for _, par := range []int{2, 4} {
				other := NewKDTreeFlat(flat, dim, par)
				if !slices.Equal(other.pts, tree.pts) || !slices.Equal(other.axes, tree.axes) {
					t.Fatalf("trial %d n=%d dim=%d %s: parallelism %d builds another layout than 1", trial, n, dim, order, par)
				}
			}
		}
	}
}

// checkKDNodes verifies the subtree over slots [lo, hi) and returns a
// description of the first violation, or "".
func checkKDNodes(tree *KDTree, lo, hi int) string {
	if hi-lo <= kdLeafSize {
		if hi-lo < 1 {
			return fmt.Sprintf("empty leaf at slot %d", lo)
		}
		return ""
	}
	rows := rowsOf(tree.pts[lo*tree.dim:hi*tree.dim], tree.dim)
	axis, best := 0, math.Inf(-1)
	for d := 0; d < tree.dim; d++ {
		mn, mx := math.Inf(1), math.Inf(-1)
		for _, r := range rows {
			mn, mx = min(mn, r[d]), max(mx, r[d])
		}
		if mx-mn > best {
			axis, best = d, mx-mn
		}
	}
	mid := (lo + hi) / 2
	if int(tree.axes[mid]) != axis {
		return fmt.Sprintf("node %d splits on axis %d, max spread is on %d", mid, tree.axes[mid], axis)
	}
	vals := make([]float64, len(rows))
	for i, r := range rows {
		vals[i] = r[axis]
	}
	split := vals[mid-lo]
	ranked := slices.Clone(vals)
	slices.Sort(ranked)
	if split != ranked[mid-lo] {
		return fmt.Sprintf("node %d over [%d,%d) splits at %g, rank-mid is %g", mid, lo, hi, split, ranked[mid-lo])
	}
	if slices.Max(vals[:mid-lo]) > split || slices.Min(vals[mid-lo+1:]) < split {
		return fmt.Sprintf("node %d over [%d,%d): a subtree holds a value on the wrong side of %g", mid, lo, hi, split)
	}
	if err := checkKDNodes(tree, lo, mid); err != "" {
		return err
	}
	return checkKDNodes(tree, mid+1, hi)
}

func TestAutoEpsPropertyIndexedMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 13))
	for trial := 0; trial < 6; trial++ {
		// Above indexAutoMin so IndexAuto exercises the tree path too.
		n := indexAutoMin + rng.IntN(600)
		dim := 2 + rng.IntN(2)
		pts := propPoints(rng, n, dim)
		normalizeRows(pts)
		k := 2 + rng.IntN(5)
		want := AutoEpsMode(pts, k, 1, IndexBrute)
		for _, mode := range []IndexMode{IndexKDTree, IndexAuto} {
			for _, par := range []int{1, 3, 8} {
				if got := AutoEpsMode(pts, k, par, mode); got != want {
					t.Fatalf("trial %d n=%d dim=%d k=%d mode=%v par=%d: eps %.17g != brute %.17g",
						trial, n, dim, k, mode, par, got, want)
				}
			}
		}
	}
}

func TestSilhouettePropertySampled(t *testing.T) {
	pts, assign := blobs(4, 120, 3, 0.03, 17)
	normalizeRows(pts)
	exact := SilhouetteSampled(pts, assign, 0, 1)

	// A sample bound at or above every cluster size must take the exact
	// path through the same code and reproduce the value bitwise.
	if full := SilhouetteSampled(pts, assign, 120, 1); full != exact {
		t.Fatalf("full-sample silhouette %.17g != exact %.17g", full, exact)
	}
	// A genuine subsample approximates the exact coefficient (documented
	// tolerance: a few percent at S >= 64 on blob-like clusters).
	sampled := SilhouetteSampled(pts, assign, 64, 1)
	if math.IsNaN(sampled) || sampled < -1 || sampled > 1 {
		t.Fatalf("sampled silhouette %.17g outside [-1, 1]", sampled)
	}
	if math.Abs(sampled-exact) > 0.05 {
		t.Fatalf("sampled silhouette %.6f deviates from exact %.6f by more than 0.05", sampled, exact)
	}
	// The sampled path must stay parallelism-invariant bitwise.
	for _, par := range []int{2, 3, 8} {
		if got := SilhouetteSampled(pts, assign, 64, par); got != sampled {
			t.Fatalf("p=%d: sampled silhouette %.17g != sequential %.17g", par, got, sampled)
		}
	}
}

func TestQuantileSelectPropertyMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 3))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.IntN(300)
		xs := make([]float64, n)
		for i := range xs {
			if rng.IntN(3) == 0 {
				xs[i] = float64(rng.IntN(4)) // masses of duplicates
			} else {
				xs[i] = rng.Float64()
			}
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		for _, nth := range []int{0, n / 2, n - 1, n * 99 / 100} {
			work := append([]float64(nil), xs...)
			if got := quantileSelect(work, nth); got != sorted[nth] {
				t.Fatalf("trial %d n=%d nth=%d: quickselect %.17g != sorted %.17g", trial, n, nth, got, sorted[nth])
			}
		}
	}
}

func TestQuantileSelectClamps(t *testing.T) {
	xs := []float64{3, 1, 2}
	if got := quantileSelect(append([]float64(nil), xs...), -5); got != 1 {
		t.Fatalf("clamped low rank = %g, want 1", got)
	}
	if got := quantileSelect(append([]float64(nil), xs...), 99); got != 3 {
		t.Fatalf("clamped high rank = %g, want 3", got)
	}
}

// TestAutoEpsTinyN guards the percentile index clamp and the k clamp on
// the smallest meaningful inputs, across every index mode.
func TestAutoEpsTinyN(t *testing.T) {
	for _, mode := range []IndexMode{IndexAuto, IndexBrute, IndexKDTree} {
		// n=2: k clamps to 1, percentile index 2*99/100 = 1 <= n-1.
		pts := [][]float64{{0, 0}, {3, 4}}
		if got := AutoEpsMode(pts, 5, 1, mode); got != 5 {
			t.Fatalf("mode %v: n=2 AutoEps = %g, want 5", mode, got)
		}
		// n=3 on a line: k=1 dists are {1,1,2}; index 2 → 2.
		pts = [][]float64{{0}, {1}, {3}}
		if got := AutoEpsMode(pts, 1, 1, mode); got != 2 {
			t.Fatalf("mode %v: n=3 AutoEps = %g, want 2", mode, got)
		}
	}
	// Degenerate inputs keep the documented fallbacks for every mode.
	for _, mode := range []IndexMode{IndexAuto, IndexBrute, IndexKDTree} {
		if got := AutoEpsMode(nil, 4, 1, mode); got != 0.1 {
			t.Fatalf("mode %v: empty AutoEps = %g, want 0.1", mode, got)
		}
		if got := AutoEpsMode([][]float64{{1}}, 4, 1, mode); got != 0.1 {
			t.Fatalf("mode %v: single-point AutoEps = %g, want 0.1", mode, got)
		}
	}
}

// TestDBSCANHighDimFallback drives the occupied-cell scan DBSCAN uses
// when the cell stencil would outnumber the occupied cells.
func TestDBSCANHighDimFallback(t *testing.T) {
	dim := 17
	var pts [][]float64
	for g := 0; g < 2; g++ {
		for j := 0; j < 6; j++ {
			p := make([]float64, dim)
			for d := range p {
				p[d] = float64(g)*10 + 0.01*float64(j)
			}
			pts = append(pts, p)
		}
	}
	assign := DBSCANP(pts, 1, 4, 0)
	for i := 1; i < 6; i++ {
		if assign[i] != assign[0] || assign[i] == Noise {
			t.Fatalf("group 0 split: %v", assign)
		}
	}
	for i := 7; i < 12; i++ {
		if assign[i] != assign[6] || assign[i] == Noise {
			t.Fatalf("group 1 split: %v", assign)
		}
	}
	if assign[0] == assign[6] {
		t.Fatalf("distant groups merged: %v", assign)
	}
}
