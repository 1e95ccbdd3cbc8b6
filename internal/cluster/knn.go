// k-nearest-neighbor search for the clustering parameter kernels.
//
// AutoEpsMode's k-dist scan is the wall-time gatekeeper of the whole
// pipeline: brute force it is O(n²) distance evaluations, which PR 1
// could only spread across cores. The k-d tree here gives the same
// k-dist values exactly — the bounded max-heap tracks squared distances
// and sqrt is monotone, so the k-th-nearest distance is bit-identical to
// the brute-force reference — while visiting O(log n + k) points per
// query on the low-dimensional, min-max-normalized burst feature spaces.
package cluster

import (
	"fmt"
	"math"
)

// KDTree is a balanced k-d tree over a fixed point set, built once and
// queried for exact k-nearest-neighbor distances. The tree is laid out
// implicitly in a permutation of the point indices: the node of the
// subtree spanning idx[lo:hi) sits at the middle slot, with its
// splitting axis (the axis of maximum spread, ties to the lowest axis)
// recorded per node. Construction is deterministic — coordinate ties
// break on point index — so identical inputs always build identical
// trees. Queries are read-only and safe for concurrent use.
type KDTree struct {
	coords []float64 // row-major, dim values per point; never copied
	dim    int
	idx    []int32
	axes   []int8
}

// NewKDTreeFlat builds the tree in O(n log n) over a row-major
// coordinate array of len(coords)/dim points — the bulk-load entry point
// for columnar feature matrices. coords is referenced, not copied, and
// must not be mutated while the tree is in use.
func NewKDTreeFlat(coords []float64, dim int) *KDTree {
	t := &KDTree{coords: coords, dim: dim}
	if len(coords) == 0 || dim <= 0 {
		t.coords, t.dim = nil, 0
		return t
	}
	n := len(coords) / dim
	t.idx = make([]int32, n)
	for i := range t.idx {
		t.idx[i] = int32(i)
	}
	t.axes = make([]int8, n)
	t.build(0, n)
	return t
}

// at returns point j's coordinates.
func (t *KDTree) at(j int32) []float64 {
	o := int(j) * t.dim
	return t.coords[o : o+t.dim]
}

// coord returns coordinate d of point j.
func (t *KDTree) coord(j int32, d int) float64 {
	return t.coords[int(j)*t.dim+d]
}

// build recursively partitions idx[lo:hi): the median point along the
// range's max-spread axis lands at the middle slot, smaller points to
// its left, larger to its right. The right half is handled by the loop
// so recursion depth stays O(log n) even on adversarial inputs.
func (t *KDTree) build(lo, hi int) {
	for hi-lo > 1 {
		axis := t.spreadAxis(lo, hi)
		mid := (lo + hi) / 2
		t.selectNth(lo, hi, mid, axis)
		t.axes[mid] = int8(axis)
		t.build(lo, mid)
		lo = mid + 1
	}
}

// spreadAxis returns the axis with the largest coordinate spread over
// idx[lo:hi), preferring the lowest axis on ties.
func (t *KDTree) spreadAxis(lo, hi int) int {
	best, bestSpread := 0, math.Inf(-1)
	for d := 0; d < t.dim; d++ {
		mn, mx := math.Inf(1), math.Inf(-1)
		for _, j := range t.idx[lo:hi] {
			v := t.coord(j, d)
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		if s := mx - mn; s > bestSpread {
			best, bestSpread = d, s
		}
	}
	return best
}

// less orders points by coordinate on axis, breaking ties by index so
// the ordering is total and the build deterministic.
func (t *KDTree) less(a, b int32, axis int) bool {
	va, vb := t.coord(a, axis), t.coord(b, axis)
	if va != vb {
		return va < vb
	}
	return a < b
}

// selectNth partially orders idx[lo:hi) so that slot nth holds its
// rank-nth element under less — quickselect with a median-of-three
// pivot, falling back to insertion sort on small ranges.
func (t *KDTree) selectNth(lo, hi, nth, axis int) {
	idx := t.idx
	for hi-lo > 8 {
		// Order the lo/mid/hi-1 samples, then park their median at hi-1
		// as the pivot: pivoting on the largest sample would peel only a
		// few elements per pass off ranges already sorted along axis.
		mid := lo + (hi-lo)/2
		if t.less(idx[mid], idx[lo], axis) {
			idx[mid], idx[lo] = idx[lo], idx[mid]
		}
		if t.less(idx[hi-1], idx[lo], axis) {
			idx[hi-1], idx[lo] = idx[lo], idx[hi-1]
		}
		if t.less(idx[hi-1], idx[mid], axis) {
			idx[hi-1], idx[mid] = idx[mid], idx[hi-1]
		}
		idx[mid], idx[hi-1] = idx[hi-1], idx[mid]
		pivot := idx[hi-1]
		store := lo
		for i := lo; i < hi-1; i++ {
			if t.less(idx[i], pivot, axis) {
				idx[i], idx[store] = idx[store], idx[i]
				store++
			}
		}
		idx[store], idx[hi-1] = idx[hi-1], idx[store]
		switch {
		case nth == store:
			return
		case nth < store:
			hi = store
		default:
			lo = store + 1
		}
	}
	for i := lo + 1; i < hi; i++ {
		for j := i; j > lo && t.less(idx[j], idx[j-1], axis); j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
}

// KNearestDist returns the Euclidean distance from points[i] to its k-th
// nearest other point (1 <= k < n). scratch, when it has capacity >= k,
// is used as the candidate heap so steady-state queries allocate
// nothing. The result is exact: subtrees are pruned only when every
// point they could hold is provably at least as far as the current k-th
// candidate, so the returned distance is bit-identical to sorting all
// n-1 distances and taking the k-th.
func (t *KDTree) KNearestDist(i, k int, scratch []float64) float64 {
	n := len(t.idx)
	if k < 1 || k >= n {
		panic(fmt.Sprintf("cluster: KNearestDist k=%d outside [1, %d)", k, n))
	}
	var heap []float64
	if cap(scratch) >= k {
		heap = scratch[:0]
	} else {
		heap = make([]float64, 0, k)
	}
	heap = t.knnRange(0, n, t.at(int32(i)), int32(i), k, heap)
	return math.Sqrt(heap[0])
}

// knnRange descends the subtree over idx[lo:hi), keeping the k smallest
// squared distances to p (excluding point skip) in a bounded max-heap.
// The near child is searched first so the heap bound tightens before the
// far child's pruning test.
func (t *KDTree) knnRange(lo, hi int, p []float64, skip int32, k int, heap []float64) []float64 {
	mid := (lo + hi) / 2
	j := t.idx[mid]
	if j != skip {
		heap = pushBounded(heap, dist2(p, t.at(j)), k)
	}
	if hi-lo == 1 {
		return heap
	}
	axis := int(t.axes[mid])
	delta := p[axis] - t.coord(j, axis)
	nearLo, nearHi, farLo, farHi := lo, mid, mid+1, hi
	if delta > 0 {
		nearLo, nearHi, farLo, farHi = mid+1, hi, lo, mid
	}
	if nearLo < nearHi {
		heap = t.knnRange(nearLo, nearHi, p, skip, k, heap)
	}
	if farLo < farHi && (len(heap) < k || delta*delta < heap[0]) {
		heap = t.knnRange(farLo, farHi, p, skip, k, heap)
	}
	return heap
}

// pushBounded inserts v into the max-heap h keeping only the k smallest
// values; h[0] is the largest retained value (the running k-th
// smallest). Values equal to the current maximum are dropped — they
// cannot change the k-th order statistic.
func pushBounded(h []float64, v float64, k int) []float64 {
	if len(h) < k {
		h = append(h, v)
		c := len(h) - 1
		for c > 0 {
			parent := (c - 1) / 2
			if h[parent] >= h[c] {
				break
			}
			h[parent], h[c] = h[c], h[parent]
			c = parent
		}
		return h
	}
	if v >= h[0] {
		return h
	}
	h[0] = v
	c := 0
	for {
		l := 2*c + 1
		if l >= len(h) {
			break
		}
		big := l
		if r := l + 1; r < len(h) && h[r] > h[l] {
			big = r
		}
		if h[c] >= h[big] {
			break
		}
		h[c], h[big] = h[big], h[c]
		c = big
	}
	return h
}

// quantileSelect returns the value at sorted rank nth (0-based) of xs,
// partially reordering xs in place — an O(n) alternative to a full sort
// for a single order statistic. The three-way partition keeps masses of
// duplicate values (all-identical k-dists from duplicate points) linear
// instead of degrading quadratically. nth is clamped to [0, len(xs)-1];
// xs must be non-empty and free of NaNs.
func quantileSelect(xs []float64, nth int) float64 {
	lo, hi := 0, len(xs)
	if nth < 0 {
		nth = 0
	}
	if nth > len(xs)-1 {
		nth = len(xs) - 1
	}
	for hi-lo > 8 {
		pivot := median3(xs[lo], xs[lo+(hi-lo)/2], xs[hi-1])
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch {
			case xs[i] < pivot:
				xs[i], xs[lt] = xs[lt], xs[i]
				lt++
				i++
			case xs[i] > pivot:
				gt--
				xs[i], xs[gt] = xs[gt], xs[i]
			default:
				i++
			}
		}
		switch {
		case nth < lt:
			hi = lt
		case nth >= gt:
			lo = gt
		default:
			return pivot
		}
	}
	for i := lo + 1; i < hi; i++ {
		for j := i; j > lo && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
	return xs[nth]
}

// median3 returns the median of three values.
func median3(a, b, c float64) float64 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		b = a
	}
	return b
}
