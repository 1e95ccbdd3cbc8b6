// k-nearest-neighbor search for the clustering parameter kernels.
//
// AutoEpsMode's k-dist scan is the wall-time gatekeeper of the whole
// pipeline: brute force it is O(n²) distance evaluations. The k-d tree
// here gives the same k-dist values exactly — the bounded max-heap tracks
// squared distances and sqrt is monotone, so the k-th-nearest distance
// is bit-identical to the brute-force reference — while visiting
// O(log n + k) points per query on the low-dimensional,
// min-max-normalized burst feature spaces.
//
// The tree owns a copy of the coordinates in slot order: the build
// partitions those rows in place, so a subtree's points are one
// contiguous run of memory and a leaf is scanned linearly. The k-dist
// scan queries the points in the same slot order, so consecutive
// queries walk the same root-to-leaf paths while they are in cache.
package cluster

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/parallel"
)

// kdLeafSize is the most points a leaf bucket holds: splitting stops at
// ranges this small and queries scan them linearly. On the bench-large
// features, auto-eps on one goroutine ran about 3% slower with 4 or 16.
const kdLeafSize = 8

// kdParallelMin is the smallest range whose two subtrees the build
// hands to separate goroutines. On prefixes of the bench-large features
// at two workers, a split build was no faster than the one-goroutine
// build at 1,024 points, and about 15% faster at 2,048 and 30% at 3,200.
const kdParallelMin = 1 << 11

// KDTree is a balanced k-d tree over a fixed point set, built once and
// queried for exact k-nearest-neighbor distances. The tree is implicit
// in its slot-ordered copy of the points: a range [lo, hi) wider than
// kdLeafSize is an inner node whose point sits at its middle slot
// mid = (lo+hi)/2, the rank-mid point along the range's axis of maximum
// spread (ties to the lowest axis), recorded per node; its left subtree
// is [lo, mid) and its right [mid+1, hi). Other ranges are leaves. The
// build is deterministic, and builds on any number of workers produce
// the same layout. Queries are read-only and safe for concurrent use.
type KDTree struct {
	pts  []float64 // the points in slot order, dim values per slot
	dim  int
	axes []int8 // split axis of the inner node whose middle slot is s
}

// NewKDTreeFlat builds the tree in O(n log n) over a row-major
// coordinate array of len(coords)/dim points — the bulk-load entry point
// for columnar feature matrices. coords is copied once into the tree's
// slot order and not referenced afterwards. Subtrees below the root are
// built on at most parallelism workers (0 = GOMAXPROCS); the call
// returns after all of them finish, and at parallelism 1 it starts no
// goroutine.
func NewKDTreeFlat(coords []float64, dim, parallelism int) *KDTree {
	if len(coords) == 0 || dim <= 0 {
		return &KDTree{}
	}
	n := len(coords) / dim
	t := &KDTree{pts: slices.Clone(coords[:n*dim]), dim: dim, axes: make([]int8, n)}
	t.build(0, n, parallel.Workers(parallelism, n))
	return t
}

// row returns the coordinates at slot s.
func (t *KDTree) row(s int) []float64 {
	o := s * t.dim
	return t.pts[o : o+t.dim : o+t.dim]
}

// build partitions the rows of slots [lo, hi) into the subtree over
// them on at most workers goroutines, this one included. Each goroutine
// keeps its own spread scratch.
func (t *KDTree) build(lo, hi, workers int) {
	t.buildRange(lo, hi, workers, make([]float64, 2*t.dim))
}

// buildRange splits [lo, hi) until its ranges are leaves. With spare
// workers, a wide range's left subtree goes to a new goroutine and half
// the workers; the right subtree stays on this one. The right half is
// otherwise handled by the loop, so recursion depth stays O(log n).
func (t *KDTree) buildRange(lo, hi, workers int, span []float64) {
	for hi-lo > kdLeafSize {
		axis := t.spreadAxis(lo, hi, span)
		mid := (lo + hi) / 2
		t.selectNth(lo, hi, mid, axis)
		t.axes[mid] = int8(axis)
		if workers > 1 && hi-lo >= kdParallelMin {
			var wg sync.WaitGroup
			wg.Add(1)
			// lo and mid go in as arguments: a closure capturing lo,
			// which the loop reassigns, would move it to the heap on
			// every call.
			go func(lo, hi int) {
				defer wg.Done()
				t.build(lo, hi, workers/2)
			}(lo, mid)
			t.buildRange(mid+1, hi, workers-workers/2, span)
			wg.Wait()
			return
		}
		t.buildRange(lo, mid, 1, span)
		lo = mid + 1
	}
}

// spreadAxis returns the axis with the largest coordinate spread over
// slots [lo, hi), preferring the lowest axis on ties, in one pass over
// the rows; span is 2·dim scratch values.
func (t *KDTree) spreadAxis(lo, hi int, span []float64) int {
	dim := t.dim
	mn, mx := span[:dim], span[dim:2*dim]
	for d := range mn {
		mn[d], mx[d] = math.Inf(1), math.Inf(-1)
	}
	for o := lo * dim; o < hi*dim; o += dim {
		for d, v := range t.pts[o : o+dim] {
			if v < mn[d] {
				mn[d] = v
			}
			if v > mx[d] {
				mx[d] = v
			}
		}
	}
	best, bestSpread := 0, math.Inf(-1)
	for d := range mn {
		if s := mx[d] - mn[d]; s > bestSpread {
			best, bestSpread = d, s
		}
	}
	return best
}

// swap exchanges the rows at slots a and b.
func (t *KDTree) swap(a, b int) {
	ra, rb := t.row(a), t.row(b)
	rb = rb[:len(ra)]
	for d := range ra {
		ra[d], rb[d] = rb[d], ra[d]
	}
}

// selectNth partially orders the rows of slots [lo, hi) by coordinate
// on axis so that slot nth holds the rank-nth value, no lower slot a
// larger one and no higher slot a smaller one — quickselect with a
// median-of-three pivot, falling back to insertion sort on small
// ranges. The partition is Hoare's: both scans stop at values equal to
// the pivot, so masses of equal coordinates split in half instead of
// degrading quadratically, and only rows on the wrong side move.
func (t *KDTree) selectNth(lo, hi, nth, axis int) {
	dim, pts := t.dim, t.pts
	for hi-lo > 8 {
		// Order the lo/mid/hi-1 samples and park their median at lo as
		// the pivot: pivoting on an extreme sample would peel only a few
		// rows per pass off ranges already sorted along axis.
		mid := lo + (hi-lo)/2
		if pts[mid*dim+axis] < pts[lo*dim+axis] {
			t.swap(mid, lo)
		}
		if pts[(hi-1)*dim+axis] < pts[lo*dim+axis] {
			t.swap(hi-1, lo)
		}
		if pts[(hi-1)*dim+axis] < pts[mid*dim+axis] {
			t.swap(hi-1, mid)
		}
		t.swap(lo, mid)
		pivot := pts[lo*dim+axis]
		// With the pivot at lo, the scans meet at a j in [lo, hi-1):
		// both sides are non-empty and every value of [lo, j] is at most
		// the pivot, every value of [j+1, hi) at least.
		i, j := lo-1, hi
		for {
			for j--; pts[j*dim+axis] > pivot; j-- {
			}
			for i++; pts[i*dim+axis] < pivot; i++ {
			}
			if i >= j {
				break
			}
			t.swap(i, j)
		}
		if nth <= j {
			hi = j + 1
		} else {
			lo = j + 1
		}
	}
	for i := lo + 1; i < hi; i++ {
		for j := i; j > lo && pts[j*dim+axis] < pts[(j-1)*dim+axis]; j-- {
			t.swap(j, j-1)
		}
	}
}

// KDists returns the Euclidean distance from every point to its k-th
// nearest other point (1 <= k < n), indexed by slot. The slots are split
// into at most parallelism contiguous ranges (0 = GOMAXPROCS), each
// scanned in order by one worker with its own k-sized heap. Every value
// is exact: subtrees are pruned only when every point they could hold
// is provably at least as far as the current k-th candidate, so each
// distance is bit-identical to sorting all n-1 distances and taking the
// k-th.
func (t *KDTree) KDists(k, parallelism int) []float64 {
	n := len(t.axes)
	if k < 1 || k >= n {
		panic(fmt.Sprintf("cluster: KDists k=%d outside [1, %d)", k, n))
	}
	kd := make([]float64, n)
	parallel.ForEachChunk(n, parallelism, func(lo, hi int) {
		heap := make([]float64, 0, k)
		for s := lo; s < hi; s++ {
			heap = t.knn(0, n, t.row(s), s, k, heap[:0])
			kd[s] = math.Sqrt(heap[0])
		}
	})
	return kd
}

// knn descends the subtree over slots [lo, hi), keeping the k smallest
// squared distances to p (excluding slot skip) in a bounded max-heap.
// At an inner node, its point is pushed and the near child searched
// first, so the heap bound tightens before the far child's pruning test;
// the far child is then handled by the loop. A distance is tested
// against the full heap's bound before pushBounded, which would drop it
// too, to save the call for the many points that cannot enter.
func (t *KDTree) knn(lo, hi int, p []float64, skip, k int, heap []float64) []float64 {
	for hi-lo > kdLeafSize {
		mid := (lo + hi) / 2
		node := t.row(mid)
		if d2 := dist2(p, node); mid != skip && (len(heap) < k || d2 < heap[0]) {
			heap = pushBounded(heap, d2, k)
		}
		axis := int(t.axes[mid])
		delta := p[axis] - node[axis]
		if delta < 0 {
			heap = t.knn(lo, mid, p, skip, k, heap)
			lo = mid + 1
		} else {
			heap = t.knn(mid+1, hi, p, skip, k, heap)
			hi = mid
		}
		if len(heap) == k && delta*delta >= heap[0] {
			return heap
		}
	}
	for s := lo; s < hi; s++ {
		if d2 := dist2(p, t.row(s)); s != skip && (len(heap) < k || d2 < heap[0]) {
			heap = pushBounded(heap, d2, k)
		}
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
