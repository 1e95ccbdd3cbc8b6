package cluster

import (
	"math"
	"sort"

	"repro/internal/parallel"
)

// silhouetteBlock is how many clustered points the flat kernel scores
// against each member in one pass. The points' sums are independent
// accumulators, so their square roots overlap in the pipeline instead
// of each waiting on the previous add.
const silhouetteBlock = 4

// silhouetteFlatMax is the widest row the flat kernel takes. Narrower
// rows are zero-padded to it: the padded columns add an exact +0 to
// every squared distance, so distances stay bit-identical to dist2.
const silhouetteFlatMax = 3

// SilhouetteSampled computes the mean silhouette coefficient with the
// per-point work decomposed into per-cluster distance sums: one pass
// over the (possibly subsampled) member lists accumulates Σ d(i, C) for
// every cluster C, from which a(i) = Σ d(i, own)/(|own|−1) and
// b(i) = min over other C of Σ d(i, C)/|C| follow directly.
//
// sample <= 0 is the exact mode: all members participate and the result
// is bit-identical to the classic all-pairs definition (the edge tests
// lock its exact values). sample = S > 0 deterministically subsamples
// every cluster larger than S to S evenly strided members (stride
// spacing over the index-ordered member list, independent of the worker
// count), making the kernel O(n·K·S) instead of O(n²). The sampled
// coefficient is an approximation of the exact one: each mean distance
// is estimated from S members, so on blob-like clusters the error of the
// mean coefficient is typically under a few percent at S >= 64 and
// shrinks as 1/√S; it is NOT exact, and callers that report silhouette
// as a locked quality metric must keep sample at 0.
//
// Every row must have the same length. Rows of up to three values are
// copied once into a pooled row-major buffer and scored by the blocked
// flat kernel (silhouetteFlat); wider rows take a per-pair loop over the
// rows. Both paths return the same bits, and the result is identical for
// every parallelism (0 = GOMAXPROCS).
func SilhouetteSampled(points [][]float64, assign []int, sample, parallelism int) float64 {
	dim := 0
	if len(points) > 0 {
		dim = len(points[0])
	}
	if dim > silhouetteFlatMax {
		return silhouetteRows(points, assign, sample, parallelism)
	}
	flat := parallel.GetFloat64(len(points) * dim)
	defer parallel.PutFloat64(flat)
	for i, p := range points {
		copy(flat[i*dim:(i+1)*dim], p)
	}
	return silhouetteFlat(flat, dim, assign, sample, parallelism)
}

// silhouetteSets is the bookkeeping both kernels share: clusters are
// dense-numbered in ascending id order, and each cluster's evaluated
// members keep point-index order, so every distance sum accumulates in
// a fixed order regardless of parallelism.
type silhouetteSets struct {
	nc        int
	clustered []int // non-noise point indices, ascending
	own       []int // dense cluster of clustered[k]
	eval      []int // evaluated members, grouped by dense cluster
	off       []int // eval[off[c]:off[c+1]] are cluster c's members
}

// newSilhouetteSets builds the sets for assign, picking the evaluated
// members of a cluster larger than sample (> 0) at evenly strided ranks
// t·|C|/sample. ok is false when fewer than two clusters exist. The
// index slices come from the pool; release them with put.
func newSilhouetteSets(assign []int, sample int) (s silhouetteSets, ok bool) {
	dense := map[int]int{}
	var ids []int
	for _, c := range assign {
		if c == Noise {
			continue
		}
		if _, seen := dense[c]; !seen {
			dense[c] = 0
			ids = append(ids, c)
		}
	}
	if len(ids) < 2 {
		return s, false
	}
	sort.Ints(ids)
	for di, id := range ids {
		dense[id] = di
	}
	s.nc = len(ids)
	size := make([]int, s.nc)
	n := 0
	for _, c := range assign {
		if c != Noise {
			size[dense[c]]++
			n++
		}
	}
	s.off = make([]int, s.nc+1)
	for c, m := range size {
		if sample > 0 && m > sample {
			m = sample
		}
		s.off[c+1] = s.off[c] + m
	}
	s.clustered = parallel.GetInt(n)
	s.own = parallel.GetInt(n)
	s.eval = parallel.GetInt(s.off[s.nc])
	fill := append([]int(nil), s.off[:s.nc]...)
	rank := make([]int, s.nc)
	k := 0
	for i, c := range assign {
		if c == Noise {
			continue
		}
		d := dense[c]
		s.clustered[k], s.own[k] = i, d
		k++
		m := size[d]
		if sample <= 0 || m <= sample || rank[d] == (fill[d]-s.off[d])*m/sample {
			s.eval[fill[d]] = i
			fill[d]++
		}
		rank[d]++
	}
	return s, true
}

// put returns the pooled index slices.
func (s *silhouetteSets) put() {
	parallel.PutInt(s.clustered)
	parallel.PutInt(s.own)
	parallel.PutInt(s.eval)
}

// coefficient finishes one point from its per-cluster distance sums: a
// is the mean distance to its own cluster's evaluated members (itself
// excluded when selfSeen), b the least mean distance to another cluster.
func (s *silhouetteSets) coefficient(sums []float64, own int, selfSeen bool) float64 {
	var a float64
	na := s.off[own+1] - s.off[own]
	if selfSeen {
		na--
	}
	if na > 0 {
		a = sums[own] / float64(na)
	}
	b := math.Inf(1)
	for c := 0; c < s.nc; c++ {
		if c == own {
			continue
		}
		if m := sums[c] / float64(s.off[c+1]-s.off[c]); m < b {
			b = m
		}
	}
	if den := math.Max(a, b); den > 0 {
		return (b - a) / den
	}
	return 0
}

// mean sums the coefficients in point order and averages them.
func mean(coeff []float64) float64 {
	var sum float64
	for _, c := range coeff {
		sum += c
	}
	return sum / float64(len(coeff))
}

// silhouetteRows is the per-pair kernel over row slices, for rows wider
// than silhouetteFlatMax: each clustered point is scored against every
// evaluated member with dist2.
func silhouetteRows(points [][]float64, assign []int, sample, parallelism int) float64 {
	s, ok := newSilhouetteSets(assign, sample)
	if !ok {
		return math.NaN()
	}
	defer s.put()
	coeff := parallel.GetFloat64(len(s.clustered))
	defer parallel.PutFloat64(coeff)
	parallel.ForEachChunk(len(s.clustered), parallelism, func(lo, hi int) {
		sums := parallel.GetFloat64(s.nc)
		defer parallel.PutFloat64(sums)
		for ci := lo; ci < hi; ci++ {
			i := s.clustered[ci]
			clear(sums)
			selfSeen := false
			for c := 0; c < s.nc; c++ {
				for _, j := range s.eval[s.off[c]:s.off[c+1]] {
					if j == i {
						selfSeen = true
						continue
					}
					sums[c] += math.Sqrt(dist2(points[i], points[j]))
				}
			}
			coeff[ci] = s.coefficient(sums, s.own[ci], selfSeen)
		}
	})
	return mean(coeff)
}

// silhouetteFlat is the blocked kernel over a row-major matrix of
// dim <= silhouetteFlatMax columns (featuresFlat's layout). The
// evaluated members' coordinates are gathered, zero-padded to three
// columns, into one contiguous buffer in member order. Blocks of
// silhouetteBlock consecutive clustered points are then scored against
// each member in turn, one accumulator per point, so every point's sum
// for a cluster still adds its members' distances in index order and
// the blocks can be split across workers freely.
func silhouetteFlat(flat []float64, dim int, assign []int, sample, parallelism int) float64 {
	const w = silhouetteFlatMax
	s, ok := newSilhouetteSets(assign, sample)
	if !ok {
		return math.NaN()
	}
	defer s.put()
	coords := parallel.GetFloat64(w * len(s.eval))
	defer parallel.PutFloat64(coords)
	for t, j := range s.eval {
		copy(coords[w*t:w*t+dim], flat[j*dim:(j+1)*dim])
	}
	ncl := len(s.clustered)
	coeff := parallel.GetFloat64(ncl)
	defer parallel.PutFloat64(coeff)
	blocks := (ncl + silhouetteBlock - 1) / silhouetteBlock
	parallel.ForEachChunk(blocks, parallelism, func(lo, hi int) {
		sums := parallel.GetFloat64(silhouetteBlock * s.nc)
		defer parallel.PutFloat64(sums)
		for blk := lo; blk < hi; blk++ {
			k0 := blk * silhouetteBlock
			lanes := min(silhouetteBlock, ncl-k0)
			// Unused lanes of the last block score a zero point with an
			// index no member has; their sums are discarded.
			idx := [silhouetteBlock]int{-1, -1, -1, -1}
			var p [silhouetteBlock][w]float64
			for l := 0; l < lanes; l++ {
				i := s.clustered[k0+l]
				idx[l] = i
				copy(p[l][:dim], flat[i*dim:(i+1)*dim])
			}
			var self [silhouetteBlock]bool
			for c := 0; c < s.nc; c++ {
				var s0, s1, s2, s3 float64
				mem := s.eval[s.off[c]:s.off[c+1]]
				ys := coords[w*s.off[c] : w*s.off[c+1]]
				for t, j := range mem {
					y := ys[w*t : w*t+w : w*t+w]
					y0, y1, y2 := y[0], y[1], y[2]
					if j != idx[0] {
						s0 += pairDist(p[0][0]-y0, p[0][1]-y1, p[0][2]-y2)
					} else {
						self[0] = true
					}
					if j != idx[1] {
						s1 += pairDist(p[1][0]-y0, p[1][1]-y1, p[1][2]-y2)
					} else {
						self[1] = true
					}
					if j != idx[2] {
						s2 += pairDist(p[2][0]-y0, p[2][1]-y1, p[2][2]-y2)
					} else {
						self[2] = true
					}
					if j != idx[3] {
						s3 += pairDist(p[3][0]-y0, p[3][1]-y1, p[3][2]-y2)
					} else {
						self[3] = true
					}
				}
				sums[c], sums[s.nc+c], sums[2*s.nc+c], sums[3*s.nc+c] = s0, s1, s2, s3
			}
			for l := 0; l < lanes; l++ {
				coeff[k0+l] = s.coefficient(sums[l*s.nc:(l+1)*s.nc], s.own[k0+l], self[l])
			}
		}
	})
	return mean(coeff)
}

// pairDist is math.Sqrt(dist2(a, b)) for 3-wide rows given the coordinate
// differences. It keeps dist2's operation order: each square is added to
// the running sum in its own statement, left to right, so the two round
// alike. Do not reassociate the sum or use math.FMA.
func pairDist(d0, d1, d2 float64) float64 {
	s := d0 * d0
	s += d1 * d1
	s += d2 * d2
	return math.Sqrt(s)
}
