package cluster

import (
	"math"
	"sort"

	"repro/internal/parallel"
)

// silhouetteBlock is how many rows the triangle kernel keeps in flight
// against each column. Their sums are independent accumulators, so the
// square roots overlap in the pipeline instead of each waiting on the
// previous add.
const silhouetteBlock = 4

// silhouetteTile is the side of the square tiles the triangle is cut
// into for scheduling. It is a multiple of silhouetteBlock.
const silhouetteTile = 256

// silhouetteNarrow is the width narrow rows are zero-padded to. The
// padded columns add an exact +0 to every squared distance, so
// distances stay bit-identical to dist2.
const silhouetteNarrow = 3

// SilhouetteSampled computes the mean silhouette coefficient from
// per-cluster distance sums: each scored point i accumulates Σ d(i, C)
// over the scored members of every cluster C, from which
// a(i) = Σ d(i, own)/(|own|−1) and b(i) = min over other C of
// Σ d(i, C)/|C| follow directly. Each unordered pair of scored points is
// measured once and its distance added to both points' sums.
//
// sample <= 0 is the exact mode: every clustered point is scored and the
// result is bit-identical to the classic all-pairs definition (the edge
// tests lock its exact values), at O(n²/2) distances. sample = S > 0
// scores only S evenly strided members of every cluster larger than S
// (stride spacing over the index-ordered member list, independent of
// the worker count) against each other, so the kernel costs O((K·S)²)
// whatever n is. Each scored coefficient is weighted by |C| over the
// number of scored members of C and the weighted sum divided by the
// clustered point count, so the result is still a per-point mean. It is
// an approximation of the exact one: on the four apps' burst features at
// S = 256 it stays within 0.002 of the exact coefficient at 3,200 bursts
// and within 0.004 up to 12,800, but it is NOT exact, and callers that
// report silhouette as a locked quality metric must keep sample at 0
// (ClusterBursts' default samples above 4,096 bursts). A sample at or
// above every cluster size scores everything and returns the exact bits.
//
// Every row must have the same length. Rows of up to three values are
// zero-padded to three; wider rows are measured in dist2's
// per-dimension order. The result is identical for every parallelism
// (0 = GOMAXPROCS).
func SilhouetteSampled(points [][]float64, assign []int, sample, parallelism int) float64 {
	dim := 0
	if len(points) > 0 {
		dim = len(points[0])
	}
	v, _ := silhouette(dim, func(i int) []float64 { return points[i] }, assign, sample, parallelism)
	return v
}

// silhouetteFlat is SilhouetteSampled over a row-major matrix of dim
// columns (featuresFlat's layout).
func silhouetteFlat(flat []float64, dim int, assign []int, sample, parallelism int) (float64, int) {
	return silhouette(dim, func(i int) []float64 { return flat[i*dim : (i+1)*dim] }, assign, sample, parallelism)
}

// silhouette scores the points row(i) labelled by assign. It also
// returns the sample that cut at least one cluster, 0 when every member
// was scored and the coefficient is exact.
func silhouette(dim int, row func(i int) []float64, assign []int, sample, parallelism int) (float64, int) {
	s, ok := newSilhouetteSets(assign, sample)
	if !ok {
		return math.NaN(), 0
	}
	defer s.put()
	k := newTriangle(&s, dim, row)
	defer k.put()
	k.run(parallelism)

	// Coefficients land at their points' index-order ranks, so the sum
	// below adds them in point order whatever the cluster grouping. They
	// reuse the coordinates' buffer, which the kernel no longer reads.
	coeff := k.coords[:len(s.eval)]
	for c := 0; c < s.nc; c++ {
		for t := s.off[c]; t < s.off[c+1]; t++ {
			coeff[s.rank[t]] = s.coefficient(k.sums[t*k.ns:t*k.ns+s.nc], c) * s.weight[c]
		}
	}
	var sum float64
	for _, v := range coeff {
		sum += v
	}
	return sum / float64(s.n), s.sample
}

// silhouetteSets is the kernel's bookkeeping: clusters are dense-numbered
// in ascending id order, and each cluster's scored members keep
// point-index order, so every distance sum accumulates in a fixed order
// regardless of parallelism.
type silhouetteSets struct {
	nc     int
	n      int       // clustered (non-noise) points
	eval   []int     // scored points, grouped by dense cluster, index order within
	off    []int     // eval[off[c]:off[c+1]] are cluster c's scored members
	rank   []int     // rank[t] is eval[t]'s place among the scored points in index order
	weight []float64 // weight[c] = |C| / (off[c+1]−off[c]); exactly 1 unsampled
	sample int       // the sample when it cut at least one cluster, else 0
	buf    []int     // the pooled buffer eval and rank share
}

// newSilhouetteSets builds the sets for assign, scoring the members of a
// cluster larger than sample (> 0) at evenly strided ranks t·|C|/sample.
// ok is false when fewer than two clusters exist. eval and rank share
// one pooled buffer; release it with put.
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
	for _, c := range assign {
		if c != Noise {
			size[dense[c]]++
			s.n++
		}
	}
	s.off = make([]int, s.nc+1)
	s.weight = make([]float64, s.nc)
	for c, m := range size {
		scored := m
		if sample > 0 && m > sample {
			scored, s.sample = sample, sample
		}
		s.off[c+1] = s.off[c] + scored
		s.weight[c] = float64(m) / float64(scored)
	}
	total := s.off[s.nc]
	s.buf = parallel.GetInt(2 * total)
	s.eval, s.rank = s.buf[:total], s.buf[total:]
	fill := append([]int(nil), s.off[:s.nc]...)
	seen := make([]int, s.nc)
	k := 0
	for i, c := range assign {
		if c == Noise {
			continue
		}
		d := dense[c]
		m := size[d]
		if sample <= 0 || m <= sample || seen[d] == (fill[d]-s.off[d])*m/sample {
			s.eval[fill[d]], s.rank[fill[d]] = i, k
			fill[d]++
			k++
		}
		seen[d]++
	}
	return s, true
}

// put returns the pooled index buffer.
func (s *silhouetteSets) put() { parallel.PutInt(s.buf) }

// coefficient finishes one scored point of cluster own from its
// per-cluster distance sums: a is the mean distance to the other scored
// members of its cluster, b the least mean distance to another cluster.
func (s *silhouetteSets) coefficient(sums []float64, own int) float64 {
	var a float64
	if na := s.off[own+1] - s.off[own] - 1; na > 0 {
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

// triangle is the pairwise kernel over the scored points in eval order.
// It visits every unordered pair p < q once and adds d(p, q) to both
// sums[p][cluster(q)] and sums[q][cluster(p)].
//
// Bit identity rests on one rule: every (point, cluster) sum adds its
// terms in ascending member order, as the per-point scan does. Point q
// first receives d(u, q) from the rows u < q as the rows advance, then
// its own row adds d(q, u) for u > q; d(u, q) and d(q, u) have the same
// bits, because a−b = −(b−a) exactly. The tiles keep that order: tile
// (I, J) runs only after tiles (I−1, J) and (I, J−1), which the waves of
// run guarantee, so the result is the same for every worker count. The
// self pair is never measured.
//
// The positions are padded to a multiple of silhouetteBlock with zero
// rows in an extra cluster nc, whose sums column absorbs every distance
// to the padding and is never read.
type triangle struct {
	w      int       // row width: dim, or silhouetteNarrow if narrower
	ns     int       // sums per position: nc real clusters plus the padding's
	n      int       // positions, padding included
	coords []float64 // rows in eval order, w values each
	sums   []float64 // ns per position
	off    []int     // positions off[c]:off[c+1] are cluster c's; off[nc+1] = n
	buf    []float64 // the pooled buffer coords and sums share
}

// newTriangle gathers the scored rows. coords and sums share one pooled
// buffer; release it with put.
func newTriangle(s *silhouetteSets, dim int, row func(i int) []float64) *triangle {
	n := (len(s.eval) + silhouetteBlock - 1) / silhouetteBlock * silhouetteBlock
	k := &triangle{w: max(dim, silhouetteNarrow), ns: s.nc + 1, n: n}
	k.buf = parallel.GetFloat64((k.w + k.ns) * n)
	k.coords, k.sums = k.buf[:k.w*n], k.buf[k.w*n:]
	for t, i := range s.eval {
		copy(k.coords[k.w*t:k.w*t+dim], row(i))
	}
	k.off = append(append(make([]int, 0, s.nc+2), s.off...), n)
	return k
}

// put returns the pooled buffer.
func (k *triangle) put() { parallel.PutFloat64(k.buf) }

// cluster returns the cluster of position t, nc for the padding.
func (k *triangle) cluster(t int) int {
	return sort.SearchInts(k.off, t+1) - 1
}

// run visits the upper triangle in anti-diagonal waves of tiles: wave L
// holds the tiles (I, L−I) with I <= L−I. Tiles of one wave share no row
// or column range, and both predecessors of a tile lie in the wave
// before, so the barrier between waves is all the ordering the sums
// need.
func (k *triangle) run(parallelism int) {
	nt := (k.n + silhouetteTile - 1) / silhouetteTile
	var wave, first int
	tile := func(t int) { k.tile(first+t, wave-first-t) }
	for wave = 0; wave < 2*nt-1; wave++ {
		first = max(0, wave-nt+1)
		parallel.ForEach(wave/2-first+1, parallelism, tile)
	}
}

// tile visits the pairs of rows in tile I against columns in tile J,
// row-major in blocks of silhouetteBlock rows. A diagonal tile visits
// only the pairs above the diagonal.
func (k *triangle) tile(I, J int) {
	rhi := min(I*silhouetteTile+silhouetteTile, k.n)
	clo, chi := J*silhouetteTile, min(J*silhouetteTile+silhouetteTile, k.n)
	for p := I * silhouetteTile; p < rhi; p += silhouetteBlock {
		cs := [silhouetteBlock]int{k.cluster(p), k.cluster(p + 1), k.cluster(p + 2), k.cluster(p + 3)}
		lo := clo
		if I == J {
			k.within(p, cs)
			lo = p + silhouetteBlock
		}
		k.block(p, cs, lo, chi)
	}
}

// within visits the six pairs inside the block of rows p..p+3 of
// clusters cs, row-major, before the block moves on to the columns after
// it.
func (k *triangle) within(p int, cs [silhouetteBlock]int) {
	for a := 0; a < silhouetteBlock; a++ {
		for b := a + 1; b < silhouetteBlock; b++ {
			d := k.dist(p+a, p+b)
			k.sums[(p+a)*k.ns+cs[b]] += d
			k.sums[(p+b)*k.ns+cs[a]] += d
		}
	}
}

// dist is math.Sqrt(dist2) between positions a and b.
func (k *triangle) dist(a, b int) float64 {
	x, y := k.coords[a*k.w:a*k.w+k.w], k.coords[b*k.w:b*k.w+k.w]
	if k.w == silhouetteNarrow {
		return pairDist(x[0]-y[0], x[1]-y[1], x[2]-y[2])
	}
	return math.Sqrt(dist2(x, y))
}

// block visits the rows p..p+3 of clusters cs against the columns
// [lo, hi). Each row's
// sum for the current column cluster is held in a register, loaded from
// and stored back to sums so no sum is reassociated; each column's sum
// for the rows' cluster takes the four distances in row order.
func (k *triangle) block(p int, cs [silhouetteBlock]int, lo, hi int) {
	ns := k.ns
	c0, c1, c2, c3 := cs[0], cs[1], cs[2], cs[3]
	r := k.sums[p*ns : (p+silhouetteBlock)*ns]
	for c := k.cluster(lo); lo < hi; c++ {
		end := min(hi, k.off[c+1])
		s0, s1, s2, s3 := r[c], r[ns+c], r[2*ns+c], r[3*ns+c]
		col := k.sums[lo*ns : end*ns]
		if k.w == silhouetteNarrow {
			x := (*[silhouetteBlock * silhouetteNarrow]float64)(k.coords[3*p:])
			for ys := k.coords[3*lo : 3*end]; len(ys) >= 3; ys = ys[3:] {
				y0, y1, y2 := ys[0], ys[1], ys[2]
				d0 := pairDist(x[0]-y0, x[1]-y1, x[2]-y2)
				d1 := pairDist(x[3]-y0, x[4]-y1, x[5]-y2)
				d2 := pairDist(x[6]-y0, x[7]-y1, x[8]-y2)
				d3 := pairDist(x[9]-y0, x[10]-y1, x[11]-y2)
				s0 += d0
				s1 += d1
				s2 += d2
				s3 += d3
				addColumn(col[:ns], c0, c1, c2, c3, d0, d1, d2, d3)
				col = col[ns:]
			}
		} else {
			w := k.w
			x := k.coords[w*p : w*(p+silhouetteBlock)]
			for ys := k.coords[w*lo : w*end]; len(ys) >= w; ys = ys[w:] {
				y := ys[:w]
				d0 := math.Sqrt(dist2(x[:w], y))
				d1 := math.Sqrt(dist2(x[w:2*w], y))
				d2 := math.Sqrt(dist2(x[2*w:3*w], y))
				d3 := math.Sqrt(dist2(x[3*w:], y))
				s0 += d0
				s1 += d1
				s2 += d2
				s3 += d3
				addColumn(col[:ns], c0, c1, c2, c3, d0, d1, d2, d3)
				col = col[ns:]
			}
		}
		r[c], r[ns+c], r[2*ns+c], r[3*ns+c] = s0, s1, s2, s3
		lo = end
	}
}

// addColumn adds a column's distances to the rows of clusters c0..c3 to
// its sums, in row order.
func addColumn(col []float64, c0, c1, c2, c3 int, d0, d1, d2, d3 float64) {
	if c0 == c3 {
		col[c0] = col[c0] + d0 + d1 + d2 + d3
		return
	}
	col[c0] += d0
	col[c1] += d1
	col[c2] += d2
	col[c3] += d3
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
