// Package cluster implements density-based clustering of computation
// bursts, following the burst-clustering methodology the paper builds on:
// bursts are characterized by aggregate metrics (log duration, log
// completed instructions, IPC), min-max normalized, and grouped with
// DBSCAN so that each resulting cluster corresponds to one repeated
// computation phase of the application. A cluster quality metric (the
// silhouette) is provided for reporting.
//
// DBSCAN itself is the exact grid-cell formulation (Gunawan 2013; Gan &
// Tao, "DBSCAN Revisited", SIGMOD 2015): cells of side eps/√d make every
// point of a well-filled cell core without a distance computation, and
// clusters are the connected components of core cells. No point's
// neighborhood is ever materialized.
package cluster

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/parallel"
)

// Noise is the assignment id DBSCAN gives to points in no cluster.
const Noise = 0

// cellShrink scales the cell side below eps/√d, so that rounding in the
// cell coordinates and in dist2 cannot put two points farther than eps
// apart into one cell.
const cellShrink = 1 - 1.0/1024

// maxCellCoord bounds |p/side| on every axis for a point to be placed
// in a grid cell: below 2^40 the quotient is off by under 2^-13 of a
// cell and its floor converts to int64 exactly. Points past it (huge
// coordinates, tiny eps, non-finite values) are spilled into one extra
// cell whose points are compared against every point.
const maxCellCoord = 1 << 40

// minGridEps is the smallest eps the grid serves. Below it eps² and the
// squared differences reach the subnormal range, where the rounding
// argument that any two points of one cell are neighbors fails, so every
// point is spilled.
const minGridEps = 1e-150

// DBSCANP clusters points (rows of equal dimension) with parameters eps
// (neighborhood radius, Euclidean) and minPts (minimum neighborhood size
// including the point itself to be a core point), on at most
// parallelism workers (0 = GOMAXPROCS). Point j is a neighbor
// of point i when dist2(i, j) <= eps². The result assigns cluster ids
// 1..K in order of each cluster's lowest-index core point, and Noise (0)
// to noise points; a border point within eps of core points of several
// clusters takes the lowest of their ids. That is exactly the labeling
// of the sequential algorithm expanding clusters breadth-first in index
// order.
//
// Points are bucketed into grid cells of side eps/√d, so any two points
// of one cell are neighbors: a cell holding minPts points is all core,
// and on the 2-3 dimensional, min-max-normalized burst spaces nearly
// every point is settled that way. Other points count neighbors over
// the nearby cells and stop at minPts; clusters are the connected
// components of core points, joined cell pair by cell pair at the first
// core pair within eps.
//
// The core-point pass and the border-point pass run cell-chunk-parallel,
// each cell written only by its own worker; the union-find that joins
// core cells is sequential. The clustering depends on the point set and
// parameters only, so the assignment is identical for every worker
// count.
func DBSCANP(points [][]float64, eps float64, minPts, parallelism int) []int {
	n := len(points)
	if n == 0 {
		return nil
	}
	if eps <= 0 {
		panic(fmt.Sprintf("cluster: non-positive eps %g", eps))
	}
	if minPts < 1 {
		panic(fmt.Sprintf("cluster: minPts %d < 1", minPts))
	}
	dim := len(points[0])
	for i, p := range points {
		if len(p) != dim {
			panic(fmt.Sprintf("cluster: point %d has dimension %d, want %d", i, len(p), dim))
		}
	}

	g := newCellGrid(points, eps)
	core := g.markCore(minPts, parallelism)
	label, first := g.connect(core)
	g.claimBorders(core, label, first, parallelism)
	assign := make([]int, n)
	for k, id := range label {
		assign[g.orig[k]] = int(id)
	}
	return assign
}

// cellGrid buckets a point set into cells for DBSCAN. Points are
// renumbered in cell order ("cell-ordered" indices k below, ascending
// input index within a cell) and their coordinates copied contiguously.
// Grid cells are numbered densely in order of first appearance and
// found by coordinates through a packed open-addressing table
// (power-of-two sized, linear probing, load factor <= 1/2, no per-cell
// allocation). Spilled points, if any, form one last cell.
type cellGrid struct {
	dim    int
	eps2   float64
	xs     []float64 // coordinates in cell order, dim per point
	orig   []int32   // input index of each cell-ordered point
	start  []int32   // cell c holds cell-ordered points [start[c], start[c+1])
	grid   int       // cells [0, grid) are grid cells; cell grid, if any, is the spill cell
	coords []int64   // grid cell coordinates, dim per cell
	slots  []int32   // table slot -> grid cell, -1 = empty
	mask   uint32
	// stencil lists the cell offsets (dim values each) around a grid
	// cell that can hold its points' neighbors; nil means scanning every
	// grid cell instead, when that is the shorter list.
	stencil []int64
	// reach bounds Σ_d max(|Δc_d|−1, 0)² over the offsets Δc between
	// cells that can hold two neighbors: d/cellShrink² exactly, plus 1/64
	// of slack for the rounding of the cell coordinates (under 2^-13 of a
	// cell) and of dist2.
	reach float64
}

// newCellGrid buckets points (validated by DBSCANP) into cells of side
// eps/√d·cellShrink. Every point is spilled when eps is below
// minGridEps, or when eps² overflows: then every finite pair is a
// neighbor however far apart.
func newCellGrid(points [][]float64, eps float64) *cellGrid {
	n, dim := len(points), len(points[0])
	g := &cellGrid{
		dim:   dim,
		eps2:  eps * eps,
		reach: float64(dim) / (cellShrink * cellShrink) * (1 + 1.0/64),
	}
	side := eps / math.Sqrt(float64(dim)) * cellShrink
	size := 8
	for size < 2*n {
		size <<= 1
	}
	g.mask = uint32(size - 1)
	g.slots = make([]int32, size)
	for i := range g.slots {
		g.slots[i] = -1
	}
	cellOf := make([]int32, n)
	cs := make([]int64, dim)
	gridOK := eps >= minGridEps && !math.IsInf(g.eps2, 1)
	for i, p := range points {
		if gridOK && cellCoords(p, side, cs) {
			cellOf[i] = g.cell(cs, true)
		} else {
			cellOf[i] = -1
		}
	}
	g.grid = len(g.coords) / dim
	ncell := g.grid
	for i, c := range cellOf {
		if c < 0 {
			cellOf[i] = int32(g.grid)
			ncell = g.grid + 1
		}
	}

	// Counting sort by cell; input order is kept within a cell.
	g.start = make([]int32, ncell+1)
	for _, c := range cellOf {
		g.start[c+1]++
	}
	for c := 0; c < ncell; c++ {
		g.start[c+1] += g.start[c]
	}
	next := append([]int32(nil), g.start[:ncell]...)
	g.orig = make([]int32, n)
	g.xs = make([]float64, n*dim)
	for i, c := range cellOf {
		k := next[c]
		next[c]++
		g.orig[k] = int32(i)
		copy(g.xs[int(k)*dim:], points[i])
	}
	g.stencil = makeStencil(dim, g.reach, g.grid)
	return g
}

// cellCoords writes p's cell coordinates into cs and reports whether p
// can be gridded: every quotient finite and below maxCellCoord in
// magnitude.
func cellCoords(p []float64, side float64, cs []int64) bool {
	for d, v := range p {
		q := v / side
		if !(math.Abs(q) < maxCellCoord) {
			return false
		}
		cs[d] = int64(math.Floor(q))
	}
	return true
}

// makeStencil enumerates the cell offsets within reach in lexicographic
// order, or returns nil when there are more of them than limit (the
// occupied grid cells).
func makeStencil(dim int, reach float64, limit int) []int64 {
	r := 1 + int64(math.Sqrt(reach))
	off := make([]int64, dim)
	var out []int64
	count := 0
	var walk func(d int, used float64) bool
	walk = func(d int, used float64) bool {
		if d == dim {
			count++
			out = append(out, off...)
			return count <= limit
		}
		for o := -r; o <= r; o++ {
			m := float64(max(o, -o, 1) - 1)
			if used+m*m > reach {
				continue
			}
			off[d] = o
			if !walk(d+1, used+m*m) {
				return false
			}
		}
		return true
	}
	if !walk(0, 0) {
		return nil
	}
	return out
}

// hashCells mixes a cell coordinate vector into a table hash
// (splitmix64-style finalizer per coordinate).
func hashCells(cs []int64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, c := range cs {
		x := uint64(c) + h
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		h = x ^ (x >> 31)
	}
	return h
}

// cell returns the grid cell with coordinates cs, or -1 when no point
// lies in it; with add set it creates the cell instead.
func (g *cellGrid) cell(cs []int64, add bool) int32 {
	slot := uint32(hashCells(cs)) & g.mask
	for {
		c := g.slots[slot]
		switch {
		case c == -1 && add:
			c = int32(len(g.coords) / g.dim)
			g.coords = append(g.coords, cs...)
			g.slots[slot] = c
			return c
		case c == -1 || slices.Equal(g.coords[int(c)*g.dim:int(c+1)*g.dim], cs):
			return c
		}
		slot = (slot + 1) & g.mask
	}
}

// whole reports whether any two points of cell c are neighbors.
func (g *cellGrid) whole(c int) bool { return c < g.grid }

// near reports whether cell-ordered points k and l are neighbors.
func (g *cellGrid) near(k, l int32) bool {
	d := g.dim
	a, b := int(k)*d, int(l)*d
	return dist2(g.xs[a:a+d], g.xs[b:b+d]) <= g.eps2
}

// appendNeighbors appends to out every cell that can hold a neighbor
// of a point of cell c, c itself included; cur is dim scratch values.
// With half set it appends, for a grid cell c, only the cells at a
// lexicographically positive stencil offset from c (or, without a
// stencil, the grid cells after c) and the spill cell, and nothing for
// the spill cell itself: every pair of distinct neighboring cells is
// then appended from exactly one of its two cells.
func (g *cellGrid) appendNeighbors(out []int32, c int, cur []int64, half bool) []int32 {
	ncell := len(g.start) - 1
	if c == g.grid { // the spill cell neighbors every cell
		if half {
			return out
		}
		for b := 0; b < ncell; b++ {
			out = append(out, int32(b))
		}
		return out
	}
	base := g.coords[c*g.dim : (c+1)*g.dim]
	if g.stencil != nil {
		stencil := g.stencil
		if half {
			// makeStencil lists the offsets in lexicographic order, and
			// the set is symmetric, so the ones after the middle (zero)
			// offset are the positive half.
			stencil = stencil[(len(stencil)/g.dim/2+1)*g.dim:]
		}
		for o := 0; o < len(stencil); o += g.dim {
			for d := range cur {
				cur[d] = base[d] + stencil[o+d]
			}
			if b := g.cell(cur, false); b >= 0 {
				out = append(out, b)
			}
		}
	} else {
		b0 := 0
		if half {
			b0 = c + 1
		}
		for b := b0; b < g.grid; b++ {
			if g.cellGap(base, b) <= g.reach {
				out = append(out, int32(b))
			}
		}
	}
	if g.grid < ncell {
		out = append(out, int32(g.grid))
	}
	return out
}

// cellGap is Σ_d max(|Δc_d|−1, 0)² between the cell at base and grid
// cell b, the squared lower bound on their points' distance in cells.
func (g *cellGrid) cellGap(base []int64, b int) float64 {
	other := g.coords[b*g.dim : (b+1)*g.dim]
	var s float64
	for d, c := range base {
		m := max(c-other[d], other[d]-c)
		if m > 1 {
			f := float64(m - 1)
			s += f * f
		}
	}
	return s
}

// markCore flags the core points, in cell order: every point of a
// whole cell holding minPts points, and otherwise each point whose
// neighbor count, taken cell by cell, reaches minPts.
func (g *cellGrid) markCore(minPts, parallelism int) []bool {
	core := make([]bool, len(g.orig))
	parallel.ForEachChunk(len(g.start)-1, parallelism, func(lo, hi int) {
		var nb []int32
		var cnt []int
		cur := make([]int64, g.dim)
		for c := lo; c < hi; c++ {
			a0, a1 := g.start[c], g.start[c+1]
			own := 0
			if g.whole(c) {
				own = int(a1 - a0)
			}
			if own >= minPts {
				for k := a0; k < a1; k++ {
					core[k] = true
				}
				continue
			}
			cnt = cnt[:0]
			for k := a0; k < a1; k++ {
				cnt = append(cnt, own)
			}
			nb = g.appendNeighbors(nb[:0], c, cur, false)
			for _, b := range nb {
				if own > 0 && int(b) == c {
					continue
				}
				b0, b1 := g.start[b], g.start[b+1]
				for k := a0; k < a1; k++ {
					m := cnt[k-a0]
					for l := b0; l < b1 && m < minPts; l++ {
						if g.near(k, l) {
							m++
						}
					}
					cnt[k-a0] = m
				}
			}
			for k := a0; k < a1; k++ {
				core[k] = cnt[k-a0] >= minPts
			}
		}
	})
	return core
}

// connect unites core points within eps of each other and numbers the
// resulting clusters 1..K in order of their lowest input index. It
// returns each cell-ordered point's cluster id (0 for non-core points)
// and each cell's first core point (-1 for none). Union links the
// higher-input-index root under the lower, so a component's root is its
// lowest-index point.
func (g *cellGrid) connect(core []bool) (label, first []int32) {
	n := len(g.orig)
	parent := make([]int32, n)
	for k := range parent {
		parent[k] = int32(k)
	}
	find := func(k int32) int32 {
		for parent[k] != k {
			parent[k] = parent[parent[k]]
			k = parent[k]
		}
		return k
	}
	union := func(k, l int32) {
		rk, rl := find(k), find(l)
		switch {
		case rk == rl:
		case g.orig[rk] < g.orig[rl]:
			parent[rl] = rk
		default:
			parent[rk] = rl
		}
	}

	ncell := len(g.start) - 1
	first = make([]int32, ncell)
	for c := range first {
		first[c] = -1
		for k := g.start[c]; k < g.start[c+1]; k++ {
			switch {
			case !core[k]:
			case first[c] < 0:
				first[c] = k
			case g.whole(c):
				parent[k] = first[c]
			default:
				for l := first[c]; l < k; l++ {
					if core[l] && g.near(k, l) {
						union(k, l)
					}
				}
			}
		}
	}

	// Join cell pairs, each looked up from one of its cells; a whole
	// pair needs one core pair within eps and is skipped once already
	// joined.
	var nb []int32
	cur := make([]int64, g.dim)
	for c := range first {
		if first[c] < 0 {
			continue
		}
		nb = g.appendNeighbors(nb[:0], c, cur, true)
		for _, b := range nb {
			if first[b] < 0 {
				continue
			}
			whole := g.whole(c) && g.whole(int(b))
			if whole && find(first[c]) == find(first[b]) {
				continue
			}
		pairs:
			for k := first[c]; k < g.start[c+1]; k++ {
				if !core[k] {
					continue
				}
				for l := first[b]; l < g.start[b+1]; l++ {
					if core[l] && g.near(k, l) {
						union(k, l)
						if whole {
							break pairs
						}
					}
				}
			}
		}
	}

	var roots []int32
	for k := range parent {
		if core[k] && find(int32(k)) == int32(k) {
			roots = append(roots, int32(k))
		}
	}
	slices.SortFunc(roots, func(a, b int32) int { return cmp.Compare(g.orig[a], g.orig[b]) })
	label = make([]int32, n)
	for i, r := range roots {
		label[r] = int32(i + 1)
	}
	for k := range label {
		if core[k] {
			label[k] = label[find(int32(k))]
		}
	}
	return label, first
}

// claimBorders labels each non-core point within eps of a core point
// with the lowest cluster id among those core points — the cluster that
// reaches it first in the sequential breadth-first expansion. Workers
// write only their own cells' non-core labels and read only core ones.
func (g *cellGrid) claimBorders(core []bool, label, first []int32, parallelism int) {
	parallel.ForEachChunk(len(g.start)-1, parallelism, func(lo, hi int) {
		var nb []int32
		cur := make([]int64, g.dim)
		for c := lo; c < hi; c++ {
			a0, a1 := g.start[c], g.start[c+1]
			if !slices.Contains(core[a0:a1], false) {
				continue
			}
			nb = g.appendNeighbors(nb[:0], c, cur, false)
			for k := a0; k < a1; k++ {
				if core[k] {
					continue
				}
				best := int32(math.MaxInt32)
				for _, b := range nb {
					if first[b] < 0 {
						continue
					}
					if !g.whole(int(b)) {
						for l := first[b]; l < g.start[b+1]; l++ {
							if core[l] && label[l] < best && g.near(k, l) {
								best = label[l]
							}
						}
						continue
					}
					// A whole cell's core points share one cluster.
					id := label[first[b]]
					if id >= best {
						continue
					}
					if int(b) == c {
						best = id
						continue
					}
					for l := first[b]; l < g.start[b+1]; l++ {
						if core[l] && g.near(k, l) {
							best = id
							break
						}
					}
				}
				if best != math.MaxInt32 {
					label[k] = best
				}
			}
		}
	})
}

func dist2(a, b []float64) float64 {
	var s float64
	for d := range a {
		diff := a[d] - b[d]
		s += diff * diff
	}
	return s
}
