package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"testing"

	"repro/internal/apps"
	"repro/internal/burst"
	"repro/internal/sim"
)

// bruteDBSCAN is the O(n²) reference: the textbook sequential DBSCAN
// with explicit neighbor lists (a neighbor is any point, itself
// included, with dist2 <= eps²), expanding clusters breadth-first in
// index order so ids are 1..K in discovery order and a border point
// belongs to the first cluster that reaches it.
func bruteDBSCAN(pts [][]float64, eps float64, minPts int) []int {
	n := len(pts)
	eps2 := eps * eps
	nbrs := make([][]int, n)
	for i := range pts {
		for j := range pts {
			if dist2(pts[i], pts[j]) <= eps2 {
				nbrs[i] = append(nbrs[i], j)
			}
		}
	}
	assign := make([]int, n)
	visited := make([]bool, n)
	k := 0
	for i := 0; i < n; i++ {
		if visited[i] {
			continue
		}
		visited[i] = true
		if len(nbrs[i]) < minPts {
			continue
		}
		k++
		assign[i] = k
		queue := append([]int(nil), nbrs[i]...)
		for qi := 0; qi < len(queue); qi++ {
			j := queue[qi]
			if !visited[j] {
				visited[j] = true
				if len(nbrs[j]) >= minPts {
					queue = append(queue, nbrs[j]...)
				}
			}
			if assign[j] == Noise {
				assign[j] = k
			}
		}
	}
	return assign
}

// latticePoints draws n points on a 1/20 lattice of side span/20, so a
// set holds duplicates, equidistant ties and pairs exactly eps apart.
func latticePoints(rng *rand.Rand, n, dim, span int) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		p := make([]float64, dim)
		for d := range p {
			p[d] = float64(rng.IntN(span+1)) / 20
		}
		pts[i] = p
	}
	return pts
}

func checkDBSCAN(t *testing.T, label string, pts [][]float64, eps float64, minPts int) {
	t.Helper()
	want := bruteDBSCAN(pts, eps, minPts)
	for _, par := range []int{1, 2, 8} {
		got := DBSCANP(pts, eps, minPts, par)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s eps=%g minPts=%d par=%d: point %d (%v) assigned %d, reference %d",
					label, eps, minPts, par, i, pts[i], got[i], want[i])
			}
		}
	}
}

func TestDBSCANPropertyMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 2026))
	for trial := 0; trial < 400; trial++ {
		dim := 1 + trial%6
		n := 1 + rng.IntN(160)
		span := 2 + rng.IntN(12)
		pts := latticePoints(rng, n, dim, span)
		// Lattice radii (exact-distance ties) and their diagonals.
		var eps float64
		if rng.IntN(2) == 0 {
			eps = float64(1+rng.IntN(4)) / 20
		} else {
			eps = math.Sqrt(float64(1+rng.IntN(8))) / 20
		}
		minPts := 1 + rng.IntN(8)
		checkDBSCAN(t, fmt.Sprintf("trial %d n=%d dim=%d", trial, n, dim), pts, eps, minPts)
	}

	// Cell coordinates past the int64 range: floor(p/eps) overflows for
	// every point, so distances alone must separate them.
	tiny := [][]float64{{100}, {100}, {1e6}, {1e6}, {100}, {5e5}, {1e6}, {math.Nextafter(100, 200)}, {100}}
	for _, minPts := range []int{1, 2, 3} {
		checkDBSCAN(t, "tiny eps 1-D", tiny, 1e-17, minPts)
	}
	tiny2 := [][]float64{{100, 1e6}, {1e6, 100}, {100, 1e6}, {1e6, 100}, {100, 100}, {1e6, 1e6}, {100, 1e6}}
	for _, minPts := range []int{1, 2, 3} {
		checkDBSCAN(t, "tiny eps 2-D", tiny2, 1e-17, minPts)
	}
	huge := [][]float64{{1e300, 0}, {-1e300, 0}, {1e300, 0}, {0, 0}, {0.5, 0}, {-1e300, 0}, {1e300, 1e300}, {0, 1}, {1e300, 0.5}}
	for _, minPts := range []int{1, 2, 3} {
		checkDBSCAN(t, "huge coordinates", huge, 1, minPts)
	}
	// A chain straddling the largest gridded coordinate (cell coordinate
	// 2^40 at side eps/√d·(1-1/1024), see maxCellCoord): its inner links
	// join grid cells to the spill cell.
	for dim := 1; dim <= 2; dim++ {
		eps := 1e-12
		edge := 0x1p40 * eps / math.Sqrt(float64(dim)) * (1 - 1.0/1024)
		var chain [][]float64
		for k := -6; k <= 6; k++ {
			p := make([]float64, dim)
			for d := range p {
				p[d] = edge + float64(k)*3e-13
			}
			chain = append(chain, p)
		}
		for minPts := 1; minPts <= 4; minPts++ {
			checkDBSCAN(t, fmt.Sprintf("grid edge %d-D", dim), chain, eps, minPts)
		}
	}
	// An eps whose square is subnormal, on a lattice of that pitch.
	sub := latticePoints(rng, 80, 2, 6)
	for _, p := range sub {
		for d := range p {
			p[d] *= 20e-160
		}
	}
	for _, minPts := range []int{1, 2, 4} {
		checkDBSCAN(t, "subnormal eps²", sub, 1e-160, minPts)
	}
	// Non-finite coordinates are no point's neighbor, not even their own.
	odd := [][]float64{{0, 0}, {math.NaN(), 0}, {0, 0.5}, {math.Inf(1), 0}, {0.5, 0}, {math.Inf(-1), math.Inf(1)}, {0.25, 0.25}}
	for _, minPts := range []int{1, 2, 4} {
		checkDBSCAN(t, "non-finite coordinates", odd, 1, minPts)
	}
	// A mix: most points on an ordinary lattice, a few overflowing.
	for trial := 0; trial < 20; trial++ {
		pts := latticePoints(rng, 60+rng.IntN(60), 2, 8)
		for i := 0; i < 6; i++ {
			pts = append(pts, []float64{1e300 * float64(rng.IntN(3)-1), float64(rng.IntN(3)) / 20})
		}
		rng.Shuffle(len(pts), func(a, b int) { pts[a], pts[b] = pts[b], pts[a] })
		checkDBSCAN(t, fmt.Sprintf("mixed trial %d", trial), pts, 0.1, 1+rng.IntN(5))
	}
}

// TestCellGridHalfNeighbors checks the half neighbor lists the union
// pass walks: every pair of distinct neighboring cells is listed from
// exactly one of its two cells, and a half list holds only neighbors.
// The trials cover the stencil, the occupied-cell scan (dimensions
// where the stencil outnumbers the cells) and the spill cell.
func TestCellGridHalfNeighbors(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 29))
	for trial := 0; trial < 60; trial++ {
		dim := 1 + trial%6
		pts := latticePoints(rng, 1+rng.IntN(200), dim, 2+rng.IntN(12))
		if trial%3 == 0 {
			huge := make([]float64, dim)
			huge[0] = 1e300
			pts = append(pts, huge)
		}
		g := newCellGrid(pts, float64(1+rng.IntN(4))/20)
		ncell := len(g.start) - 1
		cur := make([]int64, dim)
		full, half := map[[2]int32]bool{}, map[[2]int32]bool{}
		for c := 0; c < ncell; c++ {
			for _, b := range g.appendNeighbors(nil, c, cur, false) {
				full[[2]int32{int32(c), b}] = true
			}
			for _, b := range g.appendNeighbors(nil, c, cur, true) {
				half[[2]int32{int32(c), b}] = true
			}
		}
		for pair := range half {
			if pair[0] == pair[1] || !full[pair] || half[[2]int32{pair[1], pair[0]}] {
				t.Fatalf("trial %d dim=%d: half lists pair %v (self, not a neighbor, or listed both ways)", trial, dim, pair)
			}
		}
		for pair := range full {
			if pair[0] != pair[1] && !half[pair] && !half[[2]int32{pair[1], pair[0]}] {
				t.Fatalf("trial %d dim=%d: neighboring cells %v missing from the half lists", trial, dim, pair)
			}
		}
	}
}

func TestDBSCANBorderTakesFirstCluster(t *testing.T) {
	// Two six-point clusters 1.2 apart at eps 1, minPts 6, and a border
	// point x with only three neighbors (itself, a's edge point at
	// distance 0.9, b's edge point at distance 0.3 — nearer, and in x's
	// grid cell).
	a := [][]float64{{-0.2, 0}, {-0.2, 0.1}, {-0.1, 0}, {-0.1, 0.1}, {-0.15, 0.05}, {0.1, 0}}
	b := [][]float64{{2.1, 0}, {2.1, 0.1}, {2.2, 0}, {2.2, 0.1}, {2.15, 0.05}, {1.3, 0}}
	x := []float64{1, 0}
	cases := []struct {
		name  string
		pts   [][]float64
		xAt   int
		wantX int
	}{
		{"a first", append(append([][]float64{x}, a...), b...), 0, 1},
		{"b first", append(append([][]float64{x}, b...), a...), 0, 1},
		{"x last, b first", append(append(append([][]float64{}, b...), a...), x), 12, 1},
	}
	for _, tc := range cases {
		for _, par := range []int{1, 2} {
			got := DBSCANP(tc.pts, 1, 6, par)
			want := bruteDBSCAN(tc.pts, 1, 6)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s par=%d: point %d assigned %d, reference %d", tc.name, par, i, got[i], want[i])
				}
			}
			if got[tc.xAt] != tc.wantX {
				t.Fatalf("%s par=%d: border point in cluster %d, want %d (%v)", tc.name, par, got[tc.xAt], tc.wantX, got)
			}
		}
	}
	// Check the premise: x is not core, and both clusters reach it.
	pts := cases[0].pts
	got := DBSCANP(pts, 1, 6, 0)
	if got[1] != 1 || got[7] != 2 {
		t.Fatalf("cluster ids %v, want a=1 b=2", got)
	}
	if n := len(bruteNeighborsOf(pts, 0, 1)); n != 3 {
		t.Fatalf("border point has %d neighbors, want 3", n)
	}

	// Pairs exactly eps apart are neighbors; a hair farther are not.
	pair := [][]float64{{0, 0}, {0.5, 0}, {3, 0}, {math.Nextafter(3.5, 4), 0}}
	if got := DBSCANP(pair, 0.5, 2, 0); got[0] != 1 || got[1] != 1 || got[2] != Noise || got[3] != Noise {
		t.Fatalf("exact-eps pair: %v, want [1 1 0 0]", got)
	}
	diag := [][]float64{{0, 0}, {3, 4}}
	if got := DBSCANP(diag, 5, 2, 0); got[0] != 1 || got[1] != 1 {
		t.Fatalf("3-4-5 pair at eps 5: %v, want one cluster", got)
	}

	// minPts 1: every point is core; isolated points are singleton
	// clusters numbered in index order.
	lone := [][]float64{{5, 5}, {0, 0}, {0.05, 0}, {9, 9}, {5, 5}}
	want := []int{1, 2, 2, 3, 1}
	got = DBSCANP(lone, 0.1, 1, 0)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("minPts 1: %v, want %v", got, want)
		}
	}
}

// bruteNeighborsOf lists the points within eps of pts[i], itself
// included.
func bruteNeighborsOf(pts [][]float64, i int, eps float64) []int {
	var out []int
	for j := range pts {
		if dist2(pts[i], pts[j]) <= eps*eps {
			out = append(out, j)
		}
	}
	return out
}

// dbscanDigests pins DBSCAN's assignment over real burst feature sets,
// keyed by "<set>/<case>": the four apps at 8 ranks × 200 iterations
// and the bench-large preset, each at the automatic eps (minPts 4), at
// twice and a third of it, and at minPts 10.
var dbscanDigests = map[string]string{
	"stencil/auto":         "151c5089b5370c3819480e64e4f92c56b7eb2027944bcf8fbacaa8f1c8d5c834",
	"stencil/2x":           "b75dfcdbbdbfb08a0540058e8dcdb422ee158a42806be3687ee1f921f49f09fc",
	"stencil/third":        "ba6fb5034c3afa2ffa16a4a7d54a6a6474973b9bd4ffd5adfad01f088a1570ff",
	"stencil/minpts10":     "564167229344bb979869171c32d625aa3d4bcef9b767acd1b01304f3c00a11d1",
	"nbody/auto":           "b6dd6e27f246332a893bdcd106752dacff632078ef22f47f80fb68824402889a",
	"nbody/2x":             "b8cabf35fac9bbf847919641722e1de2e2eb3409a1cec195e4e9df274431e5b7",
	"nbody/third":          "ed627b8518e9c2c62a2147a74dd7cab80be46f6b102b7be167e78735a2c4c15f",
	"nbody/minpts10":       "e4947895f55076ee2eb781afb27ee6f1c1eb692ec156ba3a6d3f02c1b6d700f0",
	"cg/auto":              "3daade1dae8b364180c4a9ffdd988100f4b922f1f2153271d846ce74895ac32d",
	"cg/2x":                "1fe3db749bbdbe6bbbff599870e928b10d7374840bbad5d511dafa740d6de781",
	"cg/third":             "e692aae75f066d0603ea1d940576015c04dd19f088f2d767c17d8e60833e312c",
	"cg/minpts10":          "d7f167cc207ed4aff927d0b8874f113ee2f8a6f6655db709cd620ecf73f26a79",
	"wavefront/auto":       "e8adc6c3cd48aa60f6533b766facee155e5acfb3bc0ff7d5a1dccbf5647e9840",
	"wavefront/2x":         "f837c8c666bb76ae083043499c8186bc77c2fdadca802f9d2efa04eb5c2cdc4d",
	"wavefront/third":      "a5f648b171536787d9312ad530bb50d3ccc0d98d14268b3698e9b9a3c3b7e35f",
	"wavefront/minpts10":   "586db4b6d1f4a952e8e09c6ba69149e52df053d2b68981f35561fd2dedc2976d",
	"bench-large/auto":     "081251ae0d6f38d95762dbaf56431eb44a64e383f9c610888eb11986f3dfcaf3",
	"bench-large/2x":       "9cce16f66871b26b43f2dfee5b89c048b71bad857d65e0accfc013e078dc85dc",
	"bench-large/third":    "d15515c0be993f6bc13e817d54fc73f9d87cee43b03a419cafde24a6681cb422",
	"bench-large/minpts10": "f3d79408732c1f0837e1065e0d74ba97f40553809f0ec1d5c0df826848db18e4",
}

// assignDigest hashes an assignment as little-endian int32s.
func assignDigest(assign []int) string {
	buf := make([]byte, 4*len(assign))
	for i, c := range assign {
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(int32(c)))
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// digestFeatures simulates app and returns the engine's 3-D clustering
// features over its kept bursts.
func digestFeatures(t *testing.T, app string, ranks, iters int, seed uint64) [][]float64 {
	t.Helper()
	return Features(digestBursts(t, app, ranks, iters, seed, sim.PerturbConfig{}), true)
}

// digestBursts simulates app under the default trace config with the
// given seed and perturbation and returns its kept bursts (the engine's
// default 50 µs minimum duration) in (Start, Rank) order.
func digestBursts(t *testing.T, app string, ranks, iters int, seed uint64, perturb sim.PerturbConfig) []burst.Burst {
	t.Helper()
	a, err := apps.ByName(app, iters)
	if err != nil {
		t.Fatal(err)
	}
	cfg := apps.DefaultTraceConfig(ranks)
	cfg.Seed = seed
	cfg.Perturb = perturb
	tr, err := sim.Run(cfg, a)
	if err != nil {
		t.Fatal(err)
	}
	all, err := burst.Extract(tr)
	if err != nil {
		t.Fatal(err)
	}
	kept, _ := burst.Filter{MinDuration: 50_000}.Apply(all)
	return kept
}

func TestDBSCANAssignDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests recorded on amd64; other architectures may fuse multiply-adds")
	}
	sets := []struct {
		name               string
		app                string
		ranks, iters, seed int
	}{
		{"stencil", "stencil", 8, 200, 1},
		{"nbody", "nbody", 8, 200, 1},
		{"cg", "cg", 8, 200, 1},
		{"wavefront", "wavefront", 8, 200, 1},
		{"bench-large", apps.BenchLargeApp, apps.BenchLargeRanks, apps.BenchLargeIters, 1},
	}
	for _, s := range sets {
		feats := digestFeatures(t, s.app, s.ranks, s.iters, uint64(s.seed))
		eps := AutoEpsMode(feats, 4, 0, IndexAuto)
		cases := []struct {
			name   string
			eps    float64
			minPts int
		}{
			{"auto", eps, 4},
			{"2x", 2 * eps, 4},
			{"third", eps / 3, 4},
			{"minpts10", eps, 10},
		}
		for _, c := range cases {
			key := s.name + "/" + c.name
			got := assignDigest(DBSCANP(feats, c.eps, c.minPts, 0))
			if want := dbscanDigests[key]; got != want {
				t.Errorf("%s (n=%d eps=%.17g minPts=%d): digest %s, want %s", key, len(feats), c.eps, c.minPts, got, want)
			}
		}
	}
}
