package cluster

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sort"
	"testing"

	"repro/internal/burst"
	"repro/internal/parallel"
	"repro/internal/sim"
)

// silhouetteRef is the oracle of the triangle kernel. Its exact path is
// the per-point scan the blocked kernels replaced, kept verbatim: every
// point scans every member through dist2 over row slices. A positive
// sample takes sampledRef, the sampled mode's definition.
func silhouetteRef(points [][]float64, assign []int, sample, parallelism int) float64 {
	// Dense-number the clusters in ascending id order; member lists keep
	// point-index order so every distance sum accumulates in a fixed
	// order regardless of parallelism.
	dense := map[int]int{}
	var ids []int
	for _, c := range assign {
		if c == Noise {
			continue
		}
		if _, ok := dense[c]; !ok {
			dense[c] = 0
			ids = append(ids, c)
		}
	}
	if len(ids) < 2 {
		return math.NaN()
	}
	sort.Ints(ids)
	for di, id := range ids {
		dense[id] = di
	}
	members := make([][]int, len(ids))
	var clustered []int
	for i, c := range assign {
		if c == Noise {
			continue
		}
		members[dense[c]] = append(members[dense[c]], i)
		clustered = append(clustered, i)
	}

	if sample > 0 {
		return sampledRef(points, assign, dense, members, sample)
	}
	eval := members

	nc := len(ids)
	coeff := make([]float64, len(clustered))
	parallel.ForEachChunk(len(clustered), parallelism, func(lo, hi int) {
		sums := parallel.GetFloat64(nc)
		defer parallel.PutFloat64(sums)
		for ci := lo; ci < hi; ci++ {
			i := clustered[ci]
			own := dense[assign[i]]
			for c := range sums {
				sums[c] = 0
			}
			selfSeen := false
			for c, mem := range eval {
				for _, j := range mem {
					if j == i {
						selfSeen = true
						continue
					}
					sums[c] += math.Sqrt(dist2(points[i], points[j]))
				}
			}
			// a = mean distance to own cluster's (sampled) members.
			var a float64
			na := len(eval[own])
			if selfSeen {
				na--
			}
			if na > 0 {
				a = sums[own] / float64(na)
			}
			// b = min over other clusters of mean distance.
			b := math.Inf(1)
			for c := range eval {
				if c == own {
					continue
				}
				if m := sums[c] / float64(len(eval[c])); m < b {
					b = m
				}
			}
			if den := math.Max(a, b); den > 0 {
				coeff[ci] = (b - a) / den
			}
		}
	})
	var sum float64
	for _, s := range coeff {
		sum += s
	}
	return sum / float64(len(clustered))
}

// sampledRef defines the sampled silhouette as a plain per-pair loop:
// every cluster larger than sample is cut to sample strided members,
// only those members are scored, each against every other scored
// member, and each coefficient counts for |C| / |scored members of C|
// points, summed in point-index order over the clustered point count.
func sampledRef(points [][]float64, assign []int, dense map[int]int, members [][]int, sample int) float64 {
	eval := make([][]int, len(members))
	scored := map[int]bool{}
	n := 0
	for c, mem := range members {
		n += len(mem)
		eval[c] = mem
		if len(mem) > sample {
			eval[c] = make([]int, sample)
			for t := range eval[c] {
				eval[c][t] = mem[t*len(mem)/sample]
			}
		}
		for _, i := range eval[c] {
			scored[i] = true
		}
	}
	var coeffs []float64
	for i, c := range assign {
		if c == Noise || !scored[i] {
			continue
		}
		own := dense[c]
		sums := make([]float64, len(eval))
		for c2, mem := range eval {
			for _, j := range mem {
				if j != i {
					sums[c2] += math.Sqrt(dist2(points[i], points[j]))
				}
			}
		}
		var a float64
		if na := len(eval[own]) - 1; na > 0 {
			a = sums[own] / float64(na)
		}
		b := math.Inf(1)
		for c2, mem := range eval {
			if m := sums[c2] / float64(len(mem)); c2 != own && m < b {
				b = m
			}
		}
		var coeff float64
		if den := math.Max(a, b); den > 0 {
			coeff = (b - a) / den
		}
		coeffs = append(coeffs, coeff*(float64(len(members[own]))/float64(len(eval[own]))))
	}
	var sum float64
	for _, s := range coeffs {
		sum += s
	}
	return sum / float64(n)
}

// silhouetteCase is one labelled point set of the property test.
type silhouetteCase struct {
	name   string
	pts    [][]float64
	assign []int
}

// randomSilhouetteCase draws n points of dimension dim in k clusters
// plus noise. Duplicate rows, singleton clusters and NaN or ±Inf
// coordinates are mixed in by the flags.
func randomSilhouetteCase(rng *rand.Rand, n, dim, k int, dups, singletons, nonFinite bool) silhouetteCase {
	pts := make([][]float64, n)
	assign := make([]int, n)
	for i := range pts {
		c := 1 + rng.IntN(k)
		if rng.IntN(6) == 0 {
			c = Noise
		}
		assign[i] = c
		row := make([]float64, dim)
		for d := range row {
			row[d] = 0.3*float64(c) + 0.1*rng.NormFloat64()
		}
		pts[i] = row
		if dups && i > 0 && rng.IntN(3) == 0 {
			copy(row, pts[rng.IntN(i)])
		}
	}
	if singletons && n > 2 {
		// Fresh ids above k, each held by exactly one point.
		for s := 0; s < 1+rng.IntN(3); s++ {
			assign[rng.IntN(n)] = k + 1 + s
		}
	}
	if nonFinite {
		vals := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
		for j := 0; j < 1+rng.IntN(3); j++ {
			pts[rng.IntN(n)][rng.IntN(dim)] = vals[rng.IntN(len(vals))]
		}
	}
	name := fmt.Sprintf("n=%d dim=%d k=%d dups=%v singletons=%v nonfinite=%v", n, dim, k, dups, singletons, nonFinite)
	return silhouetteCase{name, pts, assign}
}

// largestCluster returns the size of the biggest non-noise cluster.
func largestCluster(assign []int) int {
	size := map[int]int{}
	best := 0
	for _, c := range assign {
		if c != Noise {
			size[c]++
			best = max(best, size[c])
		}
	}
	return best
}

// TestSilhouettePropertyMatchesReference pins the triangle kernel to
// the oracle bit for bit: random labelled sets of dimension 1 to 6 (the
// zero-padded narrow rows and the wide ones), sizes leaving every
// remainder modulo the block and straddling the tile, a cluster spanning
// several tiles and a tile spanning many clusters, degenerate
// labellings, duplicate rows and non-finite coordinates, at several
// sample sizes and worker counts.
func TestSilhouettePropertyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(16, 4))
	var cases []silhouetteCase
	for trial := 0; trial < 48; trial++ {
		n := 1 + rng.IntN(600)
		if trial%3 == 0 {
			n = 1 + rng.IntN(24) // small sets hit every block remainder often
		}
		dim := 1 + trial%6
		cases = append(cases, randomSilhouetteCase(rng, n, dim, 1+rng.IntN(5),
			trial%4 == 1, trial%5 == 2, trial%7 == 3))
	}
	for _, dim := range []int{2, 3, 5} {
		allNoise := randomSilhouetteCase(rng, 40, dim, 2, false, false, false)
		for i := range allNoise.assign {
			allNoise.assign[i] = Noise
		}
		allNoise.name = fmt.Sprintf("all-noise dim=%d", dim)
		oneCluster := randomSilhouetteCase(rng, 40, dim, 1, false, false, false)
		oneCluster.name = fmt.Sprintf("one-cluster dim=%d", dim)
		dupOnly := randomSilhouetteCase(rng, 37, dim, 3, false, false, false)
		for i := range dupOnly.pts {
			copy(dupOnly.pts[i], dupOnly.pts[0])
		}
		dupOnly.name = fmt.Sprintf("all-duplicates dim=%d", dim)
		cases = append(cases, allNoise, oneCluster, dupOnly)
	}
	// Every point clustered, so exact mode scores exactly m points.
	for _, m := range []int{silhouetteTile - 1, silhouetteTile, silhouetteTile + 1, 2*silhouetteTile + 3} {
		tc := randomSilhouetteCase(rng, m, 3, 3, m%2 == 0, false, m == silhouetteTile)
		for i, c := range tc.assign {
			if c == Noise {
				tc.assign[i] = 1
			}
		}
		tc.name = fmt.Sprintf("tile boundary m=%d", m)
		cases = append(cases, tc)
	}
	span := randomSilhouetteCase(rng, 3*silhouetteTile+5, 2, 4, false, true, false)
	for i := range span.assign {
		if rng.IntN(10) < 8 {
			span.assign[i] = 1
		}
	}
	span.name = "one cluster over several tiles"
	many := randomSilhouetteCase(rng, silhouetteTile/2, 3, 9, true, true, false)
	many.name = "one tile over many clusters"
	cases = append(cases, span, many)
	for _, tc := range cases {
		for _, sample := range []int{0, 1, 3, 64, largestCluster(tc.assign)} {
			want := math.Float64bits(silhouetteRef(tc.pts, tc.assign, sample, 1))
			for _, par := range []int{1, 2, 3, 8, 0} {
				got := math.Float64bits(SilhouetteSampled(tc.pts, tc.assign, sample, par))
				if got != want {
					t.Fatalf("%s sample=%d par=%d: silhouette %#x (%g), reference %#x (%g)",
						tc.name, sample, par, got, math.Float64frombits(got), want, math.Float64frombits(want))
				}
			}
		}
	}
}

// silhouetteDigests pins the silhouette over real burst feature sets as
// float64 bits, keyed by "<set>/<sample>": the four apps at 8 ranks ×
// 200 iterations and stencil at 8 × 800 (the live-session input), each
// labelled by ClusterBursts, exact and at a 256-member sample. The
// sampled rows were re-recorded when the sampled mode began scoring only
// its sample.
var silhouetteDigests = map[string]uint64{
	"stencil/0":         0x3fef560789470f1c,
	"stencil/256":       0x3fef55b171d8c256,
	"nbody/0":           0x3fee1e14ad2b5e5b,
	"nbody/256":         0x3fee23ea80249d63,
	"cg/0":              0x3fecda248a2b818f,
	"cg/256":            0x3fecdb3d2fcbda2c,
	"wavefront/0":       0x3febfe0f66ce05cf,
	"wavefront/256":     0x3febfa586938618e,
	"stencil-8x800/0":   0x3fef5b852f1b6359,
	"stencil-8x800/256": 0x3fef5ed99b3af23f,
}

// digestSets are the burst sets silhouetteDigests is keyed by. auto is
// the sample ClusterBursts' default config scores: the 8 × 200 sets
// hold 3,200 kept bursts and stay exact, stencil 8 × 800 holds 12,800.
var digestSets = []struct {
	name         string
	app          string
	ranks, iters int
	auto         int
}{
	{"stencil", "stencil", 8, 200, 0},
	{"nbody", "nbody", 8, 200, 0},
	{"cg", "cg", 8, 200, 0},
	{"wavefront", "wavefront", 8, 200, 0},
	{"stencil-8x800", "stencil", 8, 800, 256},
}

func TestSilhouetteDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests recorded on amd64; other architectures may fuse multiply-adds")
	}
	for _, s := range digestSets {
		kept := digestBursts(t, s.app, s.ranks, s.iters, 1, sim.PerturbConfig{})
		res := ClusterBursts(kept, Config{UseIPC: true})
		if key := fmt.Sprintf("%s/%d", s.name, s.auto); math.Float64bits(res.Silhouette) != silhouetteDigests[key] || res.SilhouetteSample != s.auto {
			t.Errorf("%s: ClusterBursts silhouette %#x (sample %d), want %#x (sample %d)",
				key, math.Float64bits(res.Silhouette), res.SilhouetteSample, silhouetteDigests[key], s.auto)
		}
		// A sample at or above the largest cluster scores every member.
		all := ClusterBursts(kept, Config{UseIPC: true, SilhouetteSample: len(kept)})
		if key := s.name + "/0"; math.Float64bits(all.Silhouette) != silhouetteDigests[key] || all.SilhouetteSample != 0 {
			t.Errorf("%s: ClusterBursts at sample %d: silhouette %#x (sample %d), want %#x (sample 0)",
				key, len(kept), math.Float64bits(all.Silhouette), all.SilhouetteSample, silhouetteDigests[key])
		}
		for _, sample := range []int{0, 256} {
			key := fmt.Sprintf("%s/%d", s.name, sample)
			got := math.Float64bits(SilhouetteSampled(res.Features, res.Assign, sample, 2))
			if want := silhouetteDigests[key]; got != want {
				t.Errorf("%s (n=%d K=%d): silhouette %#x (%.17g), want %#x", key, len(res.Assign), res.K, got, math.Float64frombits(got), want)
			}
		}
	}
}

// TestSilhouetteSampledAccuracy bounds the sampled mode's error on the
// four apps, as documented on SilhouetteSampled: scoring 256 weighted
// members per cluster stays within 0.002 of the exact coefficient at
// 3,200 bursts (8 ranks × 200 iterations) and within 0.004 up to
// 12,800 (16 × 200 and 8 × 800; wavefront 8 × 800 is the widest). An
// unweighted sample misses it on wavefront.
func TestSilhouetteSampledAccuracy(t *testing.T) {
	for _, app := range []string{"stencil", "nbody", "cg", "wavefront"} {
		for _, size := range []struct{ ranks, iters int }{{8, 200}, {16, 200}, {8, 800}} {
			res := ClusterBursts(digestBursts(t, app, size.ranks, size.iters, 1, sim.PerturbConfig{}), Config{UseIPC: true})
			exact := SilhouetteSampled(res.Features, res.Assign, 0, 0)
			sampled := SilhouetteSampled(res.Features, res.Assign, 256, 0)
			bound := 0.004
			if len(res.Assign) <= 3200 {
				bound = 0.002
			}
			if d := math.Abs(sampled - exact); !(d <= bound) {
				t.Errorf("%s %dx%d (n=%d K=%d): sampled silhouette %.6f is %.6f from exact %.6f, bound %g",
					app, size.ranks, size.iters, len(res.Assign), res.K, sampled, d, exact, bound)
			}
		}
	}
}

// TestSilhouetteAutoSample pins the default's threshold: ClusterBursts
// scores every member of up to 4,096 bursts and 256 members per cluster
// above, with the bits of the kernel called directly at that sample,
// while an explicit sample is honoured on both sides and a negative one
// scores like the default. Result.SilhouetteSample records the sample
// that ran.
func TestSilhouetteAutoSample(t *testing.T) {
	kept := digestBursts(t, "stencil", 8, 800, 1, sim.PerturbConfig{})
	for _, tc := range []struct {
		n, sample, want int
	}{
		{4096, 0, 0},
		{4097, 0, 256},
		{4096, 100, 100},
		{4097, 100, 100},
		{4096, -1, 0},
		{4097, -1, 256},
	} {
		res := ClusterBursts(append([]burst.Burst(nil), kept[:tc.n]...), Config{UseIPC: true, SilhouetteSample: tc.sample})
		if largestCluster(res.Assign) <= 256 {
			t.Fatalf("n=%d: largest cluster %d does not exceed the sample", tc.n, largestCluster(res.Assign))
		}
		want := SilhouetteSampled(res.Features, res.Assign, tc.want, 1)
		if res.SilhouetteSample != tc.want || math.Float64bits(res.Silhouette) != math.Float64bits(want) {
			t.Errorf("n=%d sample=%d: silhouette %#x (sample %d), want %#x (sample %d)", tc.n, tc.sample,
				math.Float64bits(res.Silhouette), res.SilhouetteSample, math.Float64bits(want), tc.want)
		}
	}
}
