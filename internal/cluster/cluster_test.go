package cluster

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/burst"
	"repro/internal/counters"
	"repro/internal/trace"
)

// blobs generates g Gaussian blobs of m points each in dim dimensions,
// returning points and true labels (1..g).
func blobs(g, m, dim int, spread float64, seed uint64) ([][]float64, []int) {
	rng := rand.New(rand.NewPCG(seed, 99))
	centers := make([][]float64, g)
	for i := range centers {
		centers[i] = make([]float64, dim)
		for d := range centers[i] {
			centers[i][d] = float64(i) + 0.1*rng.Float64()
		}
	}
	var pts [][]float64
	var labels []int
	for i, c := range centers {
		for j := 0; j < m; j++ {
			p := make([]float64, dim)
			for d := range p {
				p[d] = c[d] + spread*rng.NormFloat64()
			}
			pts = append(pts, p)
			labels = append(labels, i+1)
		}
	}
	return pts, labels
}

// agreement checks that two labelings induce the same partition.
func agreement(a, b []int) bool {
	mapAB := map[int]int{}
	mapBA := map[int]int{}
	for i := range a {
		if x, ok := mapAB[a[i]]; ok && x != b[i] {
			return false
		}
		if x, ok := mapBA[b[i]]; ok && x != a[i] {
			return false
		}
		mapAB[a[i]] = b[i]
		mapBA[b[i]] = a[i]
	}
	return true
}

func TestDBSCANSeparatesBlobs(t *testing.T) {
	pts, labels := blobs(3, 60, 2, 0.03, 1)
	assign := DBSCANP(pts, 0.15, 4, 0)
	// All points should be clustered (dense blobs, wide separation).
	for i, c := range assign {
		if c == Noise {
			t.Fatalf("point %d classified as noise", i)
		}
	}
	if !agreement(assign, labels) {
		t.Fatal("DBSCAN partition does not match ground truth")
	}
}

func TestDBSCANMarksOutliersNoise(t *testing.T) {
	pts, _ := blobs(2, 50, 2, 0.02, 2)
	// Add isolated outliers far away.
	pts = append(pts, []float64{10, 10}, []float64{-5, 7}, []float64{20, -3})
	assign := DBSCANP(pts, 0.15, 4, 0)
	for i := len(pts) - 3; i < len(pts); i++ {
		if assign[i] != Noise {
			t.Fatalf("outlier %d assigned to cluster %d", i, assign[i])
		}
	}
}

func TestDBSCANEmptyAndPanics(t *testing.T) {
	if got := DBSCANP(nil, 0.1, 4, 0); got != nil {
		t.Fatal("empty input should return nil")
	}
	for name, f := range map[string]func(){
		"eps":    func() { DBSCANP([][]float64{{1}}, 0, 4, 0) },
		"minPts": func() { DBSCANP([][]float64{{1}}, 0.1, 0, 0) },
		"dim":    func() { DBSCANP([][]float64{{1}, {1, 2}}, 0.1, 2, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestDBSCANSinglePoint(t *testing.T) {
	assign := DBSCANP([][]float64{{0.5, 0.5}}, 0.1, 1, 0)
	if assign[0] != 1 {
		t.Fatalf("single point with minPts=1 should form a cluster, got %d", assign[0])
	}
	assign = DBSCANP([][]float64{{0.5, 0.5}}, 0.1, 2, 0)
	if assign[0] != Noise {
		t.Fatalf("single point with minPts=2 should be noise, got %d", assign[0])
	}
}

func TestDBSCANChainConnectivity(t *testing.T) {
	// A dense chain of points should form one cluster through
	// density-reachability even though the ends are far apart.
	var pts [][]float64
	for i := 0; i < 100; i++ {
		pts = append(pts, []float64{float64(i) * 0.05, 0})
	}
	assign := DBSCANP(pts, 0.06, 2, 0)
	for _, c := range assign {
		if c != 1 {
			t.Fatalf("chain split: %v", assign)
		}
	}
}

// normalizeRows min-max scales a row matrix in place through
// normalizeFlat, the layout the clustering kernels normalize in.
func normalizeRows(m [][]float64) {
	if len(m) == 0 {
		return
	}
	dim := len(m[0])
	flat := make([]float64, 0, len(m)*dim)
	for _, row := range m {
		flat = append(flat, row...)
	}
	normalizeFlat(flat, dim)
	for i, row := range m {
		copy(row, flat[i*dim:])
	}
}

func TestNormalize(t *testing.T) {
	m := []float64{0, 10, 5, 10, 10, 10} // rows {0,10} {5,10} {10,10}
	normalizeFlat(m, 2)
	if m[0] != 0 || m[2] != 0.5 || m[4] != 1 {
		t.Fatalf("col0 = %v %v %v", m[0], m[2], m[4])
	}
	// Constant column → 0.
	if m[1] != 0 || m[5] != 0 {
		t.Fatalf("constant col = %v %v", m[1], m[5])
	}
	normalizeFlat(nil, 2) // must not panic
}

func TestAutoEpsFindsUsableValue(t *testing.T) {
	pts, _ := blobs(3, 50, 2, 0.03, 3)
	normalizeRows(pts)
	eps := AutoEpsMode(pts, 4, 0, IndexAuto)
	if eps <= 0 || eps > 0.5 {
		t.Fatalf("AutoEps = %g outside plausible range", eps)
	}
	assign := DBSCANP(pts, eps, 4, 0)
	k := 0
	for _, c := range assign {
		if c > k {
			k = c
		}
	}
	if k != 3 {
		t.Fatalf("auto-eps DBSCAN found %d clusters, want 3", k)
	}
}

func TestAutoEpsDegenerate(t *testing.T) {
	if eps := AutoEpsMode(nil, 4, 0, IndexAuto); eps != 0.1 {
		t.Fatalf("empty AutoEps = %g", eps)
	}
	if eps := AutoEpsMode([][]float64{{1, 1}}, 4, 0, IndexAuto); eps != 0.1 {
		t.Fatalf("single-point AutoEps = %g", eps)
	}
	// All identical points: k-dist all zero.
	pts := [][]float64{{1, 1}, {1, 1}, {1, 1}, {1, 1}, {1, 1}}
	if eps := AutoEpsMode(pts, 2, 0, IndexAuto); eps <= 0 {
		t.Fatalf("identical-points AutoEps = %g", eps)
	}
}

// makeBursts builds bursts in two obvious groups: short/low-IPC and
// long/high-IPC, plus one extreme outlier.
func makeBursts() []burst.Burst {
	var out []burst.Burst
	for i := 0; i < 40; i++ {
		var d counters.Values
		d[counters.TotIns] = 1_000_000 + int64(i)*500
		d[counters.TotCyc] = 2_000_000
		out = append(out, burst.Burst{
			Rank: int32(i % 4), Start: trace.Time(i * 1000), End: trace.Time(i*1000 + 100),
			Delta: d, OracleID: 1,
		})
	}
	for i := 0; i < 40; i++ {
		var d counters.Values
		d[counters.TotIns] = 80_000_000 + int64(i)*10_000
		d[counters.TotCyc] = 40_000_000
		out = append(out, burst.Burst{
			Rank: int32(i % 4), Start: trace.Time(100_000 + i*20_000), End: trace.Time(100_000 + i*20_000 + 10_000),
			Delta: d, OracleID: 2,
		})
	}
	var d counters.Values
	d[counters.TotIns] = 1
	d[counters.TotCyc] = 1
	out = append(out, burst.Burst{Rank: 0, Start: 0, End: 1, Delta: d})
	return out
}

func TestClusterBurstsFindsPhases(t *testing.T) {
	bursts := makeBursts()
	res := ClusterBursts(bursts, Config{UseIPC: true})
	if res.K < 2 {
		t.Fatalf("K = %d, want >= 2", res.K)
	}
	// Every burst with the same oracle id must land in the same cluster.
	byOracle := map[int64]int{}
	for i, b := range bursts {
		if b.OracleID == 0 {
			continue
		}
		if prev, ok := byOracle[b.OracleID]; ok && prev != res.Assign[i] {
			t.Fatalf("oracle %d split across clusters %d and %d", b.OracleID, prev, res.Assign[i])
		}
		byOracle[b.OracleID] = res.Assign[i]
	}
	// Cluster 1 must be the one with the most total time (the long bursts).
	if byOracle[2] != 1 {
		t.Fatalf("dominant phase got cluster %d, want 1", byOracle[2])
	}
	// Bursts' Cluster fields must be set.
	for i := range bursts {
		if bursts[i].Cluster != res.Assign[i] {
			t.Fatal("burst Cluster field not assigned")
		}
	}
	if cov := ClusterTimeCoverage(bursts, res.Assign); cov < 0.95 {
		t.Fatalf("coverage = %g, want > 0.95", cov)
	}
	if math.IsNaN(res.Silhouette) || res.Silhouette < 0.5 {
		t.Fatalf("silhouette = %g, want well-separated", res.Silhouette)
	}
}

func TestClusterBurstsEmpty(t *testing.T) {
	res := ClusterBursts(nil, Config{})
	if res.K != 0 || res.Assign != nil {
		t.Fatalf("empty result = %+v", res)
	}
	if res.MinPts != 4 {
		t.Fatalf("default MinPts = %d", res.MinPts)
	}
}

func TestSilhouetteKnownValues(t *testing.T) {
	// Two tight, distant pairs: silhouette ≈ 1.
	pts := [][]float64{{0, 0}, {0, 0.01}, {5, 5}, {5, 5.01}}
	assign := []int{1, 1, 2, 2}
	if s := SilhouetteSampled(pts, assign, 0, 0); s < 0.99 {
		t.Fatalf("silhouette = %g, want ≈ 1", s)
	}
	// Single cluster → NaN.
	if s := SilhouetteSampled(pts, []int{1, 1, 1, 1}, 0, 0); !math.IsNaN(s) {
		t.Fatalf("single-cluster silhouette = %g, want NaN", s)
	}
	// All noise → NaN.
	if s := SilhouetteSampled(pts, []int{0, 0, 0, 0}, 0, 0); !math.IsNaN(s) {
		t.Fatalf("all-noise silhouette = %g, want NaN", s)
	}
}

func TestClusterTimeCoveragePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ClusterTimeCoverage(make([]burst.Burst, 2), []int{1})
}

func TestFeaturesShape(t *testing.T) {
	bursts := makeBursts()
	f2 := Features(bursts, false)
	if len(f2) != len(bursts) || len(f2[0]) != 2 {
		t.Fatalf("2D features shape wrong")
	}
	f3 := Features(bursts, true)
	if len(f3[0]) != 3 {
		t.Fatalf("3D features shape wrong")
	}
	for _, row := range f3 {
		for d, v := range row {
			if v < 0 || v > 1 {
				t.Fatalf("feature dim %d = %g outside [0,1]", d, v)
			}
		}
	}
}
