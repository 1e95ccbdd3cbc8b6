package online

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/burst"
	"repro/internal/cluster"
	"repro/internal/counters"
	"repro/internal/folding"
	"repro/internal/sim"
	"repro/internal/trace"
)

// streamSetup simulates the stencil app and returns the filtered bursts
// (in stream order) plus their attached samples.
func streamSetup(t *testing.T, iters int) ([]burst.Burst, [][]folding.Instance, *sim.Config) {
	t.Helper()
	app := apps.NewStencil(iters)
	cfg := apps.DefaultTraceConfig(8)
	tr, err := sim.Run(cfg, app)
	if err != nil {
		t.Fatal(err)
	}
	all, err := burst.Extract(tr)
	if err != nil {
		t.Fatal(err)
	}
	kept, _ := burst.Filter{MinDuration: 50_000}.Apply(all)
	attached := burst.AttachSamples(tr, kept)
	instances := make([][]folding.Instance, len(kept))
	for i := range kept {
		instances[i] = []folding.Instance{{
			Rank:    kept[i].Rank,
			Start:   kept[i].Start,
			End:     kept[i].End,
			Base:    kept[i].Base,
			Totals:  kept[i].Delta,
			Samples: attached[i],
		}}
	}
	return kept, instances, &cfg
}

func TestTrainThenClassifyMatchesOffline(t *testing.T) {
	kept, _, _ := streamSetup(t, 150)
	// Train on the first 20% of the stream.
	split := len(kept) / 5
	training := append([]burst.Burst(nil), kept[:split]...)
	clf, err := Train(training, cluster.Config{UseIPC: true})
	if err != nil {
		t.Fatal(err)
	}
	if clf.Model.K < 2 {
		t.Fatalf("phases learned = %d", clf.Model.K)
	}

	// Offline reference on the full stream.
	offline := append([]burst.Burst(nil), kept...)
	cluster.ClusterBursts(offline, cluster.Config{UseIPC: true})

	// Online classification of the remainder must agree with the offline
	// labels (up to a permutation learned from co-occurrence).
	remap := map[int]map[int]int{}
	agree, total := 0, 0
	for i := split; i < len(kept); i++ {
		b := kept[i]
		on := clf.Model.Classify(&b)
		off := offline[i].Cluster
		if off == cluster.Noise {
			continue
		}
		if remap[on] == nil {
			remap[on] = map[int]int{}
		}
		remap[on][off]++
		total++
	}
	// Majority mapping per online label.
	for on, m := range remap {
		best, bestN := 0, 0
		for off, n := range m {
			if n > bestN {
				best, bestN = off, n
			}
		}
		agree += m[best]
		_ = on
	}
	if total == 0 {
		t.Fatal("no classified bursts")
	}
	if frac := float64(agree) / float64(total); frac < 0.97 {
		t.Fatalf("online/offline agreement = %.3f", frac)
	}
}

func TestClassifyRejectsAlienBurst(t *testing.T) {
	kept, _, _ := streamSetup(t, 60)
	clf, err := Train(kept[:len(kept)/2], cluster.Config{UseIPC: true})
	if err != nil {
		t.Fatal(err)
	}
	var alien burst.Burst
	alien.Start = 0
	alien.End = 500_000_000 // 500 ms: nothing like the training phases
	alien.Delta[counters.TotIns] = 1_000
	alien.Delta[counters.TotCyc] = 1_250_000_000
	if got := clf.Model.Classify(&alien); got != cluster.Noise {
		t.Fatalf("alien burst classified as %d", got)
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(nil, cluster.Config{}); err == nil {
		t.Fatal("empty training accepted")
	}
	// Fewer points than MinPts, all far apart: DBSCAN labels everything
	// noise and training must refuse.
	var bursts []burst.Burst
	for i := 0; i < 3; i++ {
		var d counters.Values
		d[counters.TotIns] = int64(1) << (10 * (i + 1))
		d[counters.TotCyc] = 1000
		bursts = append(bursts, burst.Burst{
			Start: 0, End: trace.Time(100 << (5 * i)), Delta: d,
		})
	}
	if _, err := Train(bursts, cluster.Config{MinPts: 4, UseIPC: true}); err == nil {
		t.Fatal("unclusterable training accepted")
	}
}

// refClassifier is an independent implementation of the centroid rule
// online classification follows — raw log-space means, a squared
// acceptance radius of 2.25× the farthest member's, the nearest
// capturing centroid wins — kept as the oracle Train's compacted model
// must reproduce bit for bit.
type refClassifier struct {
	centroids []refCentroid
}

type refCentroid struct {
	id     int
	mean   []float64
	radius float64 // squared acceptance radius
}

// newRefClassifier builds the centroids from a training set that
// cluster.ClusterBursts labelled with k clusters.
func newRefClassifier(training []burst.Burst, k int) *refClassifier {
	c := &refClassifier{}
	raw := refRawFeatures(training)
	dim := len(raw[0])
	sums := map[int][]float64{}
	counts := map[int]int{}
	for i, b := range training {
		if b.Cluster == cluster.Noise {
			continue
		}
		s := sums[b.Cluster]
		if s == nil {
			s = make([]float64, dim)
			sums[b.Cluster] = s
		}
		for d := 0; d < dim; d++ {
			s[d] += raw[i][d]
		}
		counts[b.Cluster]++
	}
	for id := 1; id <= k; id++ {
		if counts[id] == 0 {
			continue
		}
		mean := make([]float64, dim)
		for d := range mean {
			mean[d] = sums[id][d] / float64(counts[id])
		}
		// Acceptance radius: max member distance × 1.5 (a new burst of the
		// same phase should land within the training cloud's extent).
		var maxD float64
		for i, b := range training {
			if b.Cluster != id {
				continue
			}
			if d := refDist2(raw[i], mean); d > maxD {
				maxD = d
			}
		}
		c.centroids = append(c.centroids, refCentroid{
			id:     id,
			mean:   mean,
			radius: maxD * 2.25, // (1.5×)² in squared space
		})
	}
	return c
}

// classify assigns a burst to the nearest learned phase, or
// cluster.Noise when it falls outside every acceptance radius.
func (c *refClassifier) classify(b *burst.Burst) int {
	f := refRawFeature(b)
	best, bestD := cluster.Noise, math.Inf(1)
	for _, ct := range c.centroids {
		d := refDist2(f, ct.mean)
		if d <= ct.radius && d < bestD {
			best, bestD = ct.id, d
		}
	}
	return best
}

// refRawFeatures computes log-space features without min-max
// normalization.
func refRawFeatures(bursts []burst.Burst) [][]float64 {
	out := make([][]float64, len(bursts))
	for i := range bursts {
		out[i] = refRawFeature(&bursts[i])
	}
	return out
}

func refRawFeature(b *burst.Burst) []float64 {
	d := float64(b.Duration())
	if d < 1 {
		d = 1
	}
	ins := float64(b.Instructions())
	if ins < 1 {
		ins = 1
	}
	// IPC is scaled to be commensurate with the log dimensions (log10 of
	// a 5 ms burst ≈ 6.7; IPC ∈ [0,4]).
	return []float64{math.Log10(d), math.Log10(ins), b.IPC()}
}

func refDist2(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// keptBursts simulates app on ranks × iters under the default trace
// config with the given seed and returns its kept bursts in stream order.
func keptBursts(t *testing.T, app string, ranks, iters int, seed uint64) []burst.Burst {
	t.Helper()
	a, err := apps.ByName(app, iters)
	if err != nil {
		t.Fatal(err)
	}
	cfg := apps.DefaultTraceConfig(ranks)
	cfg.Seed = seed
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

// TestTrainMatchesRefClassifier pins the online path to the classifier
// it replaced. On every app, two seeds and two training-prefix lengths,
// Train labels the prefix exactly as cluster.ClusterBursts does, and its
// compacted model classifies every later burst, and an exact copy of
// every training burst DBSCAN left as noise, as refClassifier does. The
// copies are the case a model that kept its training bursts would change
// (it recalls their noise label), so at least one of them must be
// captured by a centroid.
func TestTrainMatchesRefClassifier(t *testing.T) {
	cfg := cluster.Config{UseIPC: true}
	captured := 0
	for _, app := range apps.Names() {
		for _, seed := range []uint64{1, 2} {
			kept := keptBursts(t, app, 8, 200, seed)
			for _, n := range []int{64, 512} {
				name := fmt.Sprintf("%s/seed%d/train%d", app, seed, n)
				if n >= len(kept) {
					t.Fatalf("%s: only %d kept bursts", name, len(kept))
				}
				want := append([]burst.Burst(nil), kept[:n]...)
				res := cluster.ClusterBursts(want, cfg)
				training := append([]burst.Burst(nil), kept[:n]...)
				clf, err := Train(training, cfg)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for i := range training {
					if training[i].Cluster != want[i].Cluster {
						t.Fatalf("%s: training burst %d labelled %d, ClusterBursts gives %d",
							name, i, training[i].Cluster, want[i].Cluster)
					}
				}
				tr := clf.Training
				if !reflect.DeepEqual(tr.Assign, res.Assign) || tr.K != res.K || tr.Eps != res.Eps ||
					tr.MinPts != res.MinPts || math.Float64bits(tr.Silhouette) != math.Float64bits(res.Silhouette) {
					t.Fatalf("%s: Training = K %d eps %g minPts %d sil %g, ClusterBursts gives K %d eps %g minPts %d sil %g",
						name, tr.K, tr.Eps, tr.MinPts, tr.Silhouette, res.K, res.Eps, res.MinPts, res.Silhouette)
				}

				ref := newRefClassifier(want, res.K)
				for i := n; i < len(kept); i++ {
					if got, exp := clf.Model.Classify(&kept[i]), ref.classify(&kept[i]); got != exp {
						t.Errorf("%s: burst %d classified %d, reference %d", name, i, got, exp)
					}
				}
				full := cluster.TrainModel(kept[:n], cfg)
				for i := range want {
					if want[i].Cluster != cluster.Noise {
						continue
					}
					dup := want[i]
					got, exp := clf.Model.Classify(&dup), ref.classify(&dup)
					if got != exp {
						t.Errorf("%s: copy of noise training burst %d classified %d, reference %d", name, i, got, exp)
					}
					if exp != cluster.Noise && full.Classify(&dup) == cluster.Noise {
						captured++
					}
				}
			}
		}
	}
	if captured == 0 {
		t.Fatal("no copy of a noise training burst is captured by a centroid; the compacted-model case went unchecked")
	}
	t.Logf("%d copies of noise training bursts captured by a centroid", captured)
}
