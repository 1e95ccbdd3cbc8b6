package cluster

import (
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/burst"
)

// Model is a clustering made first-class: the train-then-classify rule
// behind every classification, whether a coordinator trains once and
// broadcasts it so every shard classifies against the same phase
// definitions, a model saved from one trace classifies another, or the
// online path trains on an early window and classifies each later burst.
// It captures the effective DBSCAN parameters, the trained assignment as
// an exact raw-feature lookup (classifying a training burst returns its
// training label, bit for bit), and raw-space centroids as the
// generalization for bursts the training never saw. A Model serializes
// to stable JSON (Encode / DecodeModel).
type Model struct {
	// UseIPC records whether the third (IPC) feature dimension is active.
	UseIPC bool
	// K, Eps, MinPts, Silhouette and SilhouetteSample mirror the
	// training clustering's Result fields.
	K                int
	Eps              float64
	MinPts           int
	Silhouette       float64
	SilhouetteSample int
	// Training retains the training bursts with Cluster set, from which
	// the exact raw-feature lookup is built; Compact drops them.
	Training []burst.Burst
	// Centroids summarize each cluster in raw feature space for
	// classifying unseen bursts.
	Centroids []Centroid

	// index recalls the training label by raw feature vector. DBSCAN
	// gives equal points equal labels, so it returns every training
	// burst's label, and it depends on a burst's metrics alone, never on
	// where in which trace the burst lies.
	index map[[3]float64]int
}

// Centroid is one cluster's raw-feature-space summary.
type Centroid struct {
	// ID is the cluster id (1..K).
	ID int
	// Mean is the cluster's mean raw feature vector (log10 duration,
	// log10 instructions, IPC; the IPC slot is 0 when UseIPC is false).
	Mean [3]float64
	// Radius2 is the squared capture radius: the maximum squared distance
	// of a member from Mean, widened by a 2.25x slack factor.
	Radius2 float64
	// Count is the number of training bursts in the cluster.
	Count int
}

// centroidSlack widens each centroid's capture radius beyond its
// farthest training member, so near-miss bursts from other shards still
// land in the phase instead of degrading to noise.
const centroidSlack = 2.25

// rawFeature computes a burst's unnormalized feature vector — the same
// per-burst arithmetic as Features before min-max scaling, so it is a
// normalization-independent (and therefore shard-independent) key.
func rawFeature(b *burst.Burst, useIPC bool) [3]float64 {
	d := float64(b.Duration())
	if d < 1 {
		d = 1
	}
	ins := float64(b.Instructions())
	if ins < 1 {
		ins = 1
	}
	f := [3]float64{math.Log10(d), math.Log10(ins), 0}
	if useIPC {
		f[2] = b.IPC()
	}
	return f
}

// TrainModel clusters the given bursts (ClusterBursts on a private copy;
// the input is not mutated) and packages the outcome as a broadcastable
// Model.
func TrainModel(bursts []burst.Burst, cfg Config) *Model {
	train := append([]burst.Burst(nil), bursts...)
	res := ClusterBursts(train, cfg)
	m := &Model{
		UseIPC:           cfg.UseIPC,
		K:                res.K,
		Eps:              res.Eps,
		MinPts:           res.MinPts,
		Silhouette:       res.Silhouette,
		SilhouetteSample: res.SilhouetteSample,
		Training:         train,
	}
	m.buildCentroids()
	m.buildIndex()
	return m
}

// buildCentroids derives per-cluster raw-space means and capture radii
// from the training bursts.
func (m *Model) buildCentroids() {
	m.Centroids = nil
	if m.K == 0 {
		return
	}
	sums := make([][3]float64, m.K+1)
	counts := make([]int, m.K+1)
	for i := range m.Training {
		id := m.Training[i].Cluster
		if id <= 0 || id > m.K {
			continue
		}
		f := rawFeature(&m.Training[i], m.UseIPC)
		for d := 0; d < 3; d++ {
			sums[id][d] += f[d]
		}
		counts[id]++
	}
	for id := 1; id <= m.K; id++ {
		if counts[id] == 0 {
			continue
		}
		var c Centroid
		c.ID = id
		c.Count = counts[id]
		for d := 0; d < 3; d++ {
			c.Mean[d] = sums[id][d] / float64(counts[id])
		}
		m.Centroids = append(m.Centroids, c)
	}
	for i := range m.Training {
		id := m.Training[i].Cluster
		for ci := range m.Centroids {
			if m.Centroids[ci].ID != id {
				continue
			}
			f := rawFeature(&m.Training[i], m.UseIPC)
			if d2 := dist3(f, m.Centroids[ci].Mean); d2 > m.Centroids[ci].Radius2 {
				m.Centroids[ci].Radius2 = d2
			}
		}
	}
	for ci := range m.Centroids {
		m.Centroids[ci].Radius2 *= centroidSlack
	}
}

// buildIndex (re)builds the exact-recall lookup from Training. Equal
// feature vectors carry equal labels, so which duplicate is recorded
// does not matter.
func (m *Model) buildIndex() {
	m.index = nil
	if len(m.Training) == 0 {
		return
	}
	m.index = make(map[[3]float64]int, len(m.Training))
	for i := range m.Training {
		b := &m.Training[i]
		m.index[rawFeature(b, m.UseIPC)] = b.Cluster
	}
}

func dist3(a, b [3]float64) float64 {
	var s float64
	for d := 0; d < 3; d++ {
		diff := a[d] - b[d]
		s += diff * diff
	}
	return s
}

// CentroidDist2 returns the squared raw-feature-space distance between
// two centroid means.
func CentroidDist2(a, b Centroid) float64 { return dist3(a.Mean, b.Mean) }

// Classify maps a burst to a cluster id by its raw features alone: a
// burst with the same raw feature vector as a retained training burst
// returns that burst's training label exactly; otherwise the nearest
// centroid whose capture radius contains the burst wins (ties go to the
// lower id); otherwise Noise. It does not mutate the burst.
func (m *Model) Classify(b *burst.Burst) int {
	f := rawFeature(b, m.UseIPC)
	if id, ok := m.index[f]; ok {
		return id
	}
	best, bestD2 := Noise, math.Inf(1)
	for ci := range m.Centroids {
		d2 := dist3(f, m.Centroids[ci].Mean)
		if d2 <= m.Centroids[ci].Radius2 && d2 < bestD2 {
			best, bestD2 = m.Centroids[ci].ID, d2
		}
	}
	return best
}

// Result is the clustering the model stands for, labelled by assign:
// every other field mirrors the training clustering's Result.
func (m *Model) Result(assign []int) Result {
	return Result{
		Assign: assign, K: m.K, Eps: m.Eps, MinPts: m.MinPts,
		Silhouette: m.Silhouette, SilhouetteSample: m.SilhouetteSample,
	}
}

// Compact drops the retained training bursts (and with them the exact
// lookup), leaving only the centroid summary — the form to broadcast
// when the training set is large, and the online path's classifier. A
// compacted model classifies by its centroids alone, so a later burst
// that duplicates a training burst DBSCAN left as noise may still be
// captured by a centroid.
func (m *Model) Compact() {
	m.Training = nil
	m.index = nil
}

// Encode serializes the model to deterministic JSON. A NaN silhouette
// (fewer than 2 clusters) is encoded as a flag, since JSON has no NaN.
func (m *Model) Encode() ([]byte, error) {
	w := modelWire{
		UseIPC: m.UseIPC, K: m.K, Eps: m.Eps, MinPts: m.MinPts,
		Silhouette: m.Silhouette, SilhouetteSample: m.SilhouetteSample,
		Training: m.Training, Centroids: m.Centroids,
	}
	if math.IsNaN(w.Silhouette) {
		w.Silhouette, w.SilhouetteNaN = 0, true
	}
	return json.Marshal(w)
}

// DecodeModel deserializes a model produced by Encode and rebuilds its
// exact-match index.
func DecodeModel(data []byte) (*Model, error) {
	var w modelWire
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("cluster: decode model: %w", err)
	}
	m := &Model{
		UseIPC: w.UseIPC, K: w.K, Eps: w.Eps, MinPts: w.MinPts,
		Silhouette: w.Silhouette, SilhouetteSample: w.SilhouetteSample,
		Training: w.Training, Centroids: w.Centroids,
	}
	if w.SilhouetteNaN {
		m.Silhouette = math.NaN()
	}
	m.buildIndex()
	return m, nil
}

// modelWire is the stable serialized form of a Model.
type modelWire struct {
	UseIPC           bool
	K                int
	Eps              float64
	MinPts           int
	Silhouette       float64
	SilhouetteNaN    bool          `json:",omitempty"`
	SilhouetteSample int           `json:",omitempty"`
	Training         []burst.Burst `json:",omitempty"`
	Centroids        []Centroid    `json:",omitempty"`
}
