// Package online provides the streaming counterpart of the offline
// pipeline: Train learns the application's phases from a training
// prefix as a cluster.Model compacted to its centroids, against which
// each later burst is classified as it arrives, and Folder accumulates
// folded samples into fixed-size bins so a run of any length needs only
// O(bins) memory per phase (folding.StackFolder does the same for call
// stacks). Together they enable the on-line use of the methodology this
// research group pursued next — deciding *during* the run which phases
// matter and how much detail to keep — instead of post-mortem analysis
// of a full trace.
package online

import (
	"fmt"

	"repro/internal/burst"
	"repro/internal/cluster"
)

// Classifier is a trained training prefix: the model later bursts are
// classified against, and the clustering it was trained from.
type Classifier struct {
	// Training is the offline clustering of the training prefix the
	// model was compressed from (Features is not filled); streaming
	// consumers report its K, eps and quality metrics since no full-set
	// clustering ever exists.
	Training cluster.Result
	// Model classifies each later burst (Model.Classify). It is
	// compacted, so a burst is labelled by the centroids alone.
	Model *cluster.Model
}

// Train clusters the training bursts offline with cluster.TrainModel and
// compacts the model to its centroids: per-cluster raw-space means with
// capture radii (the farthest member's squared distance, widened 2.25×).
// The training slice's Cluster fields are set as a side effect.
func Train(training []burst.Burst, cfg cluster.Config) (*Classifier, error) {
	if len(training) == 0 {
		return nil, fmt.Errorf("online: empty training set")
	}
	m := cluster.TrainModel(training, cfg)
	assign := make([]int, len(training))
	for i := range training {
		assign[i] = m.Training[i].Cluster
		training[i].Cluster = assign[i]
	}
	if m.K == 0 {
		return nil, fmt.Errorf("online: training found no clusters")
	}
	c := &Classifier{
		Training: m.Result(assign),
		Model:    m,
	}
	m.Compact()
	return c, nil
}
