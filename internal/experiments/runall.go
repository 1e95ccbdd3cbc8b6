package experiments

import (
	"fmt"
	"sort"
)

// Experiment is a named experiment function.
type Experiment struct {
	ID   string
	Desc string
	Run  func(Env) (*Artifact, error)
}

// All returns every experiment in the reconstructed evaluation, in index
// order (T* and F* interleaved as in DESIGN.md).
func All() []Experiment {
	return []Experiment{
		{"F1", "burst scatter (duration × IPC) with cluster labels, per app", F1Clustering},
		{"T1", "clustering summary: clusters, time coverage, silhouette, purity", T1ClusterQuality},
		{"F2", "folded cumulative instruction curve vs fine-grain vs ground truth", F2FoldedCurves},
		{"F3", "instantaneous MIPS and L1-miss-rate evolution inside the stencil sweep", F3Rates},
		{"T2", "headline accuracy: folding vs fine grain < 5% absolute mean difference", T2Accuracy},
		{"T3", "runtime dilation of instrumentation / coarse sampling / fine sampling", T3Overhead},
		{"F4", "accuracy vs sampling period sweep", F4PeriodSweep},
		{"F5", "accuracy vs number of folded instances", F5InstanceSweep},
		{"F6", "call-stack folding: dominant source region per normalized-time bin", F6Callstack},
		{"T4", "ablation: fit model", T4FitAblation},
		{"T5", "ablation: instance outlier pruning under injected noise", T5PruneAblation},
		{"T6", "per-rank folding exposes load imbalance inside one cluster", T6Imbalance},
		{"T7", "extension: folding accuracy under injected measurement noise", T7NoiseSensitivity},
		{"F7", "extension: iteration-level folding (whole-iteration anatomy)", F7IterationFolding},
		{"F8", "extension: marker-free iteration detection (spectral) vs markers", F8SpectralDetection},
	}
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	var ids []string
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, ids)
}
