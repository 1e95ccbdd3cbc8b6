package cluster

import (
	"testing"

	"repro/internal/burst"
	"repro/internal/sim"
)

// TestModelClassifiesByMetricsAlone is the time-shift metamorphic
// property of Model.Classify: a burst's label depends on its duration,
// instructions and IPC, never on when or on which rank it ran. A model
// trained on stencil classifies other runs of stencil and runs of the
// other apps, as fold -model-in does; shifting every classified burst by
// one constant time must leave each label unchanged. Every training
// burst must classify to its training label.
func TestModelClassifiesByMetricsAlone(t *testing.T) {
	cfg := Config{UseIPC: true}
	train := digestBursts(t, "stencil", 4, 60, 1, sim.PerturbConfig{})
	m := TrainModel(train, cfg)
	if m.K < 2 {
		t.Fatalf("model K = %d, want >= 2", m.K)
	}
	labelled := append([]burst.Burst(nil), train...)
	ClusterBursts(labelled, cfg)
	for i := range labelled {
		if got := m.Classify(&labelled[i]); got != labelled[i].Cluster {
			t.Fatalf("training burst %d classified %d, trained as %d", i, got, labelled[i].Cluster)
		}
	}

	const shift = 7_919 // ns
	runs := []struct {
		name, app string
		seed      uint64
		perturb   sim.PerturbConfig
	}{
		{"stencil/seed1", "stencil", 1, sim.PerturbConfig{}},
		{"stencil/seed2", "stencil", 2, sim.PerturbConfig{}},
		{"stencil/perturbed", "stencil", 1, sim.PerturbConfig{Factor: 3, Fraction: 0.3, At: 0.5, Seed: 7}},
		{"nbody", "nbody", 1, sim.PerturbConfig{}},
		{"cg", "cg", 1, sim.PerturbConfig{}},
		{"wavefront", "wavefront", 1, sim.PerturbConfig{}},
	}
	for _, r := range runs {
		bursts := digestBursts(t, r.app, 4, 60, r.seed, r.perturb)
		for i := range bursts {
			b := bursts[i]
			want := m.Classify(&b)
			b.Start += shift
			b.End += shift
			if got := m.Classify(&b); got != want {
				t.Errorf("%s burst %d (rank %d, start %d): label %d, but %d after a %d ns shift",
					r.name, i, bursts[i].Rank, bursts[i].Start, want, got, shift)
			}
		}
	}
}
