package core

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/deepeq"
	"repro/internal/sim"
)

// TestAnalyzeParallelDeterminism is the parallel engine's contract: the
// Report must be deep-equal whether the pipeline runs on one worker or
// many. Every fan-out in Analyze writes to pre-sized indexed slots and
// reduces in a fixed order, so this holds bitwise, not just
// approximately.
func TestAnalyzeParallelDeterminism(t *testing.T) {
	for _, name := range []string{"stencil", "cg"} {
		app, err := apps.ByName(name, 80)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := sim.Run(apps.DefaultTraceConfig(4), app)
		if err != nil {
			t.Fatal(err)
		}
		seq, err := Analyze(tr, Options{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{2, 8} {
			par, err := Analyze(tr, Options{Parallelism: p})
			if err != nil {
				t.Fatal(err)
			}
			normalizeReport(seq, par)
			if len(par.Phases) != len(seq.Phases) {
				t.Fatalf("%s p=%d: %d phases vs %d sequential", name, p, len(par.Phases), len(seq.Phases))
			}
			if d := deepeq.Diff(seq, par); d != "" {
				t.Fatalf("%s p=%d: parallel Report differs from sequential at %s", name, p, d)
			}
		}
	}
}

// normalizeReport clears the fields two equivalent Reports may
// legitimately disagree on before a deepeq.Diff comparison (NaN equal to
// NaN: fold bands and a degenerate silhouette are NaN by design): stage
// wall-clock times and byte counts (timing is not part of the analytical
// contract, and only a decoding source knows its encoded size).
func normalizeReport(a, b *Report) {
	for i := range a.Pipeline {
		a.Pipeline[i].Wall, a.Pipeline[i].Bytes = 0, 0
	}
	for i := range b.Pipeline {
		b.Pipeline[i].Wall, b.Pipeline[i].Bytes = 0, 0
	}
}

// TestAnalyzeParallelismDefault checks that the zero Options select
// GOMAXPROCS-wide parallelism without changing any analytical output
// (the default path IS the parallel path).
func TestAnalyzeParallelismDefault(t *testing.T) {
	var o Options
	o.setDefaults()
	if o.Parallelism < 1 {
		t.Fatalf("default parallelism = %d", o.Parallelism)
	}
	if o.Cluster.Parallelism != o.Parallelism {
		t.Fatalf("cluster parallelism %d not inherited from %d", o.Cluster.Parallelism, o.Parallelism)
	}
	// An explicit cluster override must survive setDefaults.
	o2 := Options{Parallelism: 4}
	o2.Cluster.Parallelism = 2
	o2.setDefaults()
	if o2.Cluster.Parallelism != 2 {
		t.Fatalf("explicit cluster parallelism overwritten: %d", o2.Cluster.Parallelism)
	}
}
