package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/burst"
	"repro/internal/cluster"
	"repro/internal/pipeline"
	"repro/internal/sim"
	"repro/internal/trace"
)

// simTrace builds a featured trace through the simulator — events,
// samples, and enough structure to cluster.
func simTrace(t *testing.T, name string, ranks, iters int) *trace.Trace {
	t.Helper()
	app, err := apps.ByName(name, iters)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sim.Run(apps.DefaultTraceConfig(ranks), app)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestAnalyzeStreamLenientSalvagesTruncation(t *testing.T) {
	tr := simTrace(t, "stencil", 4, 40)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	enc := buf.Bytes()
	cut := enc[:len(enc)*3/5]

	// Strict streaming must reject the truncated input.
	if _, err := AnalyzeStreamContext(context.Background(), bytes.NewReader(cut), Options{}); err == nil {
		t.Fatal("strict AnalyzeStream accepted a truncated trace")
	}

	// Lenient streaming salvages the prefix and reports the damage.
	rep, err := AnalyzeStreamContext(context.Background(), bytes.NewReader(cut), Options{Lenient: true})
	if err != nil {
		t.Fatalf("lenient AnalyzeStream: %v", err)
	}
	if !rep.Degraded {
		t.Error("salvaged report not marked Degraded")
	}
	if rep.Decode == nil {
		t.Fatal("salvaged report carries no DecodeStats")
	}
	if !rep.Decode.Truncated {
		t.Errorf("DecodeStats = %+v, want Truncated", rep.Decode)
	}
	if len(rep.Warnings) == 0 {
		t.Error("salvaged report carries no warnings")
	}
	if rep.Records.Events == 0 {
		t.Error("salvage kept no events at a 60% cut")
	}
	// The degraded report must still serialize (the daemon ships JSON).
	if _, err := json.Marshal(rep); err != nil {
		t.Fatalf("degraded report does not marshal: %v", err)
	}
}

// TestAnalyzeStreamTrailingBytes appends random bytes to a clean trace:
// a strict analysis fails on them, and a lenient one analyzes the trace
// and reports the skipped tail.
func TestAnalyzeStreamTrailingBytes(t *testing.T) {
	tr := simTrace(t, "stencil", 4, 40)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	clean := len(buf.Bytes())
	tail := make([]byte, 5000)
	rand.New(rand.NewSource(1)).Read(tail)
	enc := append(buf.Bytes(), tail...)

	_, err := AnalyzeStreamContext(context.Background(), bytes.NewReader(enc), Options{})
	if !errors.Is(err, trace.ErrBadFormat) || !strings.Contains(err.Error(), fmt.Sprintf("at byte %d", clean)) {
		t.Fatalf("strict analysis with a tail: error %v, want ErrBadFormat at byte %d", err, clean)
	}
	rep, err := AnalyzeStreamContext(context.Background(), bytes.NewReader(enc), Options{Lenient: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Degraded || rep.Decode == nil || rep.Decode.TrailingBytes != 5000 ||
		!slices.Contains(rep.Warnings, "salvage decode: skipped 5000 trailing bytes after the comm section") {
		t.Fatalf("lenient analysis with a tail: degraded %v, decode %+v, warnings %q",
			rep.Degraded, rep.Decode, rep.Warnings)
	}
}

func TestAnalyzeStreamLenientCleanInputNotDegraded(t *testing.T) {
	tr := simTrace(t, "stencil", 2, 20)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	rep, err := AnalyzeStreamContext(context.Background(), &buf, Options{Lenient: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Degraded {
		t.Fatalf("clean input marked Degraded: %v", rep.Warnings)
	}
	if rep.Decode == nil {
		t.Fatal("lenient run should still report DecodeStats")
	}
	if rep.Decode.Dropped() != 0 || rep.Decode.Truncated {
		t.Fatalf("clean input reported damage: %+v", rep.Decode)
	}
}

func TestAnalyzeLenientToleratesInvalidTrace(t *testing.T) {
	tr := simTrace(t, "stencil", 2, 20)
	// Shrink the recorded duration below the last event so Validate
	// fails, while the records themselves stay analyzable.
	tr.Meta.Duration = tr.Events[len(tr.Events)-1].Time - 1

	if _, err := AnalyzeContext(context.Background(), tr, Options{}); err == nil {
		t.Fatal("strict Analyze accepted an invalid trace")
	}
	rep, err := AnalyzeContext(context.Background(), tr, Options{Lenient: true})
	if err != nil {
		t.Fatalf("lenient Analyze: %v", err)
	}
	if !rep.Degraded {
		t.Error("report not marked Degraded after tolerated validation failure")
	}
	found := false
	for _, w := range rep.Warnings {
		if strings.Contains(w, "failed validation") {
			found = true
		}
	}
	if !found {
		t.Errorf("warnings lack the validation concession: %v", rep.Warnings)
	}
}

func TestAnalyzeLenientClusteringFallback(t *testing.T) {
	tr := simTrace(t, "stencil", 2, 30)
	// MinPts far above the burst count degenerates DBSCAN to zero
	// clusters; strict mode reports zero phases, lenient mode falls back
	// to a duration-quantile split.
	opts := Options{Cluster: cluster.Config{MinPts: 1 << 20}}
	strict, err := AnalyzeContext(context.Background(), tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	if strict.Clustering.K != 0 || len(strict.Phases) != 0 {
		t.Fatalf("strict run found %d clusters, want 0", strict.Clustering.K)
	}

	opts.Lenient = true
	rep, err := AnalyzeContext(context.Background(), tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clustering.K == 0 {
		t.Fatal("lenient run did not fall back to quantile clustering")
	}
	if len(rep.Phases) == 0 {
		t.Fatal("fallback clustering produced no phases")
	}
	if !rep.Degraded {
		t.Error("fallback report not marked Degraded")
	}
	found := false
	for _, w := range rep.Warnings {
		if strings.Contains(w, "duration-quantile") {
			found = true
		}
	}
	if !found {
		t.Errorf("warnings lack the fallback concession: %v", rep.Warnings)
	}
	if _, err := json.Marshal(rep); err != nil {
		t.Fatalf("fallback report does not marshal: %v", err)
	}
}

// TestAssembleIsolatesPhasePanic runs Reduce's phase fan-out over a
// pooled partial of each kind whose second cluster holds a burst with a
// rank outside the metadata's range: aggregatePhase indexes a per-rank
// slice with it and panics. The panic must stay confined to that
// phase's slot.
func TestAssembleIsolatesPhasePanic(t *testing.T) {
	kept := []burst.Burst{
		{Rank: 0, Start: 0, End: 1000, Cluster: 1},
		{Rank: 0, Start: 2000, End: 3000, Cluster: 1},
		{Rank: 5, Start: 4000, End: 5000, Cluster: 2}, // out of range for Ranks=1
	}
	meta := trace.Metadata{App: "synthetic", Ranks: 1, Duration: 10000}
	for _, all := range []*Partial{
		{Meta: meta, Kept: kept, Attached: make([][]trace.Sample, len(kept))},
		{Meta: meta, Kept: kept, Online: true, OnlinePhases: []pipeline.PhaseFolds{{ClusterID: 1}, {ClusterID: 2}}},
	} {
		name := "exact"
		if all.Online {
			name = "online"
		}
		t.Run(name, func(t *testing.T) {
			opts := Options{}
			opts.setDefaults()
			rep := &Report{Meta: meta, Online: all.Online, Clustering: cluster.Result{K: 2, Assign: []int{1, 1, 2}}}
			analyzePhases(rep, all, opts)
			if len(rep.Phases) != 2 {
				t.Fatalf("phases = %d, want 2", len(rep.Phases))
			}
			if rep.Phases[0].Instances != 2 {
				t.Errorf("healthy phase damaged: %+v", rep.Phases[0])
			}
			for _, w := range rep.Phases[0].Warnings {
				if strings.Contains(w, "analysis failed") {
					t.Errorf("healthy phase marked failed: %v", rep.Phases[0].Warnings)
				}
			}
			bad := rep.Phases[1]
			if bad.ClusterID != 2 {
				t.Errorf("failed phase ClusterID = %d, want 2", bad.ClusterID)
			}
			if len(bad.Warnings) == 0 {
				t.Error("failed phase carries no warning")
			}
			if !rep.Degraded {
				t.Error("report with a panicked phase not marked Degraded")
			}
			found := false
			for _, w := range rep.Warnings {
				if strings.Contains(w, "phase 2") {
					found = true
				}
			}
			if !found {
				t.Errorf("report warnings do not name the failed phase: %v", rep.Warnings)
			}
		})
	}
}

func TestPhaseWarningsIncludeFoldErrors(t *testing.T) {
	// nbody's integrate phase has a counter that never ticks; its fold
	// failure must surface as a phase warning without degrading the
	// report.
	rep := analyzeApp(t, "nbody", 80)
	var integ *Phase
	for i := range rep.Phases {
		if rep.Phases[i].MajorityOracle == 4 {
			integ = &rep.Phases[i]
		}
	}
	if integ == nil {
		t.Skip("integrate phase not among analyzed clusters")
	}
	if len(integ.FoldErrors) == 0 {
		t.Skip("no fold errors in integrate phase")
	}
	if len(integ.Warnings) == 0 {
		t.Error("fold errors not mirrored into phase warnings")
	}
	if rep.Degraded {
		t.Error("fold-fit failures alone must not degrade the report")
	}
}
