package online

import (
	"strings"
	"testing"

	"repro/internal/burst"
	"repro/internal/cluster"
	"repro/internal/counters"
	"repro/internal/folding"
	"repro/internal/trace"
)

// TestFolderSingleSampleBinMerge is the bin-merge edge case: with exactly
// one sample per instance, no single instance could ever be folded alone
// (four points are needed), so the snapshot only exists because samples
// from different instances merge into shared bins.
func TestFolderSingleSampleBinMerge(t *testing.T) {
	shape := counters.Linear(0.4, 1.6)
	stream := genStream(shape, 400, 1, 11)
	f := NewFolder(counters.TotIns, 100)
	for i := range stream {
		f.Add(&stream[i])
	}
	if f.instances != 400 || f.points != 400 {
		t.Fatalf("instances/points = %d/%d, want 400/400", f.instances, f.points)
	}
	snap, err := f.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(snap.Cumulative); i++ {
		if snap.Cumulative[i] < snap.Cumulative[i-1] {
			t.Fatalf("cumulative not monotone at bin %d: %.6f < %.6f",
				i, snap.Cumulative[i], snap.Cumulative[i-1])
		}
	}
	if d := snap.MeanAbsDiff(shape); d > 0.03 {
		t.Fatalf("single-sample fold diff = %.4f", d)
	}
}

// TestFolderSingleBinOccupied pushes bin-merge to its degenerate limit:
// every sample lands at the same normalized position, so all points merge
// into one bin and the fit has to interpolate from that bin plus the
// implicit (0,0) and (1,1) anchors.
func TestFolderSingleBinOccupied(t *testing.T) {
	f := NewFolder(counters.TotIns, 100)
	for i := 0; i < 10; i++ {
		in := folding.Instance{
			Start: trace.Time(i) * 2_000_000,
			End:   trace.Time(i)*2_000_000 + 1_000_000,
		}
		in.Totals[counters.TotIns] = 1_000_000
		var s trace.Sample
		s.Time = in.Start + 500_000 // x = 0.5 in every instance
		s.Counters[counters.TotIns] = 500_000
		in.Samples = append(in.Samples, s)
		if !f.Add(&in) {
			t.Fatalf("instance %d rejected", i)
		}
	}
	if f.points != 10 {
		t.Fatalf("points = %d, want 10", f.points)
	}
	snap, err := f.Snapshot()
	if err != nil {
		t.Fatalf("single-bin snapshot failed: %v", err)
	}
	mid := snap.Cumulative[len(snap.Cumulative)/2]
	if mid < 0.45 || mid > 0.55 {
		t.Fatalf("cumulative at x=0.5 is %.4f, want ≈0.5", mid)
	}
	for i := 1; i < len(snap.Cumulative); i++ {
		if snap.Cumulative[i] < snap.Cumulative[i-1] {
			t.Fatalf("cumulative not monotone at bin %d", i)
		}
	}
}

// identicalBursts builds n byte-identical bursts laid out back to back so
// the training cloud of their cluster has zero extent.
func identicalBursts(n int, dur trace.Time, ins, cyc int64, clock *trace.Time) []burst.Burst {
	out := make([]burst.Burst, n)
	for i := range out {
		out[i].Start = *clock
		out[i].End = *clock + dur
		out[i].Delta[counters.TotIns] = ins
		out[i].Delta[counters.TotCyc] = cyc
		*clock += 2 * dur
	}
	return out
}

// TestClassifierZeroRadiusCentroid trains on two phases whose members are
// all identical, so each centroid's acceptance radius collapses to zero:
// an exact repeat must still classify into its phase (distance 0 is
// within a zero radius), while anything else — even between the two
// centroids — must be noise.
func TestClassifierZeroRadiusCentroid(t *testing.T) {
	var clock trace.Time
	a := identicalBursts(10, 1_000_000, 4_000_000, 2_000_000, &clock)
	b := identicalBursts(10, 8_000_000, 8_000_000, 8_000_000, &clock)
	training := append(append([]burst.Burst{}, a...), b...)

	clf, err := Train(training, cluster.Config{Eps: 0.05, MinPts: 3, UseIPC: true})
	if err != nil {
		t.Fatal(err)
	}
	if clf.Training.K != 2 {
		t.Fatalf("training found K=%d, want 2", clf.Training.K)
	}

	repeat := a[0] // identical to phase A's members
	repeat.Cluster = 0
	if got := clf.Model.Classify(&repeat); got != training[0].Cluster {
		t.Fatalf("exact repeat classified as %d, want phase %d", got, training[0].Cluster)
	}
	// Slightly longer than phase A: outside a zero radius.
	near := a[0]
	near.End = near.Start + 1_500_000
	if got := clf.Model.Classify(&near); got != cluster.Noise {
		t.Fatalf("perturbed burst classified as %d, want noise", got)
	}
	// Between the two centroids: within neither zero radius.
	mid := burst.Burst{Start: 0, End: 3_000_000}
	mid.Delta[counters.TotIns] = 6_000_000
	mid.Delta[counters.TotCyc] = 4_000_000
	if got := clf.Model.Classify(&mid); got != cluster.Noise {
		t.Fatalf("midway burst classified as %d, want noise", got)
	}
}

// TestEmptyPhaseFolders pins the empty-phase behavior the streaming
// pipeline relies on: a classified phase that never receives an instance
// must yield a clean Snapshot error from the counter folder, not a panic
// or a bogus curve.
func TestEmptyPhaseFolders(t *testing.T) {
	f := NewFolder(counters.TotIns, 50)
	if _, err := f.Snapshot(); err == nil {
		t.Fatal("empty Folder snapshot succeeded")
	} else if !strings.Contains(err.Error(), "0 folded points") {
		t.Fatalf("empty snapshot error = %v", err)
	}
}

// TestNewFolderConfig checks the config unification: the offline
// folding.Config drives the incremental folder, with zero values falling
// back to the online defaults.
func TestNewFolderConfig(t *testing.T) {
	f := NewFolderConfig(counters.L2DCM, folding.Config{Bins: 64, PruneK: 2.5})
	if f.Counter != counters.L2DCM || f.Bins != 64 || f.PruneK != 2.5 {
		t.Fatalf("configured folder = %+v", f)
	}
	f = NewFolderConfig(counters.TotIns, folding.Config{})
	if f.Bins != 100 || f.PruneK != 4 {
		t.Fatalf("default folder bins/pruneK = %d/%.1f, want 100/4", f.Bins, f.PruneK)
	}
}
