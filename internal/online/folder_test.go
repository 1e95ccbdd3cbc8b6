package online

import (
	"math/rand/v2"
	"sort"
	"testing"

	"repro/internal/counters"
	"repro/internal/folding"
	"repro/internal/trace"
)

// genStream generates instances of a phase with the given shape, one at a
// time (mirroring the folding package's generator but kept local so the
// streaming tests are self-contained).
func genStream(shape counters.Shape, n, samplesPer int, seed uint64) []folding.Instance {
	rng := rand.New(rand.NewPCG(seed, 5))
	const meanDur = 1_000_000
	const total = 10_000_000
	out := make([]folding.Instance, n)
	var clock trace.Time
	for i := range out {
		d := trace.Time(meanDur * (1 + 0.05*(2*rng.Float64()-1)))
		in := folding.Instance{Start: clock, End: clock + d}
		in.Totals[counters.TotIns] = total
		xs := make([]float64, samplesPer)
		for j := range xs {
			xs[j] = rng.Float64()
		}
		sort.Float64s(xs)
		for _, x := range xs {
			var s trace.Sample
			s.Time = in.Start + trace.Time(x*float64(d))
			s.Counters[counters.TotIns] = int64(float64(total)*shape.Integral(x) + 0.5)
			in.Samples = append(in.Samples, s)
		}
		out[i] = in
		clock += d
	}
	return out
}

func TestIncrementalFoldMatchesOffline(t *testing.T) {
	shape := counters.ExpDecay(3, 0.15)
	stream := genStream(shape, 500, 2, 9)

	f := NewFolder(counters.TotIns, 100)
	for i := range stream {
		f.Add(&stream[i])
	}
	snap, err := f.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if d := snap.MeanAbsDiff(shape); d > 0.02 {
		t.Fatalf("streaming fold diff = %.4f", d)
	}

	offline, err := folding.Fold(stream, folding.Config{Counter: counters.TotIns})
	if err != nil {
		t.Fatal(err)
	}
	if d := folding.MeanAbsDiffResults(snap, offline); d > 0.01 {
		t.Fatalf("streaming vs offline diff = %.4f", d)
	}
	if f.instances != 500 || f.points != 1000 {
		t.Fatalf("instances/points = %d/%d", f.instances, f.points)
	}
}

func TestSnapshotSharpensOverTime(t *testing.T) {
	shape := counters.Linear(0.4, 1.6)
	stream := genStream(shape, 400, 1, 3)
	f := NewFolder(counters.TotIns, 100)
	var early, late float64
	for i := range stream {
		f.Add(&stream[i])
		if i == 39 {
			snap, err := f.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			early = snap.MeanAbsDiff(shape)
		}
	}
	snap, err := f.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	late = snap.MeanAbsDiff(shape)
	if late > early {
		t.Fatalf("fold did not sharpen: early %.4f late %.4f", early, late)
	}
	if late > 0.02 {
		t.Fatalf("converged streaming fold diff = %.4f", late)
	}
}

func TestFolderPrunesRunningOutliers(t *testing.T) {
	stream := genStream(counters.Constant(), 200, 2, 6)
	// Stretch every 20th instance 5×, starting after the warmup.
	for i := 20; i < len(stream); i += 20 {
		stream[i].End = stream[i].Start + 5*stream[i].Duration()
	}
	f := NewFolder(counters.TotIns, 100)
	for i := range stream {
		f.Add(&stream[i])
	}
	if f.pruned == 0 {
		t.Fatal("no outliers pruned")
	}
	snap, err := f.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if d := snap.MeanAbsDiff(counters.Constant()); d > 0.02 {
		t.Fatalf("pruned streaming fold diff = %.4f", d)
	}
}

func TestFolderRejectsDegenerateInstances(t *testing.T) {
	f := NewFolder(counters.TotIns, 50)
	in := folding.Instance{Start: 10, End: 10} // zero duration
	if f.Add(&in) {
		t.Fatal("zero-duration instance accepted")
	}
	in2 := folding.Instance{Start: 0, End: 100} // zero total
	if f.Add(&in2) {
		t.Fatal("zero-total instance accepted")
	}
	if _, err := f.Snapshot(); err == nil {
		t.Fatal("empty snapshot succeeded")
	}
}

func TestFolderDefaults(t *testing.T) {
	f := NewFolder(counters.L1DCM, 0)
	if f.Bins != 100 {
		t.Fatalf("default bins = %d", f.Bins)
	}
}
