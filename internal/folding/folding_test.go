package folding

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"sort"
	"testing"

	"repro/internal/burst"
	"repro/internal/counters"
	"repro/internal/deepeq"
	"repro/internal/fit"
	"repro/internal/stats"
	"repro/internal/trace"
)

// genInstances synthesizes instances of a phase whose TotIns counter
// follows the given shape. Each instance gets samplesPer samples at
// uniform-random positions (emulating a sampling clock uncorrelated with
// phase starts). durNoise is the relative spread of instance durations.
func genInstances(shape counters.Shape, n, samplesPer int, durNoise float64, seed uint64) []Instance {
	rng := rand.New(rand.NewPCG(seed, 17))
	const meanDur = 1_000_000 // 1 ms
	const total = 10_000_000  // 10M instructions
	out := make([]Instance, n)
	var clock trace.Time
	for i := range out {
		d := trace.Time(meanDur * (1 + durNoise*(2*rng.Float64()-1)))
		in := Instance{
			Rank:  int32(i % 4),
			Start: clock,
			End:   clock + d,
		}
		in.Totals[counters.TotIns] = total
		in.Totals[counters.TotCyc] = int64(2 * float64(d))
		xs := make([]float64, samplesPer)
		for j := range xs {
			xs[j] = rng.Float64()
		}
		sort.Float64s(xs)
		for _, x := range xs {
			var s trace.Sample
			s.Rank = in.Rank
			s.Time = in.Start + trace.Time(x*float64(d))
			s.Counters[counters.TotIns] = in.Base[counters.TotIns] + int64(float64(total)*shape.Integral(x)+0.5)
			s.Counters[counters.TotCyc] = int64(2 * float64(s.Time))
			in.Samples = append(in.Samples, s)
		}
		out[i] = in
		clock += d + trace.Time(rng.IntN(10_000))
	}
	return out
}

func testShapes() map[string]counters.Shape {
	return map[string]counters.Shape{
		"constant": counters.Constant(),
		"linear":   counters.Linear(0.4, 1.6),
		"expdecay": counters.ExpDecay(3, 0.15),
		"piecewise": counters.Piecewise(
			counters.Segment{Width: 0.4, Area: 0.7},
			counters.Segment{Width: 0.6, Area: 0.3},
		),
	}
}

func TestFoldReconstructsShapes(t *testing.T) {
	for name, shape := range testShapes() {
		for _, model := range []Model{ModelBinnedPCHIP, ModelKernel, ModelBinned} {
			instances := genInstances(shape, 400, 2, 0.05, 42)
			res, err := Fold(instances, Config{Counter: counters.TotIns, Model: model})
			if err != nil {
				t.Fatalf("%s/%s: %v", name, model, err)
			}
			if d := res.MeanAbsDiff(shape); d > 0.02 {
				t.Errorf("%s/%s: mean abs diff = %.4f, want < 0.02", name, model, d)
			}
		}
	}
}

func TestFoldHeadlineUnderFivePercent(t *testing.T) {
	// The paper's headline claim: folding from coarse sampling differs
	// from the reference by < 5% absolute mean difference. Use sparse
	// sampling (1 sample/instance on average, including instances with 0).
	shape := counters.ExpDecay(2.5, 0.2)
	rng := rand.New(rand.NewPCG(7, 7))
	instances := genInstances(shape, 300, 1, 0.08, 11)
	// Randomly drop samples from ~40% of instances to emulate a period
	// longer than the phase.
	for i := range instances {
		if rng.Float64() < 0.4 {
			instances[i].Samples = nil
		}
	}
	res, err := Fold(instances, Config{Counter: counters.TotIns})
	if err != nil {
		t.Fatal(err)
	}
	if d := res.MeanAbsDiff(shape); d > 0.05 {
		t.Fatalf("mean abs diff = %.4f, want < 0.05", d)
	}
}

func TestFoldCumulativeInvariants(t *testing.T) {
	for name, shape := range testShapes() {
		instances := genInstances(shape, 150, 2, 0.1, 5)
		res, err := Fold(instances, Config{Counter: counters.TotIns})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Cumulative[0] != 0 || res.Cumulative[len(res.Cumulative)-1] != 1 {
			t.Fatalf("%s: endpoints = %g, %g", name, res.Cumulative[0], res.Cumulative[len(res.Cumulative)-1])
		}
		for i := 1; i < len(res.Cumulative); i++ {
			if res.Cumulative[i] < res.Cumulative[i-1] {
				t.Fatalf("%s: cumulative not monotone at %d", name, i)
			}
		}
		for i, r := range res.Rate {
			if r < -1e-9 {
				t.Fatalf("%s: negative rate %g at %d", name, r, i)
			}
		}
		if len(res.Grid) != 101 {
			t.Fatalf("%s: grid len = %d", name, len(res.Grid))
		}
	}
}

func TestFoldRateScale(t *testing.T) {
	instances := genInstances(counters.Constant(), 300, 2, 0, 3)
	res, err := Fold(instances, Config{Counter: counters.TotIns})
	if err != nil {
		t.Fatal(err)
	}
	want := res.MeanTotal / res.MeanDuration // counts per ns
	for i, r := range res.Rate {
		x := res.Grid[i]
		if x < 0.05 || x > 0.95 {
			continue // endpoints have one-sided derivative error
		}
		if math.Abs(r-want) > 0.05*want {
			t.Fatalf("rate at %.2f = %g, want ≈ %g", x, r, want)
		}
	}
	// MeanTotal/MeanDuration should match the generator: 10M ins / 1ms =
	// 10 ins/ns.
	if math.Abs(want-10) > 0.5 {
		t.Fatalf("rate scale = %g, want ≈ 10", want)
	}
}

func TestFoldErrors(t *testing.T) {
	if _, err := Fold(nil, Config{}); !errors.Is(err, ErrNoInstances) {
		t.Fatalf("err = %v", err)
	}
	// Counter with no signal.
	instances := genInstances(counters.Constant(), 50, 2, 0, 1)
	if _, err := Fold(instances, Config{Counter: counters.FPOps}); !errors.Is(err, ErrNoSignal) {
		t.Fatalf("err = %v", err)
	}
	// Too few samples.
	few := genInstances(counters.Constant(), 3, 1, 0, 1)
	for i := range few {
		few[i].Samples = few[i].Samples[:0]
	}
	if _, err := Fold(few, Config{Counter: counters.TotIns}); !errors.Is(err, ErrTooFew) {
		t.Fatalf("err = %v", err)
	}
}

// keptCount counts the set entries of a keep mask.
func keptCount(keep []bool) int {
	n := 0
	for _, k := range keep {
		if k {
			n++
		}
	}
	return n
}

func TestPruneInstancesDropsOutliers(t *testing.T) {
	shape := counters.Linear(0.5, 1.5)
	instances := genInstances(shape, 200, 2, 0.02, 9)
	// Corrupt 10 instances with 5× duration (e.g. OS noise hit).
	for i := 0; i < 10; i++ {
		instances[i].End = instances[i].Start + 5*instances[i].Duration()
	}
	keep, pruned := newPhaseCloud(instances, 3).keepMask(counters.TotIns)
	if pruned != 10 {
		t.Fatalf("pruned = %d, want 10", pruned)
	}
	if n := keptCount(keep); n != 190 {
		t.Fatalf("kept = %d", n)
	}
	for i := 0; i < 10; i++ {
		if keep[i] {
			t.Fatalf("corrupted instance %d kept", i)
		}
	}
	// Folding with pruning must beat folding without.
	resPruned, err := Fold(instances, Config{Counter: counters.TotIns, PruneK: 3})
	if err != nil {
		t.Fatal(err)
	}
	resRaw, err := Fold(instances, Config{Counter: counters.TotIns, PruneK: -1})
	if err != nil {
		t.Fatal(err)
	}
	if resPruned.Pruned != 10 || resRaw.Pruned != 0 {
		t.Fatalf("Pruned fields = %d, %d", resPruned.Pruned, resRaw.Pruned)
	}
	dp, dr := resPruned.MeanAbsDiff(shape), resRaw.MeanAbsDiff(shape)
	if dp >= dr {
		t.Fatalf("pruning did not help: %.4f vs %.4f", dp, dr)
	}
}

func TestPruneInstancesSmallSetsUntouched(t *testing.T) {
	instances := genInstances(counters.Constant(), 3, 1, 0.5, 2)
	keep, pruned := newPhaseCloud(instances, 3).keepMask(counters.TotIns)
	if pruned != 0 || keptCount(keep) != 3 {
		t.Fatal("small instance sets must not be pruned")
	}
}

// refFold is the per-counter fold FoldCounters replaced, kept as its
// equivalence oracle: prune by copying the kept instances, append their
// samples in instance order, stable-sort the cloud by x, then fit.
func refFold(instances []Instance, cfg Config) (*Result, error) {
	cfg.setDefaults()
	if len(instances) == 0 {
		return nil, ErrNoInstances
	}
	c := cfg.Counter
	kept, pruned := refPrune(instances, cfg.PruneK, c)
	if len(kept) == 0 {
		kept, pruned = instances, 0
	}
	res := &Result{Counter: c, Instances: len(kept), Pruned: pruned}
	var durSum, totSum float64
	for i := range kept {
		durSum += float64(kept[i].Duration())
		totSum += float64(kept[i].Totals[c])
	}
	res.MeanDuration = durSum / float64(len(kept))
	res.MeanTotal = totSum / float64(len(kept))
	if res.MeanTotal <= 0 {
		return nil, fmt.Errorf("%w (%s)", ErrNoSignal, c)
	}
	for i := range kept {
		in := &kept[i]
		d := float64(in.Duration())
		tot := float64(in.Totals[c])
		if d <= 0 || tot <= 0 {
			continue
		}
		for _, s := range in.Samples {
			x := float64(s.Time-in.Start) / d
			y := float64(s.Counters[c]-in.Base[c]) / tot
			if x < 0 || x > 1 || math.IsNaN(y) {
				continue
			}
			if y < 0 {
				y = 0
			}
			if y > 1 {
				y = 1
			}
			res.Points = append(res.Points, fit.Point{X: x, Y: y, W: 1})
		}
	}
	if len(res.Points) < 4 {
		return nil, fmt.Errorf("%w: %d folded points", ErrTooFew, len(res.Points))
	}
	sort.SliceStable(res.Points, func(i, j int) bool { return res.Points[i].X < res.Points[j].X })
	if err := fitCloud(res, cfg); err != nil {
		return nil, err
	}
	res.ComputeBands()
	return res, nil
}

// refPrune drops instances whose duration or counter-c total is more
// than k·MAD from the median, copying the survivors.
func refPrune(instances []Instance, k float64, c counters.Counter) (kept []Instance, pruned int) {
	if k < 0 || len(instances) < 4 {
		return instances, 0
	}
	durs := make([]float64, len(instances))
	tots := make([]float64, len(instances))
	for i := range instances {
		durs[i] = float64(instances[i].Duration())
		tots[i] = float64(instances[i].Totals[c])
	}
	dMed, dMAD := stats.Median(durs), stats.MAD(durs)
	tMed, tMAD := stats.Median(tots), stats.MAD(tots)
	dScale := math.Max(dMAD, 0.001*math.Abs(dMed))
	tScale := math.Max(tMAD, 0.001*math.Abs(tMed))
	for i := range instances {
		if math.Abs(durs[i]-dMed) > k*dScale || math.Abs(tots[i]-tMed) > k*tScale {
			pruned++
			continue
		}
		kept = append(kept, instances[i])
	}
	return kept, pruned
}

// equivInstances builds a phase that exercises every branch of the
// fold's point selection. Every fourth instance has the same duration
// and sample offsets as the others of its kind, two of them equal, so
// x values tie across and within instances;
// instance 1 is an L1DCM outlier only; every fifth instance has zero
// duration; L2DCM never counts in every third instance; FP_OPS never
// counts at all; and some samples fall outside their instance or below
// its base.
func equivInstances(n int, seed uint64) []Instance {
	rng := rand.New(rand.NewPCG(seed, 99))
	out := make([]Instance, n)
	var clock trace.Time
	for i := range out {
		d := trace.Time(800_000 + rng.IntN(400_000))
		offsets := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		if i%4 == 0 {
			d = 1_000_000
			offsets = []float64{0, 0.25, 0.5, 0.5, 0.75, 1}
		}
		if i%5 == 0 {
			d = 0
		}
		sort.Float64s(offsets)
		in := Instance{Rank: int32(i % 3), Start: clock, End: clock + d}
		for c := range in.Base {
			in.Base[c] = int64(1000 * (i + c))
		}
		in.Totals[counters.TotIns] = int64(9_000_000 + rng.IntN(2_000_000))
		in.Totals[counters.TotCyc] = int64(2 * float64(d))
		in.Totals[counters.L1DCM] = int64(40_000 + rng.IntN(2_000))
		if i == 1 {
			in.Totals[counters.L1DCM] *= 100
		}
		if i%3 != 0 {
			in.Totals[counters.L2DCM] = int64(5_000 + rng.IntN(500))
		}
		for j, x := range offsets {
			var s trace.Sample
			s.Rank = in.Rank
			s.Time = in.Start + trace.Time(x*float64(d))
			for c := range s.Counters {
				s.Counters[c] = in.Base[c] + int64(rng.Float64()*x*float64(in.Totals[c]))
			}
			if j == 0 && i%7 == 3 {
				s.Counters[counters.TotIns] = in.Base[counters.TotIns] - 10 // below base: y < 0
			}
			in.Samples = append(in.Samples, s)
		}
		if i%6 == 2 {
			// Stray samples just outside the instance: x < 0 and x > 1.
			var before, after trace.Sample
			before.Time, after.Time = in.Start-1, in.End+1
			in.Samples = append([]trace.Sample{before}, append(in.Samples, after)...)
		}
		out[i] = in
		clock += d + 5_000
	}
	return out
}

// TestFoldCountersMatchesPerCounterReference pins FoldCounters to the
// per-counter prune → append → stable-sort fold it replaced: the
// Results, point clouds included, must be deep-equal and the errors
// identical, for every model, pruning setting and worker count.
func TestFoldCountersMatchesPerCounterReference(t *testing.T) {
	cs := counters.All()
	var ties []Instance // only the equal-duration, equal-offset instances
	for _, in := range equivInstances(160, 5) {
		if in.Duration() == 1_000_000 {
			ties = append(ties, in)
		}
	}
	inputs := map[string][]Instance{
		"mixed":     equivInstances(120, 1),
		"ties":      ties,
		"small":     equivInstances(3, 2),
		"one":       equivInstances(1, 4),
		"empty":     nil,
		"too_few":   genInstances(counters.Constant(), 3, 1, 0, 1),
		"realistic": genInstances(counters.ExpDecay(3, 0.2), 200, 3, 0.05, 4),
	}
	var sawNoSignal, sawTooFew, sawPrunedOne bool
	for name, instances := range inputs {
		for _, model := range []Model{ModelBinnedPCHIP, ModelKernel, ModelBinned} {
			for _, k := range []float64{0, -1, 1e-9} { // default, off, prunes everything
				cfg := Config{Model: model, PruneK: k}
				for _, p := range []int{1, 4} {
					got, errs := FoldCounters(instances, cfg, cs, p)
					if len(got) != len(cs) || len(errs) != len(cs) {
						t.Fatalf("%s: %d results, %d errors for %d counters", name, len(got), len(errs), len(cs))
					}
					pruned := map[counters.Counter]int{}
					for i, c := range cs {
						rc := cfg
						rc.Counter = c
						want, wantErr := refFold(instances, rc)
						where := fmt.Sprintf("%s/%s/k=%g/p=%d/%s", name, model, k, p, c)
						if wantErr != nil {
							if errs[i] == nil || errs[i].Error() != wantErr.Error() || got[i] != nil {
								t.Fatalf("%s: got (%v, %v), want error %v", where, got[i], errs[i], wantErr)
							}
							sawNoSignal = sawNoSignal || errors.Is(wantErr, ErrNoSignal)
							sawTooFew = sawTooFew || errors.Is(wantErr, ErrTooFew)
							continue
						}
						if errs[i] != nil {
							t.Fatalf("%s: unexpected error %v", where, errs[i])
						}
						if d := deepeq.Diff(got[i], want); d != "" {
							t.Fatalf("%s: FoldCounters result differs from the reference fold at %s", where, d)
						}
						pruned[c] = want.Pruned
					}
					sawPrunedOne = sawPrunedOne || pruned[counters.L1DCM] > pruned[counters.TotIns]
				}
			}
		}
	}
	if !sawNoSignal || !sawPrunedOne || !sawTooFew {
		t.Fatalf("inputs missed a branch: no-signal %v, single-counter prune %v, too-few %v",
			sawNoSignal, sawPrunedOne, sawTooFew)
	}
}

func TestFoldDetectsSubphaseBreakpoints(t *testing.T) {
	// 40% of the time carries 80% of the instructions: sharp rate change
	// at x = 0.4.
	shape := counters.Piecewise(
		counters.Segment{Width: 0.4, Area: 0.8},
		counters.Segment{Width: 0.6, Area: 0.2},
	)
	instances := genInstances(shape, 600, 3, 0.03, 21)
	res, err := Fold(instances, Config{Counter: counters.TotIns})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Breakpoints) == 0 {
		t.Fatal("no breakpoints detected")
	}
	best := res.Breakpoints[0]
	for _, b := range res.Breakpoints {
		if math.Abs(b-0.4) < math.Abs(best-0.4) {
			best = b
		}
	}
	if math.Abs(best-0.4) > 0.06 {
		t.Fatalf("breakpoint at %.3f, want ≈ 0.40 (all: %v)", best, res.Breakpoints)
	}
}

func TestFoldNoBreakpointsOnUniformPhase(t *testing.T) {
	instances := genInstances(counters.Constant(), 400, 2, 0.03, 23)
	res, err := Fold(instances, Config{Counter: counters.TotIns})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Breakpoints) != 0 {
		t.Fatalf("uniform phase got breakpoints: %v", res.Breakpoints)
	}
}

func TestMeanAbsDiffResultsSelfZero(t *testing.T) {
	instances := genInstances(counters.Linear(1, 2), 200, 2, 0.05, 31)
	a, err := Fold(instances, Config{Counter: counters.TotIns})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fold(instances, Config{Counter: counters.TotIns})
	if err != nil {
		t.Fatal(err)
	}
	if d := MeanAbsDiffResults(a, b); d != 0 {
		t.Fatalf("self diff = %g", d)
	}
}

func TestInstancesFromBursts(t *testing.T) {
	bursts := []burst.Burst{
		{Rank: 0, Start: 0, End: 100, Cluster: 1},
		{Rank: 0, Start: 200, End: 320, Cluster: 2},
		{Rank: 1, Start: 0, End: 110, Cluster: 1},
	}
	attached := [][]trace.Sample{
		{{Rank: 0, Time: 50}},
		{{Rank: 0, Time: 250}},
		nil,
	}
	ins := InstancesFromBursts(bursts, attached, 1)
	if len(ins) != 2 {
		t.Fatalf("instances = %d, want 2", len(ins))
	}
	if len(ins[0].Samples) != 1 || ins[0].Samples[0].Time != 50 {
		t.Fatalf("instance samples = %+v", ins[0].Samples)
	}
	if ins[1].Rank != 1 || ins[1].Duration() != 110 {
		t.Fatalf("instance 1 = %+v", ins[1])
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic on length mismatch")
			}
		}()
		InstancesFromBursts(bursts, attached[:2], 1)
	}()
}

func TestModelString(t *testing.T) {
	if ModelBinnedPCHIP.String() != "binned+pchip" || ModelKernel.String() != "kernel" ||
		ModelBinned.String() != "binned" || Model(9).String() != "model_9" {
		t.Fatal("model names wrong")
	}
}

func TestFoldUnknownModel(t *testing.T) {
	instances := genInstances(counters.Constant(), 50, 2, 0, 1)
	if _, err := Fold(instances, Config{Counter: counters.TotIns, Model: Model(99)}); err == nil {
		t.Fatal("unknown model accepted")
	}
}

// --- call-stack folding ---

// stackInstances builds instances whose samples carry region r1 for
// x < 0.6 and r2 beyond.
func stackInstances(n int, seed uint64) []Instance {
	rng := rand.New(rand.NewPCG(seed, 3))
	out := make([]Instance, n)
	var clock trace.Time
	for i := range out {
		d := trace.Time(1_000_000)
		in := Instance{Start: clock, End: clock + d}
		in.Totals[counters.TotIns] = 1000
		for j := 0; j < 3; j++ {
			x := rng.Float64()
			var s trace.Sample
			s.Time = in.Start + trace.Time(x*float64(d))
			region := uint32(1)
			if x >= 0.6 {
				region = 2
			}
			s.Stack = []uint32{region, 9}
			in.Samples = append(in.Samples, s)
		}
		sort.Slice(in.Samples, func(a, b int) bool { return in.Samples[a].Time < in.Samples[b].Time })
		out[i] = in
		clock += d
	}
	return out
}

func TestFoldStacks(t *testing.T) {
	res := FoldStacks(stackInstances(300, 13), 20)
	if res.Samples != 900 {
		t.Fatalf("samples = %d", res.Samples)
	}
	if len(res.Regions) != 2 {
		t.Fatalf("regions = %v", res.Regions)
	}
	// Region 1 covers 60% of time → should be first (most samples).
	if res.Regions[0] != 1 {
		t.Fatalf("dominant region = %d", res.Regions[0])
	}
	// Check dominance per bin away from the boundary.
	for b := 0; b < res.Bins; b++ {
		x := (float64(b) + 0.5) / float64(res.Bins)
		if math.Abs(x-0.6) < 0.05 {
			continue
		}
		want := uint32(1)
		if x > 0.6 {
			want = 2
		}
		if res.Dominant[b] != want {
			t.Fatalf("bin %d (x=%.2f) dominant = %d, want %d", b, x, res.Dominant[b], want)
		}
	}
	// Shares in each non-empty bin sum to 1.
	for b := range res.Share {
		var sum float64
		for _, v := range res.Share[b] {
			sum += v
		}
		if res.Dominant[b] != 0 && math.Abs(sum-1) > 1e-9 {
			t.Fatalf("bin %d shares sum to %g", b, sum)
		}
	}
	// Transition detected near 0.6.
	trs := res.Transitions()
	if len(trs) != 1 || math.Abs(trs[0]-0.6) > 0.06 {
		t.Fatalf("transitions = %v, want ≈ [0.6]", trs)
	}
}

func TestAttributeRegions(t *testing.T) {
	// Instructions 70% in the first 40% of time (region 1), 30% in the
	// remaining 60% (region 2).
	shape := counters.Piecewise(
		counters.Segment{Width: 0.4, Area: 0.7},
		counters.Segment{Width: 0.6, Area: 0.3},
	)
	rng := rand.New(rand.NewPCG(31, 7))
	instances := genInstances(shape, 400, 3, 0.02, 55)
	for i := range instances {
		in := &instances[i]
		d := float64(in.Duration())
		for j := range in.Samples {
			x := float64(in.Samples[j].Time-in.Start) / d
			region := uint32(1)
			if x >= 0.4 {
				region = 2
			}
			in.Samples[j].Stack = []uint32{region}
		}
	}
	_ = rng
	res, err := Fold(instances, Config{Counter: counters.TotIns})
	if err != nil {
		t.Fatal(err)
	}
	st := FoldStacks(instances, 50)
	attr := AttributeRegions(res, st)
	if math.Abs(attr[1]-0.7) > 0.05 {
		t.Fatalf("region 1 share = %.3f, want ≈ 0.70", attr[1])
	}
	if math.Abs(attr[2]-0.3) > 0.05 {
		t.Fatalf("region 2 share = %.3f, want ≈ 0.30", attr[2])
	}
	total := attr[1] + attr[2]
	if math.Abs(total-1) > 0.02 {
		t.Fatalf("shares sum to %.3f", total)
	}
}

func TestAttributeRegionsDegenerate(t *testing.T) {
	if got := AttributeRegions(&Result{}, &StackResult{}); len(got) != 0 {
		t.Fatalf("degenerate attribution = %v", got)
	}
}

func TestFoldStacksEmptyAndDefaults(t *testing.T) {
	res := FoldStacks(nil, 0)
	if res.Bins != 50 || res.Samples != 0 || len(res.Regions) != 0 {
		t.Fatalf("empty result = %+v", res)
	}
	if got := res.Transitions(); len(got) != 0 {
		t.Fatalf("transitions on empty = %v", got)
	}
}

func TestFoldStacksIgnoresStacklessSamples(t *testing.T) {
	ins := stackInstances(10, 1)
	for i := range ins {
		for j := range ins[i].Samples {
			ins[i].Samples[j].Stack = nil
		}
	}
	res := FoldStacks(ins, 10)
	if res.Samples != 0 {
		t.Fatalf("stackless samples counted: %d", res.Samples)
	}
}

// TestRobustCenterMatchesStats pins robustCenter's single-buffer median
// and MAD to stats.Median and stats.MAD bit for bit, on integer-valued
// data like the durations and counter totals it sees (ties, zero MAD)
// and on continuous data, at odd and even lengths.
func TestRobustCenterMatchesStats(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 8))
	for trial := 0; trial < 200; trial++ {
		xs := make([]float64, 4+rng.IntN(300))
		for i := range xs {
			switch trial % 3 {
			case 0:
				xs[i] = float64(1000 + rng.IntN(8))
			case 1:
				xs[i] = 1e6 * rng.ExpFloat64()
			default:
				xs[i] = 42
			}
		}
		in := append([]float64(nil), xs...)
		med, scale := robustCenter(xs)
		wantMed := stats.Median(xs)
		wantScale := math.Max(stats.MAD(xs), 0.001*math.Abs(wantMed))
		if math.Float64bits(med) != math.Float64bits(wantMed) || math.Float64bits(scale) != math.Float64bits(wantScale) {
			t.Fatalf("trial %d n=%d: robustCenter = (%.17g, %.17g), stats = (%.17g, %.17g)",
				trial, len(xs), med, scale, wantMed, wantScale)
		}
		if !reflect.DeepEqual(xs, in) {
			t.Fatalf("trial %d: robustCenter modified its input", trial)
		}
	}
}
