// Package diff implements cross-run differential analysis: given two
// analyzed runs of (nominally) the same application — a before/after
// pair around a code change, two build configurations, or plain
// run-to-run noise — it matches the detected computation phases across
// the runs, resamples each matched pair's folded rate curves onto a
// common normalized-time grid, and reports *where inside the phase* the
// behavior diverged. This is the automatic-performance-debugging layer
// the SPMD similarity-analysis line of work builds on top of phase
// structure (arXiv:0906.1326, arXiv:1002.4264): the clusters say which
// phases exist, the folded curves say what happens inside them, and the
// diff says what changed between runs and at which normalized time.
//
// Phases are matched by cluster-centroid similarity in the same raw
// feature space the clustering engine uses (log10 duration, log10
// instructions, IPC), reusing the capture-radius matching rule from
// cluster.Model.Merge. When either side is degraded — salvage-decoded,
// quantile-fallback clustering, or missing instruction folds — matching
// degrades to pairing phases by duration rank (the same ordering
// cluster.QuantileFallback splits on) and every affected pair is marked.
package diff

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/folding"
	"repro/internal/trace"
)

// Options parameterizes a comparison. The zero value selects sensible
// defaults for every knob.
type Options struct {
	// Bins is the resolution of the common normalized-time grid both
	// runs' folded curves are resampled onto (default 100 → 101 grid
	// points over [0,1]).
	Bins int
	// MatchRadius is the capture radius (in raw feature space: log10
	// duration, log10 instructions, IPC) within which two phase
	// centroids are considered the same phase (default 0.75 — wide
	// enough to keep a phase matched through a ~1.2x rate regression,
	// narrow enough that the nearest-first greedy pairing never crosses
	// distinct phases whose true counterparts are present). Larger
	// values tolerate bigger between-run drift before a phase is
	// declared new/vanished.
	MatchRadius float64
	// SigmaK is the significance multiplier: a shape divergence counts
	// as significant only where it exceeds SigmaK times the combined
	// standard error of the two folded clouds (default 3). It guards
	// the localization against flagging run-to-run sampling noise.
	SigmaK float64
	// NoiseFloor is the minimum shape divergence (fraction of the phase
	// total, same scale as the paper's accuracy metric) ever considered
	// significant, regardless of how tight the error bands are
	// (default 0.02 — below the paper's 5% reconstruction headline).
	NoiseFloor float64
	// MaxFallbackRatio bounds duration-rank fallback matching: two
	// phases paired by rank are kept only if their mean durations are
	// within this factor of each other (default 16).
	MaxFallbackRatio float64
}

func (o *Options) setDefaults() {
	if o.Bins <= 0 {
		o.Bins = 100
	}
	if o.MatchRadius <= 0 {
		o.MatchRadius = 0.75
	}
	if o.SigmaK <= 0 {
		o.SigmaK = 3
	}
	if o.NoiseFloor <= 0 {
		o.NoiseFloor = 0.02
	}
	if o.MaxFallbackRatio <= 0 {
		o.MaxFallbackRatio = 16
	}
}

// PhaseSummary is the per-side identity of a matched (or unmatched)
// phase — enough to recognize it in the side's own report.
type PhaseSummary struct {
	// ClusterID is the phase's cluster id in its own run's Report.
	ClusterID int
	// Instances is the phase's burst occurrence count.
	Instances int
	// TotalTime is the summed duration of all instances.
	TotalTime trace.Time
	// MeanDuration is the mean instance duration in ns.
	MeanDuration float64
	// MeanIPC is the mean instructions-per-cycle over instances.
	MeanIPC float64
	// Degraded reports that the phase's own analysis carried warnings
	// (panic stub, fold-fit failures) on its side.
	Degraded bool `json:",omitempty"`
}

// CounterDelta is the differential view of one counter's folded
// reconstruction inside one matched phase pair.
type CounterDelta struct {
	// Counter is the compared hardware counter.
	Counter counters.Counter
	// Grid is the common normalized-time grid (len Bins+1, 0..1).
	Grid []float64
	// RateA and RateB are the two runs' folded instantaneous rates
	// (counts per ns) resampled onto Grid; RateDelta is RateB − RateA.
	RateA, RateB, RateDelta []float64
	// ShapeDelta is the difference of the normalized cumulative curves
	// (run B − run A) on Grid — scale-free, so it localizes *where*
	// inside the phase the two runs spend their budget differently even
	// when the absolute rates moved together.
	ShapeDelta []float64
	// MaxShapeDelta is the largest |ShapeDelta|, reached at normalized
	// time ArgMax; Window is the contiguous half-max region around it —
	// the normalized-time window of maximum divergence.
	MaxShapeDelta float64
	ArgMax        float64
	Window        [2]float64
	// MeanAbsDelta is the mean |ShapeDelta| over the grid — the same
	// area-under-delta metric the folding evaluation uses (0.05 ≡ 5% of
	// the phase total).
	MeanAbsDelta float64
	// RateRatio is run B's overall counter rate divided by run A's
	// (MeanTotal/MeanDuration each); 1 = unchanged, 0.8 = B runs this
	// counter 20% slower.
	RateRatio float64
	// Noise is the combined standard error of the two folded clouds at
	// ArgMax (-1 when neither side carries error bands); Significant
	// reports that MaxShapeDelta clears both SigmaK×Noise and the
	// NoiseFloor — divergence that run-to-run spread cannot explain.
	Noise       float64
	Significant bool
}

// PhasePair is one phase matched across the two runs, with its deltas.
type PhasePair struct {
	// A and B identify the phase on each side.
	A, B PhaseSummary
	// Distance is the raw-feature-space centroid distance of the match
	// (0 for identical phases; -1 for fallback matches, which have no
	// centroid geometry).
	Distance float64
	// Fallback reports the pair was matched by duration rank instead of
	// centroid similarity (a side was degraded or lacked instruction
	// folds); Degraded reports that either side's analysis of this
	// phase carried concessions — treat the deltas as indicative.
	Fallback bool `json:",omitempty"`
	Degraded bool `json:",omitempty"`
	// MeanDurationDelta is B−A mean instance duration in ns;
	// MeanDurationRatio is B/A (1 = unchanged). InstanceDelta and
	// TotalTimeDelta difference the occurrence count and the summed
	// phase time; MeanIPCDelta differences the mean IPC.
	MeanDurationDelta float64
	MeanDurationRatio float64
	InstanceDelta     int
	TotalTimeDelta    trace.Time
	MeanIPCDelta      float64
	// Counters holds the per-counter rate-curve deltas, in counter-id
	// order, for every counter folded on both sides.
	Counters []CounterDelta
}

// Significant reports whether any counter's divergence in this pair
// cleared the significance guard.
func (p *PhasePair) Significant() bool {
	for i := range p.Counters {
		if p.Counters[i].Significant {
			return true
		}
	}
	return false
}

// Report is the full cross-run differential analysis.
type Report struct {
	// AppA/AppB and RanksA/RanksB echo the two runs' identities.
	AppA, AppB string
	RanksA     int
	RanksB     int
	DegradedA  bool `json:",omitempty"`
	DegradedB  bool `json:",omitempty"`
	// Fallback reports that phase matching ran in duration-rank
	// fallback mode for the whole comparison.
	Fallback bool `json:",omitempty"`
	// Matched lists the phase pairs (by run A's cluster-id order);
	// UnmatchedA are run A phases that vanished in run B, UnmatchedB
	// are run B phases with no counterpart in A (new behavior).
	Matched    []PhasePair
	UnmatchedA []PhaseSummary `json:",omitempty"`
	UnmatchedB []PhaseSummary `json:",omitempty"`
	// Warnings itemizes comparison-level concessions (degraded inputs,
	// fallback matching, skipped counters).
	Warnings []string `json:",omitempty"`
}

// Significant reports whether any matched pair diverges beyond the
// noise guard.
func (r *Report) Significant() bool {
	for i := range r.Matched {
		if r.Matched[i].Significant() {
			return true
		}
	}
	return false
}

// Compare matches phases across two analysis Reports and returns the
// differential report. Neither input is mutated. It never fails on
// degraded or partially analyzed inputs — those degrade the matching
// and are itemized in the result's Warnings — and only rejects nil
// inputs.
func Compare(a, b *core.Report, opts Options) (*Report, error) {
	if a == nil || b == nil {
		return nil, fmt.Errorf("diff: cannot compare a nil report")
	}
	opts.setDefaults()

	out := &Report{
		AppA: a.App, AppB: b.App,
		RanksA: a.Ranks, RanksB: b.Ranks,
		DegradedA: a.Degraded, DegradedB: b.Degraded,
	}
	if a.App != b.App {
		out.Warnings = append(out.Warnings, fmt.Sprintf(
			"comparing different applications (%q vs %q); phase matching is by behavior only", a.App, b.App))
	}

	pa, pb := analyzedPhases(a), analyzedPhases(b)
	ca, okA := phaseCentroids(pa, opts.MatchRadius)
	cb, okB := phaseCentroids(pb, opts.MatchRadius)

	var pairs [][2]int
	var dists []float64
	out.Fallback = a.Degraded || b.Degraded || !okA || !okB
	if out.Fallback {
		for _, why := range []struct {
			on  bool
			msg string
		}{
			{a.Degraded, "run A is degraded"},
			{b.Degraded, "run B is degraded"},
			{!okA, "run A lacks instruction aggregates"},
			{!okB, "run B lacks instruction aggregates"},
		} {
			if why.on {
				out.Warnings = append(out.Warnings,
					why.msg+"; phases matched by duration rank, not centroid similarity")
				break
			}
		}
		pairs = matchByDurationRank(pa, pb, opts.MaxFallbackRatio)
		dists = make([]float64, len(pairs))
		for i := range dists {
			dists[i] = -1
		}
	} else {
		pairs, dists = matchByCentroid(ca, cb)
	}

	matchedA := make([]bool, len(pa))
	matchedB := make([]bool, len(pb))
	for k, pr := range pairs {
		i, j := pr[0], pr[1]
		matchedA[i], matchedB[j] = true, true
		pair := diffPhases(&pa[i], &pb[j], dists[k], out.Fallback, opts)
		out.Matched = append(out.Matched, pair)
	}
	sort.Slice(out.Matched, func(i, j int) bool {
		return out.Matched[i].A.ClusterID < out.Matched[j].A.ClusterID
	})
	for i := range pa {
		if !matchedA[i] {
			out.UnmatchedA = append(out.UnmatchedA, summarize(&pa[i]))
		}
	}
	for j := range pb {
		if !matchedB[j] {
			out.UnmatchedB = append(out.UnmatchedB, summarize(&pb[j]))
		}
	}
	if len(pa) == 0 && len(pb) == 0 {
		out.Warnings = append(out.Warnings, "neither run has analyzed phases; nothing to compare")
	}
	return out, nil
}

// analyzedPhases filters a report's phases down to the ones that were
// actually analyzed (a panicked phase's stub has zero instances and
// nothing to diff — it is listed as unmatched instead of paired).
func analyzedPhases(r *core.Report) []core.Phase {
	out := make([]core.Phase, 0, len(r.Phases))
	for i := range r.Phases {
		if r.Phases[i].Instances > 0 {
			out = append(out, r.Phases[i])
		}
	}
	return out
}

// summarize extracts the cross-run identity of one phase.
func summarize(ph *core.Phase) PhaseSummary {
	return PhaseSummary{
		ClusterID:    ph.ClusterID,
		Instances:    ph.Instances,
		TotalTime:    ph.TotalTime,
		MeanDuration: ph.MeanDuration,
		MeanIPC:      ph.MeanIPC,
		Degraded:     len(ph.Warnings) > 0,
	}
}

// phaseCentroids builds one raw-feature-space centroid per phase from
// the aggregates the Report carries: mean duration, mean instructions
// and mean IPC — the same axes the clustering ran in, so between-run
// distances are meaningful. (The per-run Clustering.Features are min-max
// normalized within their own run and therefore NOT comparable across
// runs; the raw aggregates are.) ok is false when any phase lacks the
// instruction aggregate the second feature needs (reports produced
// before the field existed).
func phaseCentroids(phases []core.Phase, radius float64) ([]cluster.Centroid, bool) {
	cs := make([]cluster.Centroid, len(phases))
	for i := range phases {
		ins := phases[i].MeanInstructions
		if ins <= 0 {
			return nil, false
		}
		if ins < 1 {
			ins = 1
		}
		d := phases[i].MeanDuration
		if d < 1 {
			d = 1
		}
		cs[i] = cluster.Centroid{
			ID:      phases[i].ClusterID,
			Mean:    [3]float64{math.Log10(d), math.Log10(ins), phases[i].MeanIPC},
			Radius2: radius * radius,
			Count:   phases[i].Instances,
		}
	}
	return cs, true
}

// matchByCentroid greedily pairs mutually nearest centroids within
// capture radius: candidate pairs are visited in increasing distance
// (ties broken by index for determinism) and accepted while both sides
// are still free. The result is invariant under permutations of either
// side's phase order.
func matchByCentroid(ca, cb []cluster.Centroid) ([][2]int, []float64) {
	type cand struct {
		i, j int
		d2   float64
	}
	var cands []cand
	for i := range ca {
		for j := range cb {
			d2 := cluster.CentroidDist2(ca[i], cb[j])
			if d2 <= math.Max(ca[i].Radius2, cb[j].Radius2) {
				cands = append(cands, cand{i, j, d2})
			}
		}
	}
	sort.Slice(cands, func(x, y int) bool {
		if cands[x].d2 != cands[y].d2 {
			return cands[x].d2 < cands[y].d2
		}
		if cands[x].i != cands[y].i {
			return cands[x].i < cands[y].i
		}
		return cands[x].j < cands[y].j
	})
	usedA := make([]bool, len(ca))
	usedB := make([]bool, len(cb))
	var pairs [][2]int
	var dists []float64
	for _, c := range cands {
		if usedA[c.i] || usedB[c.j] {
			continue
		}
		usedA[c.i], usedB[c.j] = true, true
		pairs = append(pairs, [2]int{c.i, c.j})
		dists = append(dists, math.Sqrt(c.d2))
	}
	return pairs, dists
}

// matchByDurationRank pairs phases by descending mean-duration rank —
// the degraded-mode fallback, mirroring the duration-quantile ordering
// cluster.QuantileFallback splits on. Rank-paired phases whose mean
// durations differ by more than maxRatio are left unmatched.
func matchByDurationRank(pa, pb []core.Phase, maxRatio float64) [][2]int {
	order := func(ps []core.Phase) []int {
		idx := make([]int, len(ps))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(x, y int) bool {
			if ps[idx[x]].MeanDuration != ps[idx[y]].MeanDuration {
				return ps[idx[x]].MeanDuration > ps[idx[y]].MeanDuration
			}
			return ps[idx[x]].ClusterID < ps[idx[y]].ClusterID
		})
		return idx
	}
	oa, ob := order(pa), order(pb)
	n := len(oa)
	if len(ob) < n {
		n = len(ob)
	}
	var pairs [][2]int
	for k := 0; k < n; k++ {
		da, db := pa[oa[k]].MeanDuration, pb[ob[k]].MeanDuration
		if da <= 0 || db <= 0 {
			continue
		}
		ratio := da / db
		if ratio < 1 {
			ratio = 1 / ratio
		}
		if ratio > maxRatio {
			continue
		}
		pairs = append(pairs, [2]int{oa[k], ob[k]})
	}
	return pairs
}

// diffPhases produces the differential view of one matched pair.
func diffPhases(a, b *core.Phase, dist float64, fallback bool, opts Options) PhasePair {
	pair := PhasePair{
		A:                 summarize(a),
		B:                 summarize(b),
		Distance:          dist,
		Fallback:          fallback,
		MeanDurationDelta: b.MeanDuration - a.MeanDuration,
		InstanceDelta:     b.Instances - a.Instances,
		TotalTimeDelta:    b.TotalTime - a.TotalTime,
		MeanIPCDelta:      b.MeanIPC - a.MeanIPC,
	}
	if a.MeanDuration > 0 {
		pair.MeanDurationRatio = b.MeanDuration / a.MeanDuration
	}
	pair.Degraded = fallback || pair.A.Degraded || pair.B.Degraded

	// Counter-id order, never map order: the report must be stable.
	for c := counters.Counter(0); c < counters.NumCounters; c++ {
		fa, okA := a.Folds[c]
		fb, okB := b.Folds[c]
		if !okA || !okB || fa == nil || fb == nil {
			continue
		}
		pair.Counters = append(pair.Counters, diffCounter(c, fa, fb, opts))
	}
	return pair
}

// diffCounter resamples both reconstructions of one counter onto the
// common grid and derives the delta curves and their localization.
func diffCounter(c counters.Counter, fa, fb *folding.Result, opts Options) CounterDelta {
	n := opts.Bins + 1
	cd := CounterDelta{Counter: c, Grid: make([]float64, n)}
	for i := range cd.Grid {
		cd.Grid[i] = float64(i) / float64(opts.Bins)
	}
	cd.RateA = resample(fa.Grid, fa.Rate, cd.Grid)
	cd.RateB = resample(fb.Grid, fb.Rate, cd.Grid)
	cumA := resample(fa.Grid, fa.Cumulative, cd.Grid)
	cumB := resample(fb.Grid, fb.Cumulative, cd.Grid)

	cd.RateDelta = make([]float64, n)
	cd.ShapeDelta = make([]float64, n)
	var absSum float64
	argMax := 0
	for i := 0; i < n; i++ {
		cd.RateDelta[i] = cd.RateB[i] - cd.RateA[i]
		cd.ShapeDelta[i] = cumB[i] - cumA[i]
		av := math.Abs(cd.ShapeDelta[i])
		absSum += av
		if av > math.Abs(cd.ShapeDelta[argMax]) {
			argMax = i
		}
	}
	cd.MeanAbsDelta = absSum / float64(n)
	cd.MaxShapeDelta = math.Abs(cd.ShapeDelta[argMax])
	cd.ArgMax = cd.Grid[argMax]

	// Half-max window around the divergence peak.
	lo, hi := argMax, argMax
	for lo > 0 && math.Abs(cd.ShapeDelta[lo-1]) >= cd.MaxShapeDelta/2 {
		lo--
	}
	for hi < n-1 && math.Abs(cd.ShapeDelta[hi+1]) >= cd.MaxShapeDelta/2 {
		hi++
	}
	cd.Window = [2]float64{cd.Grid[lo], cd.Grid[hi]}

	if fa.MeanDuration > 0 && fb.MeanDuration > 0 && fa.MeanTotal > 0 {
		rateA := fa.MeanTotal / fa.MeanDuration
		rateB := fb.MeanTotal / fb.MeanDuration
		if rateA > 0 {
			cd.RateRatio = rateB / rateA
		}
	}

	// Significance guard: the folded clouds carry their own run-to-run
	// spread (per-burst variation around the fitted curve). The peak
	// divergence must clear SigmaK of the combined standard error at
	// its own position — and the absolute NoiseFloor — before it is
	// called real.
	seA := stderrAt(fa, cd.ArgMax)
	seB := stderrAt(fb, cd.ArgMax)
	var noise float64
	switch {
	case math.IsNaN(seA):
		noise = seB // NaN when both sides lack bands
	case math.IsNaN(seB):
		noise = seA
	default:
		noise = math.Sqrt(seA*seA + seB*seB)
	}
	threshold := opts.NoiseFloor
	if math.IsNaN(noise) {
		cd.Noise = -1
	} else {
		cd.Noise = noise
		if guard := opts.SigmaK * noise; guard > threshold {
			threshold = guard
		}
	}
	cd.Significant = cd.MaxShapeDelta > threshold
	return cd
}

// stderrAt returns the folded cloud's standard error around the fitted
// curve at normalized time x, from the bands every batch fold carries.
// NaN when no spread information exists (online folds).
func stderrAt(f *folding.Result, x float64) float64 {
	se := f.StdErr
	if len(se) == 0 || len(f.Grid) != len(se) {
		return math.NaN()
	}
	// Nearest finite band to x (cells with <2 points are NaN).
	best, bestDist := math.NaN(), math.Inf(1)
	for i, g := range f.Grid {
		if math.IsNaN(se[i]) {
			continue
		}
		if d := math.Abs(g - x); d < bestDist {
			best, bestDist = se[i], d
		}
	}
	return best
}

// resample linearly interpolates (xs, ys) onto grid. xs must be
// ascending (fold grids are); out-of-range grid points clamp to the
// nearest endpoint.
func resample(xs, ys []float64, grid []float64) []float64 {
	out := make([]float64, len(grid))
	if len(xs) == 0 || len(xs) != len(ys) {
		return out
	}
	for i, x := range grid {
		out[i] = interp(xs, ys, x)
	}
	return out
}

func interp(xs, ys []float64, x float64) float64 {
	if x <= xs[0] {
		return ys[0]
	}
	if x >= xs[len(xs)-1] {
		return ys[len(ys)-1]
	}
	lo, hi := 0, len(xs)-1
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if xs[mid] <= x {
			lo = mid
		} else {
			hi = mid
		}
	}
	f := (x - xs[lo]) / (xs[hi] - xs[lo])
	return ys[lo]*(1-f) + ys[hi]*f
}
