// Package folding implements the paper's core contribution: reconstructing
// the fine-grain internal evolution of a repetitive computation phase from
// coarse-grain sampling.
//
// A single instance of a phase contains only a handful of samples at a
// low-overhead sampling period. But an iterative application executes the
// phase many times, and the free-running sampling clock is uncorrelated
// with phase starts, so across instances the samples land at different
// relative positions. Folding projects every sample of every instance into
// one synthetic instance: a sample taken at time t inside instance [s, e]
// with counter reading C becomes the point
//
//	x = (t − s) / (e − s)            normalized time
//	y = (C − C(s)) / (C(e) − C(s))   normalized cumulative progress
//
// The pooled cloud is fitted with a monotone curve (cumulative counters
// only ever increase); its derivative is the phase's instantaneous metric
// rate over normalized time — e.g. MIPS inside the solver kernel — at a
// resolution no single instance's samples could support. Call stacks fold
// the same way, revealing which source region runs at each point.
package folding

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/burst"
	"repro/internal/counters"
	"repro/internal/fit"
	"repro/internal/parallel"
	"repro/internal/trace"
)

// Instance is one occurrence of the repetitive region being folded,
// together with the samples captured inside it.
type Instance struct {
	Rank       int32
	Start, End trace.Time
	// Base is the absolute counter snapshot at Start.
	Base counters.Values
	// Totals is the counter increment over the instance.
	Totals counters.Values
	// Samples are the trace samples with Start <= Time < End, time-ordered.
	Samples []trace.Sample
}

// Duration returns the instance length.
func (in *Instance) Duration() trace.Time { return in.End - in.Start }

// InstancesFromBursts assembles folding instances from the bursts assigned
// to one cluster. attached must be the burst.AttachSamples result for the
// same burst slice.
func InstancesFromBursts(bursts []burst.Burst, attached [][]trace.Sample, clusterID int) []Instance {
	if len(attached) != len(bursts) {
		panic(fmt.Sprintf("folding: %d bursts but %d sample groups", len(bursts), len(attached)))
	}
	n := 0
	for i := range bursts {
		if bursts[i].Cluster == clusterID {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]Instance, 0, n)
	for i := range bursts {
		if bursts[i].Cluster != clusterID {
			continue
		}
		out = append(out, Instance{
			Rank:    bursts[i].Rank,
			Start:   bursts[i].Start,
			End:     bursts[i].End,
			Base:    bursts[i].Base,
			Totals:  bursts[i].Delta,
			Samples: attached[i],
		})
	}
	return out
}

// Model selects the curve-fitting strategy.
type Model int

const (
	// ModelBinnedPCHIP (default): isotonic regression over the folded
	// cloud, equal-width bin means, then a monotone cubic interpolant.
	// Smooth, monotone, and differentiable — the production model.
	ModelBinnedPCHIP Model = iota
	// ModelKernel: Nadaraya–Watson kernel smoothing of the folded cloud
	// followed by isotonic projection. Ablation alternative.
	ModelKernel
	// ModelBinned: raw isotonic bin means with linear interpolation; the
	// simplest possible reconstruction, kept for ablation.
	ModelBinned
)

// String names the model.
func (m Model) String() string {
	switch m {
	case ModelBinnedPCHIP:
		return "binned+pchip"
	case ModelKernel:
		return "kernel"
	case ModelBinned:
		return "binned"
	}
	return fmt.Sprintf("model_%d", int(m))
}

// Config parameterizes a fold.
type Config struct {
	// Counter is the hardware counter Fold reconstructs (FoldCounters
	// takes its counters as an argument instead).
	Counter counters.Counter
	// Bins is the output grid resolution (default 100).
	Bins int
	// PruneK is the MAD multiplier for instance outlier pruning: instances
	// whose duration or counter total deviates from the median by more
	// than PruneK·MAD are discarded before folding (default 3; negative
	// disables pruning).
	PruneK float64
	// Model selects the fitting strategy.
	Model Model
	// KernelBandwidth is the smoothing bandwidth for ModelKernel
	// (default 0.02).
	KernelBandwidth float64
	// MaxSegments bounds sub-phase detection (default 6; 1 disables).
	MaxSegments int
	// SegmentPenalty is the per-extra-segment cost for sub-phase detection
	// (default chosen relative to the grid; larger = fewer breakpoints).
	SegmentPenalty float64
}

func (c *Config) setDefaults() {
	if c.Bins == 0 {
		c.Bins = 100
	}
	if c.PruneK == 0 {
		c.PruneK = 3
	}
	if c.KernelBandwidth == 0 {
		c.KernelBandwidth = 0.02
	}
	if c.MaxSegments == 0 {
		c.MaxSegments = 6
	}
	if c.SegmentPenalty == 0 {
		c.SegmentPenalty = 0.02
	}
}

// Result is a folded reconstruction of one counter inside one phase.
type Result struct {
	// Counter is the reconstructed counter.
	Counter counters.Counter
	// Instances is the number of instances folded (after pruning);
	// Pruned counts the discarded outliers.
	Instances, Pruned int
	// Points is the folded (x, y) sample cloud the curve was fitted to,
	// sorted by x. It is an in-memory handle, not part of the serialized
	// Result: a report ships the curve and its bands, which are
	// O(Bins), while the cloud grows with the trace.
	Points []fit.Point `json:"-"`
	// Grid is the uniform normalized-time grid (len Bins+1, 0..1).
	Grid []float64
	// Cumulative is the fitted normalized cumulative curve on Grid
	// (Cumulative[0] = 0, Cumulative[last] = 1, non-decreasing).
	Cumulative []float64
	// Rate is the instantaneous metric rate on Grid in counts per
	// nanosecond of phase-internal time: Rate = dCumulative/dx ·
	// MeanTotal/MeanDuration.
	Rate []float64
	// MeanDuration (ns) and MeanTotal (counts) describe the synthetic
	// instance the reconstruction is expressed in.
	MeanDuration, MeanTotal float64
	// Breakpoints are detected sub-phase boundaries in normalized time.
	Breakpoints []float64
	// StdErr is the per-grid-point standard error of the folded cloud
	// around the fitted curve (ComputeBands), filled by every batch fold;
	// online folds keep no cloud and leave it nil. A cell supported by
	// fewer than two points is NaN in memory and null in JSON.
	StdErr Bands
}

// Errors returned by Fold and FoldCounters.
var (
	ErrNoInstances = errors.New("folding: no instances to fold")
	ErrNoSignal    = errors.New("folding: counter never increments in this phase")
	ErrTooFew      = errors.New("folding: too few samples to fit a curve")
)

// Fold reconstructs the internal evolution of one counter across the given
// instances: FoldCounters for cfg.Counter alone.
func Fold(instances []Instance, cfg Config) (*Result, error) {
	res, errs := FoldCounters(instances, cfg, []counters.Counter{cfg.Counter}, 1)
	return res[0], errs[0]
}

// FoldCounters reconstructs the internal evolution of every counter in cs
// across the same instances. Results and errors are indexed like cs; a
// counter that cannot be folded has a nil Result and a non-nil error.
// cfg.Counter is ignored.
//
// A sample's normalized time depends only on its instance, never on the
// counter, so the phase's samples are put in x order once and every
// counter's cloud is read off that shared order. The counters then fold
// on at most parallelism workers (parallel.ForEach semantics); the
// results do not depend on the worker count.
func FoldCounters(instances []Instance, cfg Config, cs []counters.Counter, parallelism int) ([]*Result, []error) {
	cfg.setDefaults()
	results := make([]*Result, len(cs))
	errs := make([]error, len(cs))
	if len(instances) == 0 {
		for i := range errs {
			errs[i] = ErrNoInstances
		}
		return results, errs
	}
	ph := newPhaseCloud(instances, cfg.PruneK)
	parallel.ForEach(len(cs), parallelism, func(i int) {
		results[i], errs[i] = ph.fold(cs[i], cfg)
	})
	return results, errs
}

// phaseCloud is the counter-independent half of a phase's fold, built
// once per phase and shared read-only by every counter's fold.
type phaseCloud struct {
	instances []Instance
	// order holds every foldable sample by (x, instance, sample).
	order []samplePos
	// prune is set when pruning is on (k >= 0 and at least 4
	// instances); durMed and durScale are then the durations' robust
	// center and scale.
	prune            bool
	k                float64
	durMed, durScale float64
}

// samplePos is one foldable sample: its normalized time and where it
// sits in the phase's instances.
type samplePos struct {
	x         float64
	inst, smp int32
}

// newPhaseCloud puts the instances' foldable samples — those of
// positive-duration instances with 0 <= x <= 1 — in x order and, when
// pruning is on, computes the duration median and MAD. Equal x keeps
// instance-then-sample order, so any counter's cloud read off this
// order is exactly its points stably sorted by x.
func newPhaseCloud(instances []Instance, k float64) *phaseCloud {
	n := 0
	for i := range instances {
		n += len(instances[i].Samples)
	}
	ph := &phaseCloud{instances: instances, order: make([]samplePos, 0, n), k: k}
	for i := range instances {
		in := &instances[i]
		d := float64(in.Duration())
		if d <= 0 {
			continue
		}
		for j := range in.Samples {
			if x := float64(in.Samples[j].Time-in.Start) / d; x >= 0 && x <= 1 {
				ph.order = append(ph.order, samplePos{x: x, inst: int32(i), smp: int32(j)})
			}
		}
	}
	// x is never NaN (d > 0), so plain comparisons order it.
	slices.SortFunc(ph.order, func(a, b samplePos) int {
		switch {
		case a.x < b.x:
			return -1
		case a.x > b.x:
			return 1
		case a.inst != b.inst:
			return int(a.inst - b.inst)
		}
		return int(a.smp - b.smp)
	})
	if k >= 0 && len(instances) >= 4 {
		durs := parallel.GetFloat64(len(instances))
		for i := range instances {
			durs[i] = float64(instances[i].Duration())
		}
		ph.prune = true
		ph.durMed, ph.durScale = robustCenter(durs)
		parallel.PutFloat64(durs)
	}
	return ph
}

// robustCenter returns the median of xs and its MAD, the MAD floored so
// that zero-MAD (perfectly regular) data tolerates tiny relative
// deviations instead of pruning everything unequal. It computes
// stats.Median and stats.MAD's values from one pooled scratch copy: sort
// it for the median, overwrite it with the absolute deviations (their
// multiset, and so their sorted order, does not depend on the order they
// are written in) and sort again.
func robustCenter(xs []float64) (med, scale float64) {
	tmp := parallel.GetFloat64(len(xs))
	defer parallel.PutFloat64(tmp)
	copy(tmp, xs)
	sort.Float64s(tmp)
	med = sortedMedian(tmp)
	for i, x := range tmp {
		tmp[i] = math.Abs(x - med)
	}
	sort.Float64s(tmp)
	return med, math.Max(1.4826*sortedMedian(tmp), 0.001*math.Abs(med))
}

// sortedMedian is stats.Median of an ascending, non-empty slice.
func sortedMedian(s []float64) float64 {
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// keepMask marks the instances folded for counter c. With pruning on it
// drops those whose duration or c-total is more than k·MAD from the
// median (robust outlier rejection: a phase instance hit by OS noise or
// an unusual iteration would otherwise smear the fold). pruned counts
// the dropped instances.
func (ph *phaseCloud) keepMask(c counters.Counter) (keep []bool, pruned int) {
	keep = make([]bool, len(ph.instances))
	if ph.prune {
		tots := parallel.GetFloat64(len(ph.instances))
		defer parallel.PutFloat64(tots)
		for i := range ph.instances {
			tots[i] = float64(ph.instances[i].Totals[c])
		}
		tMed, tScale := robustCenter(tots)
		for i := range keep {
			dur := float64(ph.instances[i].Duration())
			if math.Abs(dur-ph.durMed) > ph.k*ph.durScale || math.Abs(tots[i]-tMed) > ph.k*tScale {
				pruned++
				continue
			}
			keep[i] = true
		}
		if pruned < len(keep) {
			return keep, pruned
		}
	}
	// Pruning is off, or it would drop every instance (pathologically
	// dispersed data): fold them all.
	for i := range keep {
		keep[i] = true
	}
	return keep, 0
}

// fold reconstructs counter c from the shared cloud.
func (ph *phaseCloud) fold(c counters.Counter, cfg Config) (*Result, error) {
	keep, pruned := ph.keepMask(c)
	res := &Result{
		Counter:   c,
		Instances: len(keep) - pruned,
		Pruned:    pruned,
	}
	var durSum, totSum float64
	for i := range ph.instances {
		if keep[i] {
			durSum += float64(ph.instances[i].Duration())
			totSum += float64(ph.instances[i].Totals[c])
		}
	}
	res.MeanDuration = durSum / float64(res.Instances)
	res.MeanTotal = totSum / float64(res.Instances)
	if res.MeanTotal <= 0 {
		return nil, fmt.Errorf("%w (%s)", ErrNoSignal, c)
	}

	res.Points = make([]fit.Point, 0, len(ph.order))
	for _, p := range ph.order {
		in := &ph.instances[p.inst]
		if !keep[p.inst] || in.Totals[c] <= 0 {
			continue
		}
		y := float64(in.Samples[p.smp].Counters[c]-in.Base[c]) / float64(in.Totals[c])
		if y < 0 {
			y = 0
		}
		if y > 1 {
			y = 1
		}
		res.Points = append(res.Points, fit.Point{X: p.x, Y: y, W: 1})
	}
	if len(res.Points) < 4 {
		return nil, fmt.Errorf("%w: %d folded points", ErrTooFew, len(res.Points))
	}
	if err := fitCloud(res, cfg); err != nil {
		return nil, err
	}
	res.ComputeBands()
	return res, nil
}

// fitCloud fits cfg.Model to res.Points (sorted by x) and fills the
// grid, cumulative curve, rate and sub-phase breakpoints.
func fitCloud(res *Result, cfg Config) error {
	// The physical boundary conditions (0,0) and (1,1) are pinned as knots
	// after binning (addBoundaryKnots) rather than as weighted pseudo-
	// points: pseudo-points would bias the boundary bins' means.
	res.Grid = make([]float64, cfg.Bins+1)
	for i := range res.Grid {
		res.Grid[i] = float64(i) / float64(cfg.Bins)
	}

	var err error
	switch cfg.Model {
	case ModelBinnedPCHIP:
		err = fitBinnedPCHIP(res, cfg)
	case ModelKernel:
		err = fitKernel(res, cfg)
	case ModelBinned:
		err = fitBinned(res, cfg)
	default:
		err = fmt.Errorf("folding: unknown model %d", cfg.Model)
	}
	if err != nil {
		return err
	}

	// Clamp and pin the boundary conditions, then derive the rate scale.
	clampCumulative(res.Cumulative)
	scale := res.MeanTotal / res.MeanDuration
	if res.Rate == nil {
		res.Rate = numericRate(res.Grid, res.Cumulative)
	}
	for i := range res.Rate {
		res.Rate[i] *= scale
	}

	if cfg.MaxSegments > 1 {
		breaks := fit.Segment(res.Grid, res.Cumulative, cfg.MaxSegments, cfg.SegmentPenalty)
		for _, bi := range breaks {
			res.Breakpoints = append(res.Breakpoints, res.Grid[bi])
		}
	}
	return nil
}

// fitBinnedPCHIP is the default model: PAVA → bin means → monotone cubic.
// The isotonic values stay a bare column — BinIso consumes them next to
// the sorted points, so no intermediate point slice is materialized.
func fitBinnedPCHIP(res *Result, cfg Config) error {
	iso := fit.Isotonic(res.Points)
	xs, ys := fit.BinIso(res.Points, iso, cfg.Bins, 0, 1)
	xs, ys = addBoundaryKnots(xs, ys)
	p, err := fit.NewPCHIP(xs, ys)
	if err != nil {
		return fmt.Errorf("folding: %w", err)
	}
	res.Cumulative = make([]float64, len(res.Grid))
	res.Rate = make([]float64, len(res.Grid))
	for i, x := range res.Grid {
		res.Cumulative[i] = p.Eval(x)
		res.Rate[i] = p.Deriv(x)
	}
	return nil
}

// fitKernel smooths the cloud with a Gaussian kernel, then projects onto
// the monotone cone with PAVA.
func fitKernel(res *Result, cfg Config) error {
	sm := fit.KernelSmooth(res.Points, cfg.KernelBandwidth, res.Grid)
	pts := make([]fit.Point, len(sm))
	for i, y := range sm {
		pts[i] = fit.Point{X: res.Grid[i], Y: y, W: 1}
	}
	res.Cumulative = fit.Isotonic(pts)
	return nil
}

// fitBinned uses raw isotonic bin means with linear interpolation.
func fitBinned(res *Result, cfg Config) error {
	iso := fit.Isotonic(res.Points)
	xs, ys := fit.BinIso(res.Points, iso, cfg.Bins, 0, 1)
	xs, ys = addBoundaryKnots(xs, ys)
	res.Cumulative = make([]float64, len(res.Grid))
	for i, x := range res.Grid {
		res.Cumulative[i] = interpLinear(xs, ys, x)
	}
	return nil
}

// addBoundaryKnots prepends (0,0) and appends (1,1) unless the bins
// already touch the boundaries.
func addBoundaryKnots(xs, ys []float64) ([]float64, []float64) {
	if len(xs) == 0 || xs[0] > 0 {
		xs = append([]float64{0}, xs...)
		ys = append([]float64{0}, ys...)
	}
	if xs[len(xs)-1] < 1 {
		xs = append(xs, 1)
		ys = append(ys, 1)
	}
	return xs, ys
}

func interpLinear(xs, ys []float64, x float64) float64 {
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

// clampCumulative forces the fitted curve into [0,1] with pinned endpoints
// and non-decreasing values (guards against numerical slop).
func clampCumulative(cum []float64) {
	if len(cum) == 0 {
		return
	}
	cum[0] = 0
	cum[len(cum)-1] = 1
	prev := 0.0
	for i := range cum {
		if cum[i] < prev {
			cum[i] = prev
		}
		if cum[i] > 1 {
			cum[i] = 1
		}
		prev = cum[i]
	}
}

// numericRate differentiates the cumulative curve with central differences.
func numericRate(grid, cum []float64) []float64 {
	n := len(grid)
	out := make([]float64, n)
	for i := range out {
		lo, hi := i-1, i+1
		if lo < 0 {
			lo = 0
		}
		if hi >= n {
			hi = n - 1
		}
		if grid[hi] == grid[lo] {
			continue
		}
		out[i] = (cum[hi] - cum[lo]) / (grid[hi] - grid[lo])
	}
	return out
}

// MeanAbsDiff returns the mean absolute difference between the folded
// cumulative curve and a reference shape, evaluated on the result grid —
// the paper's accuracy metric, as a fraction of the phase total (0.05 ≡ 5%).
func (r *Result) MeanAbsDiff(ref counters.Shape) float64 {
	var sum float64
	for i, x := range r.Grid {
		sum += math.Abs(r.Cumulative[i] - ref.Integral(x))
	}
	return sum / float64(len(r.Grid))
}

// Shape adapts the folded cumulative curve into a counters.Shape for
// comparison with other reconstructions.
func (r *Result) Shape() counters.Shape {
	return counters.NewTableShape(r.Cumulative)
}

// MeanAbsDiffResults compares two reconstructions of the same phase (e.g.
// coarse-period folding vs fine-grain sampling) on the coarser grid.
func MeanAbsDiffResults(a, b *Result) float64 {
	return counters.MeanAbsDiff(a.Shape(), b.Shape(), len(a.Grid)-1)
}
