package online

import (
	"fmt"
	"math"

	"repro/internal/counters"
	"repro/internal/fit"
	"repro/internal/folding"
	"repro/internal/stats"
)

// Folder incrementally folds one counter of one phase. Each incoming
// instance's samples are normalized and accumulated into fixed bins, so
// memory stays O(bins) regardless of run length — the property that makes
// on-line folding viable where storing the full sample cloud is not.
//
// Outlier rejection uses running statistics instead of the offline
// median/MAD: instances whose duration or total deviates more than
// PruneK running standard deviations from the running mean are skipped
// (after a warmup of 8 instances).
type Folder struct {
	Counter counters.Counter
	Bins    int
	// PruneK is the rejection threshold in running standard deviations
	// (default 4; negative disables).
	PruneK float64

	sumW, sumWX, sumWY []float64
	durStats, totStats stats.Online
	instances, pruned  int
	points             int
}

// NewFolderConfig creates an incremental folder from an offline folding
// configuration, so the streaming pipeline and core.Options drive both
// folding paths with one config: Bins maps directly; a non-zero PruneK
// overrides the online default (note the semantics differ — running
// standard deviations here, median/MAD offline). Model has no streaming
// counterpart and is ignored: the folder always follows the
// binned-PCHIP path, without the kernel smoothing or segmentation.
func NewFolderConfig(c counters.Counter, cfg folding.Config) *Folder {
	f := NewFolder(c, cfg.Bins)
	if cfg.PruneK != 0 {
		f.PruneK = cfg.PruneK
	}
	return f
}

// NewFolder creates an incremental folder; bins <= 0 selects the
// offline fold's default grid.
func NewFolder(c counters.Counter, bins int) *Folder {
	if bins <= 0 {
		def := folding.Config{}
		def.SetDefaults()
		bins = def.Bins
	}
	return &Folder{
		Counter: c,
		Bins:    bins,
		PruneK:  4,
		sumW:    make([]float64, bins),
		sumWX:   make([]float64, bins),
		sumWY:   make([]float64, bins),
	}
}

// Add folds one instance into the accumulator. Returns false when the
// instance was rejected as an outlier.
func (f *Folder) Add(in *folding.Instance) bool {
	d := float64(in.Duration())
	tot := float64(in.Totals[f.Counter])
	if d <= 0 || tot <= 0 {
		return false
	}
	if f.PruneK >= 0 && f.durStats.N() >= 8 {
		if math.Abs(d-f.durStats.Mean()) > f.PruneK*f.durStats.StdDev()+1e-9 ||
			math.Abs(tot-f.totStats.Mean()) > f.PruneK*f.totStats.StdDev()+1e-9 {
			f.pruned++
			return false
		}
	}
	f.durStats.Add(d)
	f.totStats.Add(tot)
	f.instances++
	for _, s := range in.Samples {
		x := float64(s.Time-in.Start) / d
		y := float64(s.Counters[f.Counter]-in.Base[f.Counter]) / tot
		if x < 0 || x > 1 || math.IsNaN(y) {
			continue
		}
		if y < 0 {
			y = 0
		}
		if y > 1 {
			y = 1
		}
		b := int(x * float64(f.Bins))
		if b >= f.Bins {
			b = f.Bins - 1
		}
		f.sumW[b]++
		f.sumWX[b] += x
		f.sumWY[b] += y
		f.points++
	}
	return true
}

// Snapshot fits the current accumulated bins into a folding.Result. It can
// be called at any time during the stream; the fold sharpens as instances
// accumulate. The returned result has no Points cloud (the stream does not
// retain samples) — diagnostics that need raw positions are approximated
// from bin occupancy.
func (f *Folder) Snapshot() (*folding.Result, error) {
	if f.points < 4 {
		return nil, fmt.Errorf("online: only %d folded points", f.points)
	}
	// Bin means → isotonic projection → monotone cubic, mirroring the
	// offline ModelBinnedPCHIP path.
	var pts []fit.Point
	for b := 0; b < f.Bins; b++ {
		if f.sumW[b] == 0 {
			continue
		}
		pts = append(pts, fit.Point{
			X: f.sumWX[b] / f.sumW[b],
			Y: f.sumWY[b] / f.sumW[b],
			W: f.sumW[b],
		})
	}
	iso := fit.Isotonic(pts)
	xs := make([]float64, 0, len(pts)+2)
	ys := make([]float64, 0, len(pts)+2)
	if pts[0].X > 0 {
		xs = append(xs, 0)
		ys = append(ys, 0)
	}
	prevX := -1.0
	for i, p := range pts {
		x := p.X
		if x <= prevX {
			x = math.Nextafter(prevX, 2)
		}
		prevX = x
		xs = append(xs, x)
		ys = append(ys, iso[i])
	}
	if xs[len(xs)-1] < 1 {
		xs = append(xs, 1)
		ys = append(ys, 1)
	}
	p, err := fit.NewPCHIP(xs, ys)
	if err != nil {
		return nil, fmt.Errorf("online: %w", err)
	}

	res := &folding.Result{
		Counter:      f.Counter,
		Instances:    f.instances,
		Pruned:       f.pruned,
		MeanDuration: f.durStats.Mean(),
		MeanTotal:    f.totStats.Mean(),
	}
	res.Grid = make([]float64, f.Bins+1)
	res.Cumulative = make([]float64, f.Bins+1)
	res.Rate = make([]float64, f.Bins+1)
	scale := res.MeanTotal / res.MeanDuration
	for i := range res.Grid {
		x := float64(i) / float64(f.Bins)
		res.Grid[i] = x
		res.Cumulative[i] = clamp01(p.Eval(x))
		res.Rate[i] = p.Deriv(x) * scale
		if res.Rate[i] < 0 {
			res.Rate[i] = 0
		}
	}
	res.Cumulative[0] = 0
	res.Cumulative[f.Bins] = 1
	return res, nil
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
