package folding

import (
	"sort"
)

// StackResult is the folded call-stack view of a phase: for each
// normalized-time bin, the fraction of samples whose innermost frame was
// each source region. It reveals which code runs at each point of the
// phase — the "unveiling" of the paper's title.
type StackResult struct {
	// Bins is the number of normalized-time bins.
	Bins int
	// Regions lists the distinct innermost-frame region ids observed,
	// ordered by total share descending.
	Regions []uint32
	// Share[b][r] is the fraction of bin b's samples attributed to
	// Regions[r] (rows of empty bins are all zero).
	Share [][]float64
	// Dominant[b] is the region id with the largest share in bin b, or 0
	// for empty bins.
	Dominant []uint32
	// Samples is the total number of folded stack samples.
	Samples int
}

// FoldStacks folds the call stacks of the instances' samples into bins
// normalized-time bins (bins < 1 selects 50). Samples without a stack
// are ignored.
func FoldStacks(instances []Instance, bins int) *StackResult {
	sf := NewStackFolder(bins)
	for i := range instances {
		sf.Add(&instances[i])
	}
	return sf.Snapshot()
}

// StackFolder incrementally folds call stacks: each incoming instance's
// sampled innermost frames are counted into fixed normalized-time bins,
// so the streaming pipeline can produce the folded call-stack view with
// O(bins × regions) memory instead of retaining the sample cloud.
// FoldStacks is one StackFolder fed every instance.
type StackFolder struct {
	bins   int
	counts []map[uint32]int
	total  int
}

// NewStackFolder creates an incremental call-stack folder (bins < 1
// selects 50).
func NewStackFolder(bins int) *StackFolder {
	if bins < 1 {
		bins = 50
	}
	sf := &StackFolder{bins: bins, counts: make([]map[uint32]int, bins)}
	for i := range sf.counts {
		sf.counts[i] = make(map[uint32]int)
	}
	return sf
}

// Add folds one instance's stack samples into the bins. Samples without
// a stack, and instances of non-positive duration, are ignored.
func (sf *StackFolder) Add(in *Instance) {
	d := float64(in.Duration())
	if d <= 0 {
		return
	}
	for _, s := range in.Samples {
		if len(s.Stack) == 0 {
			continue
		}
		x := float64(s.Time-in.Start) / d
		b := int(x * float64(sf.bins))
		if b < 0 {
			b = 0
		}
		if b >= sf.bins {
			b = sf.bins - 1
		}
		sf.counts[b][s.Stack[0]]++
		sf.total++
	}
}

// Samples returns how many stack samples have been folded.
func (sf *StackFolder) Samples() int { return sf.total }

// Snapshot assembles the current folded call-stack view. It can be
// called at any time; the view sharpens as instances accumulate.
func (sf *StackFolder) Snapshot() *StackResult {
	return newStackResult(sf.counts, sf.total)
}

// newStackResult assembles a StackResult from per-bin innermost-frame
// counts.
func newStackResult(counts []map[uint32]int, total int) *StackResult {
	bins := len(counts)
	totalPerRegion := make(map[uint32]int)
	for _, c := range counts {
		for id, n := range c {
			totalPerRegion[id] += n
		}
	}

	res := &StackResult{Bins: bins, Samples: total}
	for id := range totalPerRegion {
		res.Regions = append(res.Regions, id)
	}
	sort.Slice(res.Regions, func(a, b int) bool {
		ta, tb := totalPerRegion[res.Regions[a]], totalPerRegion[res.Regions[b]]
		if ta != tb {
			return ta > tb
		}
		return res.Regions[a] < res.Regions[b]
	})
	idx := make(map[uint32]int, len(res.Regions))
	for i, id := range res.Regions {
		idx[id] = i
	}

	res.Share = make([][]float64, bins)
	res.Dominant = make([]uint32, bins)
	for b := 0; b < bins; b++ {
		res.Share[b] = make([]float64, len(res.Regions))
		binTotal := 0
		for _, n := range counts[b] {
			binTotal += n
		}
		if binTotal == 0 {
			continue
		}
		bestN := 0
		var bestID uint32
		for id, n := range counts[b] {
			res.Share[b][idx[id]] = float64(n) / float64(binTotal)
			if n > bestN || (n == bestN && id < bestID) {
				bestN, bestID = n, id
			}
		}
		res.Dominant[b] = bestID
	}
	return res
}

// AttributeRegions combines a folded counter curve with the folded
// call-stack shares to attribute the phase's counter to source regions:
// region r's share is ∫ rate(x)·share_r(x) dx over normalized time. This
// is how the methodology reports not just *when* a metric accrues inside
// the phase but *which code* accrues it — e.g. "stencil_update retires
// 68% of the instructions in 55% of the time". The result maps region id
// to its fraction of the phase total (fractions sum to ≈1 when every bin
// has stack samples).
func AttributeRegions(res *Result, st *StackResult) map[uint32]float64 {
	out := make(map[uint32]float64, len(st.Regions))
	if len(res.Grid) < 2 || st.Bins == 0 {
		return out
	}
	for i := 0; i+1 < len(res.Grid); i++ {
		x0, x1 := res.Grid[i], res.Grid[i+1]
		mid := (x0 + x1) / 2
		// Counter mass in this grid cell (fraction of the phase total).
		mass := res.Cumulative[i+1] - res.Cumulative[i]
		b := int(mid * float64(st.Bins))
		if b >= st.Bins {
			b = st.Bins - 1
		}
		for ri, id := range st.Regions {
			if s := st.Share[b][ri]; s > 0 {
				out[id] += mass * s
			}
		}
	}
	return out
}

// Transitions returns the bin boundaries (as normalized time) where the
// dominant region changes, skipping empty bins — the sub-phase boundaries
// visible through the call-stack lens.
func (r *StackResult) Transitions() []float64 {
	var out []float64
	var prev uint32
	seen := false
	for b, d := range r.Dominant {
		if d == 0 {
			continue
		}
		if seen && d != prev {
			out = append(out, float64(b)/float64(r.Bins))
		}
		prev, seen = d, true
	}
	return out
}
