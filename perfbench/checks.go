package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/kernels"
)

// minPurity is the share of a phase's instances that must come from its
// majority kernel.
const minPurity = 0.9

// maxFoldErrorPct is the paper's headline bound on folding error.
const maxFoldErrorPct = 5.0

// digest is the SHA-256 of rep's JSON with every stage wall zeroed, the
// only field that may differ between repeats and between analysis
// paths. Repeats compare digests so a run does not hold a whole
// report's bytes.
func digest(rep *core.Report) ([sha256.Size]byte, error) {
	for i := range rep.Pipeline {
		rep.Pipeline[i].Wall = 0
	}
	b, err := json.Marshal(rep)
	if err != nil {
		return [sha256.Size]byte{}, err
	}
	return sha256.Sum256(b), nil
}

// checkReport verifies the report against the app's ground truth: every
// analyzed phase's majority oracle is one of the app's kernels with
// purity of at least minPurity, and the mean fold error over analyzed
// (phase, counter) pairs is below maxFoldErrorPct. It returns that mean
// in percent and the problems found.
func checkReport(rep *core.Report, ks map[int64]*kernels.Kernel) (float64, []string) {
	var problems []string
	if len(rep.Phases) == 0 {
		return 0, []string{"report has no phases"}
	}
	var sum float64
	var n int
	for _, ph := range rep.Phases {
		k, ok := ks[ph.MajorityOracle]
		if !ok {
			problems = append(problems, fmt.Sprintf("phase %d: majority oracle %d is not a kernel of the app", ph.ClusterID, ph.MajorityOracle))
			continue
		}
		if ph.OraclePurity < minPurity {
			problems = append(problems, fmt.Sprintf("phase %d: oracle purity %.3f < %.2f", ph.ClusterID, ph.OraclePurity, minPurity))
		}
		cs := make([]counters.Counter, 0, len(ph.Folds))
		for c := range ph.Folds {
			cs = append(cs, c)
		}
		sort.Slice(cs, func(i, j int) bool { return cs[i] < cs[j] })
		for _, c := range cs {
			sum += ph.Folds[c].MeanAbsDiff(k.ShapeOf(c))
			n++
		}
	}
	if n == 0 {
		return 0, append(problems, "no folded (phase, counter) pair to score")
	}
	pct := 100 * sum / float64(n)
	if pct >= maxFoldErrorPct {
		problems = append(problems, fmt.Sprintf("fold error %.3f%% >= %.0f%%", pct, maxFoldErrorPct))
	}
	return pct, problems
}
