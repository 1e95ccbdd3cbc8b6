// NBody walkthrough: load imbalance inside one cluster.
//
// The n-body force computation is one cluster — every rank executes the
// same code — yet ranks near the middle of the domain decomposition carry
// up to 50% more particles. Aggregate profiles hide this: the cluster's
// mean looks fine. This example uses the per-rank statistics and per-rank
// folding of the forces phase to expose the imbalance and quantify the
// wasted wait time at the following reduction.
//
// Run with:
//
//	go run ./examples/nbody
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/folding"
	"repro/internal/sim"
)

func main() {
	const ranks, iters = 16, 150
	app := apps.NewNBody(iters)
	tr, err := sim.Run(apps.DefaultTraceConfig(ranks), app)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := core.AnalyzeContext(context.Background(), tr, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	ph := rep.Phases[0] // forces
	fmt.Printf("forces phase: %d instances, imbalance factor %.2f\n\n", ph.Instances, ph.ImbalanceFactor)

	fmt.Println("mean instance duration per rank (ms):")
	var maxD float64
	for _, d := range ph.RankMeanDuration {
		if d > maxD {
			maxD = d
		}
	}
	for r, d := range ph.RankMeanDuration {
		bar := int(d / maxD * 50)
		fmt.Printf("  rank %2d  %6.2f  |%s\n", r, d/1e6, strings.Repeat("#", bar))
	}

	// Wait-time estimate: at each Allreduce every rank waits for the
	// slowest; the wasted time is (max - own) summed over instances.
	var wasted, total float64
	for _, d := range ph.RankMeanDuration {
		wasted += (maxD - d) * float64(iters)
		total += d * float64(iters)
	}
	fmt.Printf("\nestimated wait time at the reduction: %.2f s (%.1f%% of forces compute)\n",
		wasted/1e9, 100*wasted/total)

	// Per-rank folding: the internal evolution is the same shape on every
	// rank — the imbalance is in volume, not in structure. Fold the
	// slowest and fastest ranks separately to show it.
	fmt.Println("\nper-rank folding (internal shape comparison):")
	slow, fast := extremeRanks(ph)
	for _, r := range []int32{fast, slow} {
		var subset []folding.Instance
		for _, in := range ph.FoldInstances {
			if in.Rank == r {
				subset = append(subset, in)
			}
		}
		res, err := folding.Fold(subset, folding.Config{Counter: counters.TotIns})
		if err != nil {
			fmt.Printf("  rank %d: %v\n", r, err)
			continue
		}
		fmt.Printf("  rank %2d: mean %.2f ms, %.0f MIPS mean rate, front-half share %.1f%%\n",
			r, res.MeanDuration/1e6, res.MeanTotal/res.MeanDuration*1e3,
			100*res.Cumulative[len(res.Cumulative)/2])
	}
	fmt.Println("  → same internal shape, different volume: repartition, don't restructure")

	fmt.Println("\nadvice:")
	for _, a := range ph.Advice {
		fmt.Println("  •", a)
	}
}

func extremeRanks(ph core.Phase) (slow, fast int32) {
	var maxD, minD float64
	first := true
	for r, d := range ph.RankMeanDuration {
		if d == 0 {
			continue
		}
		if first || d > maxD {
			maxD = d
			slow = int32(r)
		}
		if first || d < minD {
			minD = d
			fast = int32(r)
		}
		first = false
	}
	return slow, fast
}
