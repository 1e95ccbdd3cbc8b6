package main

import (
	"fmt"
	"math"
)

// metricDef names one reported metric and its unit. The lists below
// must match BENCHMARK.json (TestMetricListsMatchBenchmarkJSON).
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run (--trace 0) reports, each on
// every workload. On live-session an operation is one append; on the
// batch workloads it is one analysis of the whole encoded trace.
var endToEnd = []metricDef{
	{"setup_s", "s"},        // median set-up: generate + encode (+ daemon start and session open)
	{"analyze_s", "s"},      // median wall, encoded bytes -> *core.Report (live-session: the final accumulated trace)
	{"alloc_mb", "MB"},      // heap bytes allocated per operation
	{"peak_rss_mb", "MB"},   // resident-set high-water mark: median per analysis, or over the live phase
	{"fold_error_pct", "%"}, // mean folded-curve error against the kernel's true shape
	{"lag_p50_ms", "ms"},    // due time -> first report that covers the operation's input
	{"lag_p90_ms", "ms"},
	{"success_ratio", "ratio"}, // operations that succeeded and passed every check, over those attempted
}

// perLayer are the metrics a traced run (--trace 1) reports.
var perLayer = []metricDef{
	{"trace.decode_s", "s"},
	{"trace.records", "count"},
	{"burst.extract_s", "s"},
	{"burst.kept_ratio", "ratio"},
	{"core.map_s", "s"},
	{"core.map_alloc_mb", "MB"},
	{"core.map_allocs", "count"},
	{"parallel.pool_miss_ratio", "ratio"},
	{"cluster.train_s", "s"},
	{"cluster.train_alloc_mb", "MB"},
	{"cluster.autoeps_s", "s"},
	{"cluster.dbscan_s", "s"},
	{"cluster.silhouette_s", "s"},
	{"cluster.points", "count"},
	{"cluster.k", "count"},
	{"cluster.noise_ratio", "ratio"},
	{"core.reduce_s", "s"},
	{"core.reduce_alloc_mb", "MB"},
	{"folding.fold_s", "s"},
	{"folding.points", "count"},
	{"folding.pruned_ratio", "ratio"},
	{"folding.fit_failures", "count"},
	{"online.train_s", "s"},
	{"core.encode_s", "s"},
	{"core.report_mb", "MB"},
	{"session.snapshots", "count"},
	{"session.snapshots_per_append", "ratio"},
	{"session.dropped", "count"},
	{"session.fsync_mean_ms", "ms"},
	{"session.append_p50_ms", "ms"},
	{"session.append_p90_ms", "ms"},
	{"session.reanalyze_s", "s"},
	{"foldsvc.client_retries", "count"},
	{"bench.span_sum_ratio", "ratio"},
	{"bench.generator_late_ms", "ms"},
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome collects what a run measured and what its checks found.
type outcome struct {
	attempted, failed int
	problems          []string
	values            map[string]float64
}

func newOutcome() *outcome { return &outcome{values: map[string]float64{}} }

// fail records a failed check; the run then reports correct=false.
func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// result renders the outcome against defs: every listed metric must
// have been measured as a finite number.
func (o *outcome) result(defs []metricDef) (*result, error) {
	res := &result{
		Correct:   len(o.problems) == 0 && o.failed == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		if !validName(d.name) || !validUnit(d.unit) {
			return nil, fmt.Errorf("malformed metric %q (unit %q)", d.name, d.unit)
		}
		v, ok := o.values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return res, nil
}
