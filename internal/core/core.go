// Package core is the analysis front-end — the public entry point a tool
// user drives. Analyze consumes a trace (and AnalyzeStream an encoded
// trace stream) and produces, per detected computation phase: the folded
// internal evolution of each hardware counter, the folded call-stack
// view, per-rank balance statistics, and heuristic performance advice,
// mirroring the paper's automated methodology (burst clustering for
// structure detection + folding for fine-grain insight). Both entry
// points run the same internal/pipeline stages, so batch and streaming
// analysis cannot drift apart.
package core

import (
	"context"
	"fmt"
	"log/slog"
	"math"
	"runtime"
	"sort"
	"time"

	"repro/internal/burst"
	"repro/internal/cluster"
	"repro/internal/counters"
	"repro/internal/folding"
	"repro/internal/parallel"
	"repro/internal/pipeline"
	"repro/internal/profile"
	"repro/internal/structure"
	"repro/internal/trace"
)

// Options parameterizes the pipeline. The zero value selects sensible
// defaults for every knob.
type Options struct {
	// MinBurstDuration filters bursts shorter than this before clustering
	// (default 50 µs).
	MinBurstDuration trace.Time
	// Cluster configures burst clustering.
	Cluster cluster.Config
	// Fold configures folding; Fold.Counter is ignored (Counters below
	// selects what is folded).
	Fold folding.Config
	// Counters lists the counters to fold per phase (default TOT_INS,
	// FP_OPS, L1_DCM, L2_DCM).
	Counters []counters.Counter
	// StackBins sets the call-stack folding resolution (default 50).
	StackBins int
	// MaxPhases bounds how many clusters (by total time) are analyzed in
	// depth (default 5).
	MaxPhases int
	// Parallelism bounds the worker count for per-phase analysis and
	// per-counter folding, and is forwarded to clustering when
	// Cluster.Parallelism is unset. 0 selects runtime.GOMAXPROCS(0);
	// 1 forces a fully sequential pipeline. The Report is deep-equal for
	// every value (see TestAnalyzeParallelDeterminism).
	Parallelism int
	// Stream configures the streaming-specific behavior.
	Stream StreamOptions
	// Lenient selects degraded-tolerant analysis for imperfect traces:
	// AnalyzeStream decodes in salvage mode (undecodable records are
	// dropped and tallied in Report.Decode instead of aborting), Analyze
	// tolerates a trace that fails validation, and a clustering that finds
	// no phases falls back to a duration-quantile split. Every concession
	// is itemized in Report.Warnings and flips Report.Degraded.
	Lenient bool
	// StallTimeout fails an analysis whose pipeline makes no progress for
	// this long with an error wrapping pipeline.ErrStalled (0 disables
	// the watchdog). It guards services against uploads that go quiet
	// without disconnecting; size it well above the longest clustering
	// pause expected for the trace sizes served.
	StallTimeout time.Duration
	// Logger receives live structured progress from the analysis —
	// per-stage completions at debug level, clustering and training
	// outcomes at info level — so a service can observe a run before the
	// Report exists. nil disables logging; the Report is identical either
	// way.
	Logger *slog.Logger
	// Columnar selects the record representation of the pipeline's hot
	// path. The zero value PathColumnar decodes records straight into
	// structure-of-arrays column blocks; PathRow is the original
	// record-at-a-time reference path. The Report is deep-equal either
	// way (see TestColumnarEquivalence) — the knob exists so the row
	// path stays exercisable as the reference implementation.
	Columnar HotPath
}

// HotPath selects the record representation the analysis pipeline
// iterates. The zero value is the columnar path.
type HotPath int

const (
	// PathColumnar streams structure-of-arrays trace.ColBlock batches
	// through the pipeline (the default).
	PathColumnar HotPath = iota
	// PathRow streams []trace.Record batches — the reference
	// implementation the columnar path is validated against.
	PathRow
)

// String names the hot path for logs and flags.
func (h HotPath) String() string {
	switch h {
	case PathColumnar:
		return "columnar"
	case PathRow:
		return "row"
	}
	return fmt.Sprintf("HotPath(%d)", int(h))
}

// StreamOptions selects how much the analysis may buffer. The zero value
// is exact mode: kept bursts and their samples are retained until the
// end of the event section so clustering and folding see exactly what a
// batch run sees, and the Report is deep-equal to Analyze's.
type StreamOptions struct {
	// Online switches to bounded-memory analysis: a centroid classifier
	// is trained on the first TrainBursts kept bursts and assigns the
	// rest as they arrive, and samples are folded incrementally per phase
	// instead of being retained. Memory then scales with bursts + bins
	// rather than records, at the cost of approximate phase assignments.
	// Phases in the resulting Report carry no FoldInstances.
	Online bool
	// TrainBursts is the online training-prefix length (default 512).
	TrainBursts int
}

// pipelineConfig translates Options into the pipeline's configuration.
func (o *Options) pipelineConfig() pipeline.Config {
	return pipeline.Config{
		MinBurstDuration: o.MinBurstDuration,
		Cluster:          o.Cluster,
		Fold:             o.Fold,
		Counters:         o.Counters,
		StackBins:        o.StackBins,
		MaxPhases:        o.MaxPhases,
		Parallelism:      o.Parallelism,
		Online:           o.Stream.Online,
		TrainBursts:      o.Stream.TrainBursts,
		Lenient:          o.Lenient,
		StallTimeout:     o.StallTimeout,
		Logger:           o.Logger,
		Columnar:         o.Columnar == PathColumnar,
	}
}

func (o *Options) setDefaults() {
	if o.MinBurstDuration == 0 {
		o.MinBurstDuration = 50_000
	}
	if len(o.Counters) == 0 {
		o.Counters = []counters.Counter{
			counters.TotIns, counters.FPOps, counters.L1DCM, counters.L2DCM,
		}
	}
	if o.StackBins == 0 {
		o.StackBins = 50
	}
	if o.MaxPhases == 0 {
		o.MaxPhases = 5
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	if o.Cluster.Parallelism == 0 {
		o.Cluster.Parallelism = o.Parallelism
	}
	// The pipeline always clusters in the full 3-D space (log duration,
	// log instructions, IPC); experiments wanting 2-D call the cluster
	// package directly.
	o.Cluster.UseIPC = true
}

// Phase is the analysis of one detected computation phase (cluster).
type Phase struct {
	// ClusterID is the phase's cluster id (1 = most computation time).
	ClusterID int
	// Instances is the number of burst instances in the phase.
	Instances int
	// FoldInstances retains the folding instances (bursts + attached
	// samples) so callers can re-fold with different configurations
	// (ablations) without re-running the pipeline. It is an in-memory
	// handle, not part of the serialized Report (the daemon would
	// otherwise ship every retained sample to the client).
	FoldInstances []folding.Instance `json:"-"`
	// TotalTime is the summed duration of all instances.
	TotalTime trace.Time
	// MeanDuration is the mean instance duration in ns.
	MeanDuration float64
	// MeanIPC is the mean instructions-per-cycle over instances.
	MeanIPC float64
	// MeanInstructions is the mean instruction total per instance,
	// aggregated from the burst counters. Unlike the folded views it
	// survives phases too short to fold, which makes it the robust
	// second axis when rebuilding the phase's raw-feature centroid for
	// cross-run matching (internal/diff).
	MeanInstructions float64
	// Folds maps each requested counter to its folded reconstruction;
	// counters that could not be folded are listed in FoldErrors instead.
	Folds map[counters.Counter]*folding.Result
	// FoldErrors records per-counter folding failures (e.g. a counter
	// that never increments in this phase). Like FoldInstances it is an
	// in-memory handle: error values do not survive a JSON round trip
	// (they marshal as {} and cannot unmarshal), so the serialized Report
	// carries the same information as strings in Warnings instead.
	FoldErrors map[counters.Counter]error `json:"-"`
	// Stacks is the folded call-stack view (nil when no samples carry
	// stacks).
	Stacks *folding.StackResult
	// RankMeanDuration is each rank's mean instance duration (ns); 0 for
	// ranks with no instances.
	RankMeanDuration []float64
	// ImbalanceFactor is max over ranks of RankMeanDuration divided by
	// the mean (1 = perfectly balanced).
	ImbalanceFactor float64
	// MajorityOracle and OraclePurity validate clustering against ground
	// truth when the trace carries oracle events: the most common true
	// kernel id among instances and the fraction of instances having it.
	MajorityOracle int64
	OraclePurity   float64
	// Advice lists heuristic performance observations for this phase.
	Advice []string
	// Warnings itemizes this phase's analysis concessions: counters whose
	// fold failed to fit, or — if the phase's analysis panicked — the
	// recovered panic (the rest of the report is unaffected either way).
	Warnings []string `json:",omitempty"`
}

// Report is the full analysis of a trace.
type Report struct {
	// App is the traced application name.
	App string
	// Ranks is the rank count.
	Ranks int
	// Meta is the trace metadata the analysis ran against.
	Meta trace.Metadata
	// Records counts the trace records the analysis consumed, by kind.
	Records pipeline.RecordCounts
	// Online reports whether the bounded-memory streaming path produced
	// this analysis (see StreamOptions); TrainErr records a failed online
	// classifier training (the report then has zero phases).
	Online   bool
	TrainErr string
	// Pipeline carries the per-stage metrics (records in/out, bytes, wall
	// time) of the analysis run, in stage order.
	Pipeline []pipeline.Metrics
	// Bursts is the number of bursts extracted; Filtered the number
	// dropped by the duration filter.
	Bursts, Filtered int
	// CoverageKept is the fraction of computation time the filter kept.
	CoverageKept float64
	// Clustering is the raw clustering result over the kept bursts.
	Clustering cluster.Result
	// ClusterTimeCoverage is the fraction of kept burst time inside
	// non-noise clusters.
	ClusterTimeCoverage float64
	// Profile is the flat MPI/compute profile of the trace; ProfileErr
	// records why it is nil when profiling failed (empty otherwise).
	Profile    *profile.Profile
	ProfileErr string
	// Iterations summarizes the main-loop iteration markers.
	Iterations structure.IterationStats
	// Loops is the detected per-rank repetition structure of the phase
	// sequence (folding's "iterative application" precondition, verified).
	Loops []structure.Loop
	// SPMDScore is the cross-rank phase-sequence consistency (1 = all
	// ranks execute identical sequences).
	SPMDScore float64
	// Phases analyzes the top clusters by total time.
	Phases []Phase
	// Degraded reports that the analysis completed with concessions —
	// salvage decoding dropped records, a phase's analysis panicked, the
	// clustering fell back to a quantile split, or the input trace failed
	// validation — each itemized in Warnings. Per-counter fold-fit
	// failures alone (Phase.FoldErrors/Phase.Warnings) do not set it;
	// they are routine on counters that never tick in a phase.
	Degraded bool `json:",omitempty"`
	// Warnings itemizes every report-level degradation in a stable order:
	// decode salvage first, then pipeline fallbacks, then phase failures.
	Warnings []string `json:",omitempty"`
	// Decode summarizes what lenient (salvage) decoding dropped; nil
	// unless the trace was decoded with Options.Lenient set (or the stats
	// were folded in via NoteDecode).
	Decode *trace.DecodeStats `json:",omitempty"`
}

// NoteDecode folds a lenient decode's salvage summary into the report —
// for batch tools that decoded the trace themselves (ReadFileLenient)
// before calling Analyze; the streaming path records this automatically.
func (r *Report) NoteDecode(st trace.DecodeStats) {
	r.Decode = &st
	if st.Degraded() {
		r.Warnings = append(st.Warnings(), r.Warnings...)
		r.Degraded = true
	}
}

// Analyze runs the full pipeline on an in-memory trace. It streams the
// trace through the same stage implementations AnalyzeStream uses, so
// the two are equivalent by construction (and verified deep-equal by
// TestAnalyzeStreamEquivalence). It is AnalyzeContext with a background
// context.
func Analyze(tr *trace.Trace, opts Options) (*Report, error) {
	return AnalyzeContext(context.Background(), tr, opts)
}

// AnalyzeContext is Analyze under a context: cancelling ctx stops the
// pipeline stages at the next block boundary and returns ctx.Err()
// (possibly wrapped; test with errors.Is). The analysis daemon uses
// this to bound each request by its deadline and to abandon work when
// the client disconnects.
func AnalyzeContext(ctx context.Context, tr *trace.Trace, opts Options) (*Report, error) {
	opts.setDefaults()
	var valWarn string
	if err := tr.Validate(); err != nil {
		if !opts.Lenient {
			return nil, fmt.Errorf("core: %w", err)
		}
		valWarn = fmt.Sprintf("trace failed validation (%v); analyzing anyway", err)
	}
	// One whole-trace shard through the map/reduce algebra — the identity
	// split, so batch analysis and sharded analysis cannot drift apart.
	p, err := MapShardContext(ctx, trace.NewTraceSource(tr), WholeSpec(), opts)
	if err != nil {
		return nil, err
	}
	rep, err := Reduce([]*Partial{p}, nil, opts)
	if err != nil {
		return nil, err
	}
	if valWarn != "" {
		rep.Warnings = append([]string{valWarn}, rep.Warnings...)
		rep.Degraded = true
	}
	return rep, nil
}

// assemble turns a pipeline outcome into the public Report.
func assemble(out *pipeline.Outcome, opts Options) *Report {
	rep := &Report{
		App:                 out.Meta.App,
		Ranks:               out.Meta.Ranks,
		Meta:                out.Meta,
		Records:             out.Records,
		Online:              out.Online,
		TrainErr:            out.TrainErr,
		Pipeline:            out.Stages,
		Bursts:              out.Bursts,
		Filtered:            out.Bursts - len(out.Kept),
		CoverageKept:        out.CoverageKept,
		Clustering:          out.Clustering,
		ClusterTimeCoverage: out.ClusterTimeCoverage,
		Profile:             out.Profile,
		ProfileErr:          out.ProfileErr,
		Iterations:          out.Iterations,
		Loops:               out.Loops,
		SPMDScore:           out.SPMDScore,
	}
	// Roll the pipeline's degradations up into the report: salvage-decode
	// stats first, then pipeline-level warnings (clustering fallbacks).
	if out.Decode != nil {
		rep.NoteDecode(*out.Decode)
	}
	if len(out.Warnings) > 0 {
		rep.Warnings = append(rep.Warnings, out.Warnings...)
		rep.Degraded = true
	}
	// Silhouette is NaN for degenerate clusterings (<2 clusters, as the
	// quantile fallback can produce); sanitize so the Report stays JSON-
	// encodable (encoding/json rejects NaN).
	if math.IsNaN(rep.Clustering.Silhouette) {
		rep.Clustering.Silhouette = 0
	}
	if out.Online {
		assembleOnline(rep, out, opts)
		rep.Warnings = BoundWarnings(rep.Warnings)
		return rep
	}
	kept := out.Kept
	nPhases := rep.Clustering.K
	if nPhases > opts.MaxPhases {
		nPhases = opts.MaxPhases
	}
	if nPhases > 0 {
		// Each phase is analyzed independently against the read-only burst
		// and sample sets and written to its own pre-sized slot, so the
		// fan-out preserves ordering and determinism exactly. A panic in
		// one phase's analysis is contained to its slot: the phase comes
		// back as a stub carrying the recovered panic, the report is
		// marked degraded, and every other phase is unaffected.
		rep.Phases = make([]Phase, nPhases)
		panics := make([]string, nPhases)
		parallel.ForEach(nPhases, opts.Parallelism, func(idx int) {
			cid := idx + 1
			defer func() {
				if r := recover(); r != nil {
					panics[idx] = fmt.Sprintf("%v", r)
					rep.Phases[idx] = failedPhase(cid, panics[idx])
				}
			}()
			instances := folding.InstancesFromBursts(kept, out.Attached, cid)
			rep.Phases[idx] = analyzePhase(&out.Meta, kept, instances, cid, opts)
		})
		notePhasePanics(rep, panics)
	}
	rep.Warnings = BoundWarnings(rep.Warnings)
	return rep
}

// failedPhase is the stub slot a panicked phase analysis leaves behind.
func failedPhase(cid int, msg string) Phase {
	return Phase{
		ClusterID: cid,
		Warnings:  []string{fmt.Sprintf("phase analysis failed: %s", msg)},
	}
}

// notePhasePanics folds recovered per-phase panics into the report-level
// warnings (in phase order, so the report stays deterministic).
func notePhasePanics(rep *Report, panics []string) {
	for idx, msg := range panics {
		if msg == "" {
			continue
		}
		rep.Warnings = append(rep.Warnings, fmt.Sprintf(
			"phase %d analysis failed and was skipped: %s", idx+1, msg))
		rep.Degraded = true
	}
}

func analyzePhase(meta *trace.Metadata, kept []burst.Burst, instances []folding.Instance, cid int, opts Options) Phase {
	ph := Phase{
		ClusterID:     cid,
		FoldInstances: instances,
		Folds:         make(map[counters.Counter]*folding.Result),
		FoldErrors:    make(map[counters.Counter]error),
	}
	aggregatePhase(&ph, meta, kept, cid)

	// Fold every requested counter from the phase's one shared x-order
	// of samples; the maps are filled in counter order afterwards.
	folds, foldErrs := folding.FoldCounters(instances, opts.Fold, opts.Counters, opts.Parallelism)
	for i, c := range opts.Counters {
		if foldErrs[i] != nil {
			ph.FoldErrors[c] = foldErrs[i]
			ph.Warnings = append(ph.Warnings, fmt.Sprintf("fold %s: %v", c, foldErrs[i]))
			continue
		}
		ph.Folds[c] = folds[i]
	}

	// Fold call stacks.
	st := folding.FoldStacks(instances, opts.StackBins)
	if st.Samples > 0 {
		ph.Stacks = st
	}

	ph.Advice = advise(meta, &ph)
	return ph
}

// aggregatePhase fills the burst-derived statistics of phase cid —
// instance counts, durations, IPC, per-rank balance, oracle purity. It
// is shared by the offline assembly and the streaming assembly, which
// differ only in where the folded views come from.
func aggregatePhase(ph *Phase, meta *trace.Metadata, kept []burst.Burst, cid int) {
	oracleCount := map[int64]int{}
	var ipcSum, insSum float64
	rankSum := parallel.GetFloat64(meta.Ranks)
	defer parallel.PutFloat64(rankSum)
	rankN := make([]int, meta.Ranks)
	for i := range kept {
		if kept[i].Cluster != cid {
			continue
		}
		ph.Instances++
		d := kept[i].Duration()
		ph.TotalTime += d
		ipcSum += kept[i].IPC()
		insSum += float64(kept[i].Instructions())
		rankSum[kept[i].Rank] += float64(d)
		rankN[kept[i].Rank]++
		if kept[i].OracleID != 0 {
			oracleCount[kept[i].OracleID]++
		}
	}
	if ph.Instances > 0 {
		ph.MeanDuration = float64(ph.TotalTime) / float64(ph.Instances)
		ph.MeanIPC = ipcSum / float64(ph.Instances)
		ph.MeanInstructions = insSum / float64(ph.Instances)
	}
	ph.RankMeanDuration = make([]float64, meta.Ranks)
	var rankMeanSum float64
	var rankCount int
	maxRank := 0.0
	for r := range rankSum {
		if rankN[r] > 0 {
			ph.RankMeanDuration[r] = rankSum[r] / float64(rankN[r])
			rankMeanSum += ph.RankMeanDuration[r]
			rankCount++
			if ph.RankMeanDuration[r] > maxRank {
				maxRank = ph.RankMeanDuration[r]
			}
		}
	}
	if rankCount > 0 && rankMeanSum > 0 {
		ph.ImbalanceFactor = maxRank / (rankMeanSum / float64(rankCount))
	}
	totalOracle := 0
	for id, n := range oracleCount {
		totalOracle += n
		if n > oracleCount[ph.MajorityOracle] {
			ph.MajorityOracle = id
		}
	}
	if totalOracle > 0 {
		ph.OraclePurity = float64(oracleCount[ph.MajorityOracle]) / float64(totalOracle)
	}
}

// advise derives heuristic performance observations from a phase analysis,
// the kind of suggestions the paper draws from folded views.
func advise(meta *trace.Metadata, ph *Phase) []string {
	var out []string

	if ph.ImbalanceFactor > 1.15 {
		out = append(out, fmt.Sprintf(
			"load imbalance: slowest rank averages %.0f%% of the mean instance duration — consider repartitioning",
			100*ph.ImbalanceFactor))
	}

	if f, ok := ph.Folds[counters.L1DCM]; ok {
		if front := f.Cumulative[len(f.Cumulative)/5]; front > 0.4 {
			out = append(out, fmt.Sprintf(
				"cache warm-up: %.0f%% of L1 misses occur in the first 20%% of the phase — blocking or software prefetch may help",
				100*front))
		}
	}
	if f, ok := ph.Folds[counters.L2DCM]; ok {
		if front := f.Cumulative[len(f.Cumulative)/5]; front > 0.4 {
			out = append(out, fmt.Sprintf(
				"working-set establishment: %.0f%% of L2 misses occur in the first 20%% of the phase",
				100*front))
		}
	}

	if f, ok := ph.Folds[counters.TotIns]; ok && len(f.Breakpoints) > 0 {
		out = append(out, fmt.Sprintf(
			"internal structure: instruction rate changes at normalized time %s — the phase hides %d sub-phases",
			formatBreaks(f.Breakpoints), len(f.Breakpoints)+1))
		// Identify the slowest sub-phase by mean rate between breakpoints.
		lo := 0.0
		edges := append(append([]float64{}, f.Breakpoints...), 1)
		slowLo, slowHi, slowRate := 0.0, 1.0, math.Inf(1)
		for _, hi := range edges {
			r := meanRateBetween(f, lo, hi)
			if r < slowRate {
				slowRate, slowLo, slowHi = r, lo, hi
			}
			lo = hi
		}
		overall := f.MeanTotal / f.MeanDuration
		if slowRate < 0.6*overall {
			out = append(out, fmt.Sprintf(
				"bottleneck sub-phase: [%.2f, %.2f] runs at %.0f%% of the phase's mean instruction rate — a memory-bound candidate",
				slowLo, slowHi, 100*slowRate/overall))
		}
	}

	if ph.Stacks != nil {
		if trs := ph.Stacks.Transitions(); len(trs) > 0 {
			names := make([]string, 0, len(ph.Stacks.Regions))
			for _, id := range ph.Stacks.Regions {
				names = append(names, meta.RegionName(id))
			}
			out = append(out, fmt.Sprintf(
				"call-stack folding attributes the phase to %d regions (%s) with transitions at %s",
				len(names), joinMax(names, 4), formatBreaks(trs)))
		}
		// Combined attribution: which region retires the instructions, and
		// is its instruction share out of line with its time share?
		if f, ok := ph.Folds[counters.TotIns]; ok {
			attr := folding.AttributeRegions(f, ph.Stacks)
			timeShare := regionTimeShares(ph.Stacks)
			for _, id := range ph.Stacks.Regions {
				ins, tm := attr[id], timeShare[id]
				if tm > 0.1 && ins > 0 && ins < 0.6*tm {
					out = append(out, fmt.Sprintf(
						"region %s retires %.0f%% of the instructions in %.0f%% of the time — the phase's low-efficiency stretch",
						meta.RegionName(id), 100*ins, 100*tm))
				}
			}
		}
	}

	// Derived-metric evolution: a rising misses-per-kilo-instruction curve
	// inside the phase means its tail is increasingly memory-bound.
	if fi, fm := ph.Folds[counters.TotIns], ph.Folds[counters.L1DCM]; fi != nil && fm != nil {
		if mki, err := folding.RatioCurve(fm, fi, 1000); err == nil {
			front := meanFinite(mki[:len(mki)/4])
			back := meanFinite(mki[3*len(mki)/4:])
			if front > 0 && back > 2*front {
				out = append(out, fmt.Sprintf(
					"memory pressure grows inside the phase: MKI rises from %.1f to %.1f — data reuse degrades toward the end",
					front, back))
			}
		}
	}

	// Coverage diagnostics: warn when the folded positions betray a
	// sampling clock correlated with the phase (the reconstruction would
	// interpolate blindly across the gaps).
	// Counter-id order, not map order: which counter the warning names
	// must not vary run to run.
	for c := counters.Counter(0); c < counters.NumCounters; c++ {
		f, ok := ph.Folds[c]
		if !ok {
			continue
		}
		if d := f.Diagnose(); d.SuspectAliasing {
			out = append(out, fmt.Sprintf(
				"warning: %s fold coverage is non-uniform (KS %.2f, max gap %.0f%% of the axis) — sampling may be correlated with phase starts; change the period or add jitter",
				c, d.KS, 100*d.MaxGap))
			break // one warning suffices; all counters share positions
		}
	}

	if ph.OraclePurity > 0 && ph.OraclePurity < 0.9 {
		out = append(out, fmt.Sprintf(
			"warning: cluster mixes kernels (oracle purity %.0f%%) — consider tightening clustering parameters",
			100*ph.OraclePurity))
	}
	return out
}

func meanFinite(xs []float64) float64 {
	var sum float64
	n := 0
	for _, x := range xs {
		if !math.IsNaN(x) && !math.IsInf(x, 0) {
			sum += x
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// regionTimeShares returns each region's fraction of the phase's stack
// samples — a proxy for its share of the phase's time.
func regionTimeShares(st *folding.StackResult) map[uint32]float64 {
	out := make(map[uint32]float64, len(st.Regions))
	if st.Bins == 0 {
		return out
	}
	occupied := 0
	for b := 0; b < st.Bins; b++ {
		if st.Dominant[b] != 0 {
			occupied++
		}
	}
	if occupied == 0 {
		return out
	}
	for b := 0; b < st.Bins; b++ {
		for ri, id := range st.Regions {
			out[id] += st.Share[b][ri] / float64(occupied)
		}
	}
	return out
}

func meanRateBetween(f *folding.Result, lo, hi float64) float64 {
	var sum float64
	var n int
	for i, x := range f.Grid {
		if x >= lo && x <= hi {
			sum += f.Rate[i]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func formatBreaks(bs []float64) string {
	s := ""
	for i, b := range bs {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%.2f", b)
	}
	return s
}

func joinMax(names []string, max int) string {
	sort.Strings(names)
	if len(names) > max {
		names = names[:max]
	}
	s := ""
	for i, n := range names {
		if i > 0 {
			s += ", "
		}
		s += n
	}
	return s
}
