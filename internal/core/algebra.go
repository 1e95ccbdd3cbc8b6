// The mergeable-report algebra: analysis =
// Reduce(map(MapShardContext, shards)). MapShardContext runs the
// pipeline's map half over one shard of a trace and captures what it
// measured in a Partial; Reduce pools the partials, resolves their
// phases (streamed online labels, a broadcast cluster.Model, or fresh
// clustering of the pooled bursts), derives every summary once and
// assembles the public Report. AnalyzeContext, AnalyzeStreamContext and
// the online path are compositions over this algebra, each reducing one
// whole-trace partial; TestShardedEquivalence locks
// Reduce(MapShardContext...) deep-equal (bit-identical floats) with the
// whole-trace analysis for any shard count.
package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/burst"
	"repro/internal/cluster"
	"repro/internal/folding"
	"repro/internal/parallel"
	"repro/internal/pipeline"
	"repro/internal/profile"
	"repro/internal/structure"
	"repro/internal/trace"
)

// Partial is one shard's mergeable analysis state: the kept burst set
// with attached samples, the flat-profile fragment, decode/degraded
// stats and the per-stage metrics. It carries what the pipeline
// measured and no summary; Reduce derives that. Exact-mode partials
// serialize to JSON (the foldsvc coordinator ships them between
// daemons); partials from the fused online path carry in-memory folding
// accumulators and must be reduced in-process.
type Partial struct {
	// Spec places the shard in its split; Reduce uses it to detect
	// missing shards when a degraded coordinator drops one.
	Spec ShardSpec
	// Meta is the shard's metadata (rank count and duration are the whole
	// trace's — shards share the virtual timeline).
	Meta trace.Metadata
	// Records counts the records this shard consumed, by kind.
	Records pipeline.RecordCounts
	// Bursts counts extracted (pre-filter) bursts; RankBursts the same
	// per rank, which Reduce uses to rebase Burst.Index across shards.
	Bursts     int
	RankBursts []int
	// KeptTime and AllTime are the burst-time sums behind the coverage
	// fraction, mergeable by addition.
	KeptTime, AllTime trace.Time
	// Kept holds the shard's surviving bursts in canonical (Start, Rank)
	// order; Attached holds, per kept burst, its samples.
	Kept     []burst.Burst
	Attached [][]trace.Sample
	// Marks holds per-rank iteration marker times.
	Marks map[int32][]trace.Time
	// Profile is the mergeable flat-profile fragment.
	Profile *profile.Partial
	// Decode summarizes what a lenient decode of this shard dropped.
	Decode *trace.DecodeStats `json:",omitempty"`
	// Warnings carries shard-local degradations in pipeline order.
	Warnings []string `json:",omitempty"`
	// Stages carries the shard's per-stage pipeline metrics.
	Stages []pipeline.Metrics

	// Online marks a fused whole-trace partial from the bounded-memory
	// path. Its bursts are labelled on arrival, so Clustering, TrainErr
	// and the folded snapshots in OnlinePhases travel through for Reduce
	// to use as they are. Online partials do not serialize (fold
	// accumulators hold error values and live samples); Reduce accepts
	// exactly one, in-process.
	Online       bool                  `json:",omitempty"`
	TrainErr     string                `json:",omitempty"`
	Clustering   *cluster.Result       `json:"-"`
	OnlinePhases []pipeline.PhaseFolds `json:"-"`
}

// MapShardContext runs the map half of the analysis algebra over one
// shard's record stream: decode, burst extraction, duration filtering,
// sample attachment and the profile fragment — but no phase resolution,
// which belongs to Reduce where every shard's bursts are visible. With
// opts.Stream.Online set the spec must be the whole trace (Count 1) and
// the pipeline runs fused: it labels each burst on arrival to route its
// samples to phase folders, and the returned Partial carries those
// labels and folds for Reduce to assemble.
//
// A whole-trace run (spec.Count 1) checks Trace.Validate's rules as the
// records stream past (trace.Checked). A strict run fails on the first
// violation with Validate's error for it, wrapping trace.ErrInvalid; a
// lenient run analyzes on and its Partial carries the violation as its
// first warning. A shard of a split is not checked: its ranks may start
// or end inside an MPI call, so a coordinator validates the trace it
// splits.
func MapShardContext(ctx context.Context, src trace.Source, spec ShardSpec, opts Options) (*Partial, error) {
	opts.setDefaults()
	cfg := opts.pipelineConfig()
	if opts.Stream.Online {
		if spec.Count != 1 || spec.Index != 0 {
			return nil, fmt.Errorf("core: online analysis cannot be sharded")
		}
	} else {
		cfg.Resume = spec.Index > 0
	}
	var chk *trace.CheckedSource
	if spec.Count == 1 {
		chk = trace.Checked(src, opts.decodeMode())
		src = chk
	}
	out, err := pipeline.RunContext(ctx, src, cfg)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if chk != nil && chk.Err() != nil {
		out.Warnings = append([]string{ValidationWarning(chk.Err())}, out.Warnings...)
	}
	p := &Partial{
		Spec:       spec,
		Meta:       out.Meta,
		Records:    out.Records,
		Bursts:     out.Bursts,
		RankBursts: out.RankBursts,
		KeptTime:   out.KeptTime,
		AllTime:    out.AllTime,
		Kept:       out.Kept,
		Attached:   out.Attached,
		Marks:      out.Marks,
		Profile:    out.ProfilePartial,
		Decode:     out.Decode,
		Warnings:   out.Warnings,
		Stages:     out.Stages,
	}
	if opts.Stream.Online {
		cl := out.Clustering
		p.Online = true
		p.TrainErr = out.TrainErr
		p.Clustering = &cl
		p.OnlinePhases = out.OnlinePhases
	}
	return p, nil
}

// TrainModelFromPartials trains a broadcastable cluster.Model on the
// pooled kept bursts of the given partials — the train-once step of the
// train-then-broadcast flow. Classifying the same partials' bursts
// against the returned model reproduces the pooled clustering exactly.
func TrainModelFromPartials(parts []*Partial, opts Options) (*cluster.Model, error) {
	opts.setDefaults()
	var pool []burst.Burst
	for _, p := range parts {
		if p == nil {
			continue
		}
		if p.Online {
			return nil, fmt.Errorf("core: cannot train a model from online partials")
		}
		pool = append(pool, p.Kept...)
	}
	burst.Sort(pool)
	return cluster.TrainModel(pool, opts.clusterConfig()), nil
}

// Reduce folds shard partials into the final Report. It is the one
// place an analysis is resolved and summarised, for both kinds of
// partial:
//
//  1. It pools the partials (see poolPartials).
//  2. It resolves the phases by one of three rules: an online partial's
//     streamed labels, a broadcast model (each burst classified against
//     it), or fresh clustering of the pooled bursts (model == nil). When
//     a model or the clustering finds no phase in lenient mode, a
//     duration-quantile split stands in.
//  3. It derives the summary once: coverage, cluster-time coverage,
//     loops, SPMD score, iterations and the merged flat profile.
//  4. It fans out over the phases, one panic-isolated slot each.
//
// Fresh clustering of a single whole-trace partial is the batch
// analysis; classifying against a model trained on these partials'
// pooled bursts reproduces it exactly. An online partial must come alone
// and without a model. nil entries in parts (skipped shards) are
// ignored; Spec gaps among the survivors mark the report degraded only
// through what the caller adds — Reduce itself just withholds the
// cross-shard profile, whose boundary handoffs need every shard.
func Reduce(parts []*Partial, model *cluster.Model, opts Options) (*Report, error) {
	opts.setDefaults()
	alive, err := survivors(parts, model)
	if err != nil {
		return nil, err
	}
	all := poolPartials(alive)
	rep := &Report{
		App:      all.Meta.App,
		Ranks:    all.Meta.Ranks,
		Meta:     all.Meta,
		Records:  all.Records,
		Online:   all.Online,
		TrainErr: all.TrainErr,
		Pipeline: all.Stages,
		Bursts:   all.Bursts,
		Filtered: all.Bursts - len(all.Kept),
	}
	// Degradations in a stable order: salvage-decode stats first, then
	// the pipeline's fallbacks, then a reduce-time fallback, then phase
	// failures.
	if all.Decode != nil {
		rep.NoteDecode(*all.Decode)
	}
	if len(all.Warnings) > 0 {
		rep.Warnings = append(rep.Warnings, all.Warnings...)
		rep.Degraded = true
	}
	resolve(rep, all, model, opts)
	// Silhouette is NaN for degenerate clusterings (<2 clusters, as the
	// quantile fallback can produce); sanitize so the Report stays JSON-
	// encodable (encoding/json rejects NaN).
	if math.IsNaN(rep.Clustering.Silhouette) {
		rep.Clustering.Silhouette = 0
	}
	summarize(rep, all, alive)
	analyzePhases(rep, all, opts)
	rep.Warnings = BoundWarnings(rep.Warnings)
	return rep, nil
}

// survivors drops the nil entries of parts (skipped shards) and checks
// that the rest can be reduced together.
func survivors(parts []*Partial, model *cluster.Model) ([]*Partial, error) {
	alive := make([]*Partial, 0, len(parts))
	for _, p := range parts {
		if p != nil {
			alive = append(alive, p)
		}
	}
	if len(alive) == 0 {
		return nil, fmt.Errorf("core: no partials to reduce")
	}
	first := alive[0]
	if first.Online {
		if len(alive) != 1 {
			return nil, fmt.Errorf("core: online partials cannot be merged")
		}
		if model != nil {
			return nil, fmt.Errorf("core: online partials cannot be classified against a model")
		}
	}
	for _, p := range alive {
		if p.Online != first.Online {
			return nil, fmt.Errorf("core: cannot mix online and exact partials")
		}
		if p.Meta.Ranks != first.Meta.Ranks {
			return nil, fmt.Errorf("core: partial rank counts differ (%d vs %d)", p.Meta.Ranks, first.Meta.Ranks)
		}
	}
	return alive, nil
}

// poolPartials merges the surviving partials into one. A lone partial
// (every batch, stream and session analysis) is used in place: its
// bursts are neither copied nor rebased, and phase resolution
// overwrites every Cluster label, so reducing the same partial again
// gives the same report. Several are concatenated, with shard-local
// burst indices rebased to whole-trace per-rank indices. Exact bursts
// end in canonical (Start, Rank) order with their sample groups; an
// online partial's are in that order already. The pooled Profile is
// nil: summarize merges the fragments.
func poolPartials(parts []*Partial) *Partial {
	first := parts[0]
	if len(parts) == 1 {
		all := *first
		all.Stages = mergeStages(parts)
		if all.Online {
			return &all
		}
		if len(all.Attached) != len(all.Kept) {
			// A worker may send a partial without its sample groups.
			all.Attached = make([][]trace.Sample, len(all.Kept))
		}
		sortKept(all.Kept, all.Attached)
		return &all
	}
	ranks := first.Meta.Ranks
	total := 0
	for _, p := range parts {
		total += len(p.Kept)
	}
	all := &Partial{
		Meta:       first.Meta,
		RankBursts: make([]int, ranks),
		Kept:       make([]burst.Burst, 0, total),
		Attached:   make([][]trace.Sample, 0, total),
		Marks:      map[int32][]trace.Time{},
		Stages:     mergeStages(parts),
	}
	for _, p := range parts {
		base := len(all.Kept)
		all.Kept = append(all.Kept, p.Kept...)
		// RankBursts holds the bursts of the shards before p, per rank.
		for i := base; i < len(all.Kept); i++ {
			if r := int(all.Kept[i].Rank); r >= 0 && r < ranks {
				all.Kept[i].Index += all.RankBursts[r]
			}
		}
		if len(p.Attached) == len(p.Kept) {
			all.Attached = append(all.Attached, p.Attached...)
		} else {
			all.Attached = append(all.Attached, make([][]trace.Sample, len(p.Kept))...)
		}
		for r := 0; r < ranks && r < len(p.RankBursts); r++ {
			all.RankBursts[r] += p.RankBursts[r]
		}
		for r, ts := range p.Marks {
			all.Marks[r] = append(all.Marks[r], ts...)
		}
		all.Records.Events += p.Records.Events
		all.Records.Samples += p.Records.Samples
		all.Records.Comms += p.Records.Comms
		all.Bursts += p.Bursts
		all.KeptTime += p.KeptTime
		all.AllTime += p.AllTime
		if p.Decode != nil {
			if all.Decode == nil {
				all.Decode = &trace.DecodeStats{}
			}
			all.Decode.Add(*p.Decode)
		}
		all.Warnings = append(all.Warnings, p.Warnings...)
	}
	sortKept(all.Kept, all.Attached)
	return all
}

// sortKept puts bursts and their sample groups in canonical (Start,
// Rank) order together — a strict total order over a trace's bursts, so
// the permutation is unique. Bursts already in order, as a lone partial
// from the pipeline always is, are left as they are.
func sortKept(kept []burst.Burst, att [][]trace.Sample) {
	inOrder := true
	for i := 1; i < len(kept) && inOrder; i++ {
		a, b := &kept[i-1], &kept[i]
		inOrder = a.Start < b.Start || a.Start == b.Start && a.Rank <= b.Rank
	}
	if inOrder {
		return
	}
	keys := make([]trace.Key, len(kept))
	for i := range kept {
		keys[i] = trace.Key{Time: kept[i].Start, Rank: kept[i].Rank, Seq: i}
	}
	trace.SortKeys(keys)
	// Slot j takes the burst that sat at keys[j].Seq. Walking the
	// permutation's cycles moves each burst and its group once; a slot
	// is done once its Seq is -1.
	for i := range keys {
		if keys[i].Seq < 0 {
			continue
		}
		b, a := kept[i], att[i]
		j := i
		for keys[j].Seq != i {
			src := keys[j].Seq
			kept[j], att[j] = kept[src], att[src]
			keys[j].Seq = -1
			j = src
		}
		kept[j], att[j] = b, a
		keys[j].Seq = -1
	}
}

// resolve labels the pooled bursts and sets rep.Clustering by one of
// Reduce's three rules. In lenient mode, a model or a clustering that
// finds no phase gives way to the duration-quantile split, and the
// report says so. (An online run that cannot train falls back in the
// pipeline, which must label its bursts before their samples arrive.)
func resolve(rep *Report, all *Partial, model *cluster.Model, opts Options) {
	kept := all.Kept
	var why string
	switch {
	case all.Online:
		if all.Clustering != nil {
			rep.Clustering = *all.Clustering
		}
		return
	case len(kept) == 0:
		return
	case model != nil:
		assign := make([]int, len(kept))
		for i := range kept {
			assign[i] = model.Classify(&kept[i])
			kept[i].Cluster = assign[i]
		}
		rep.Clustering = model.Result(assign)
		rep.Clustering.Features = cluster.Features(kept, model.UseIPC)
		why = "model classification found no phases"
	default:
		rep.Clustering = cluster.ClusterBursts(kept, opts.clusterConfig())
		why = "clustering found no phases"
	}
	if rep.Clustering.K > 0 || !opts.Lenient {
		return
	}
	rep.Clustering = cluster.QuantileFallback(kept, 2)
	rep.Warnings = append(rep.Warnings, fmt.Sprintf(
		"%s; fell back to a duration-quantile split (%d phases over %d bursts)",
		why, rep.Clustering.K, len(kept)))
	rep.Degraded = true
	if opts.Logger != nil {
		opts.Logger.Info("clustering fallback", "why", why,
			"phases", rep.Clustering.K, "bursts", len(kept))
	}
}

// summarize derives the report's summary from the pooled, labelled
// bursts: coverage, cluster-time coverage, loops, SPMD score, iterations
// and the flat profile, plus the phase stage's labelled-burst count.
// The profile needs every shard: each boundary handoff (open MPI call,
// carried compute baseline) is settled between neighbours.
func summarize(rep *Report, all *Partial, parts []*Partial) {
	kept := all.Kept
	if all.AllTime > 0 {
		rep.CoverageKept = float64(all.KeptTime) / float64(all.AllTime)
	}
	if len(kept) > 0 {
		if len(rep.Clustering.Assign) == len(kept) {
			rep.ClusterTimeCoverage = cluster.ClusterTimeCoverage(kept, rep.Clustering.Assign)
		}
		seqs := structure.Sequences(kept)
		rep.Loops = structure.DetectLoops(seqs)
		rep.SPMDScore = structure.SPMDScore(seqs)
	}
	rep.Iterations = structure.IterationsFromMarks(all.Marks)

	profs := make([]*profile.Partial, 0, len(parts))
	for _, p := range parts {
		if p.Profile != nil {
			profs = append(profs, p.Profile)
		}
	}
	if !covered(parts) || len(profs) != len(parts) {
		rep.ProfileErr = "profile unavailable: not every shard survived"
	} else if prof, err := profile.Merge(profs, all.Meta.Duration); err != nil {
		rep.ProfileErr = err.Error()
	} else {
		rep.Profile = prof
	}

	// The phase stage's RecordsOut is the labelled (non-noise) burst
	// count, which the map half of an exact analysis cannot know.
	var labelled int64
	for i := range kept {
		if kept[i].Cluster != cluster.Noise {
			labelled++
		}
	}
	for i := range rep.Pipeline {
		if st := rep.Pipeline[i].Stage; st == "cluster" || st == "classify" {
			rep.Pipeline[i].RecordsOut = labelled
		}
	}
}

// analyzePhases fans out over the report's phases, cluster ids 1..n
// (the top min(K, MaxPhases) clusters of an exact analysis, the folded
// phases of an online one). Each phase is analyzed independently against
// the read-only pooled bursts and written to its own pre-sized slot, so
// the fan-out preserves ordering and determinism exactly. A panic in one
// phase's analysis is contained to its slot: the phase comes back as a
// stub carrying the recovered panic, the report is marked degraded, and
// every other phase is unaffected.
func analyzePhases(rep *Report, all *Partial, opts Options) {
	n := min(rep.Clustering.K, opts.MaxPhases)
	if all.Online {
		n = len(all.OnlinePhases)
	}
	if n <= 0 {
		return
	}
	rep.Phases = make([]Phase, n)
	panics := make([]string, n)
	parallel.ForEach(n, opts.Parallelism, func(idx int) {
		cid := idx + 1
		defer func() {
			if r := recover(); r != nil {
				panics[idx] = fmt.Sprintf("%v", r)
				rep.Phases[idx] = failedPhase(cid, panics[idx])
			}
		}()
		if all.Online {
			rep.Phases[idx] = onlinePhase(&rep.Meta, all.Kept, &all.OnlinePhases[idx])
			return
		}
		instances := folding.InstancesFromBursts(all.Kept, all.Attached, cid)
		rep.Phases[idx] = analyzePhase(&rep.Meta, all.Kept, instances, cid, opts)
	})
	// In phase order, so the report stays deterministic.
	for idx, msg := range panics {
		if msg != "" {
			rep.Warnings = append(rep.Warnings, fmt.Sprintf(
				"phase %d analysis failed and was skipped: %s", idx+1, msg))
			rep.Degraded = true
		}
	}
}

// covered reports whether the partials form a complete split: specs
// 0..Count-1 all present, with a consistent count.
func covered(parts []*Partial) bool {
	count := parts[0].Spec.Count
	if count < 1 || len(parts) != count {
		return false
	}
	seen := make([]bool, count)
	for _, p := range parts {
		if p.Spec.Count != count || p.Spec.Index < 0 || p.Spec.Index >= count || seen[p.Spec.Index] {
			return false
		}
		seen[p.Spec.Index] = true
	}
	return true
}

// mergeStages sums per-stage metrics across shards (stage lists match —
// every shard ran the same stages) into a fresh list. Wall keeps the
// slowest shard's time, since shards run concurrently; summarize fills
// the phase stage's RecordsOut after phase resolution.
func mergeStages(parts []*Partial) []pipeline.Metrics {
	merged := append([]pipeline.Metrics(nil), parts[0].Stages...)
	for _, p := range parts[1:] {
		if len(p.Stages) != len(merged) {
			continue
		}
		for i := range merged {
			merged[i].RecordsIn += p.Stages[i].RecordsIn
			merged[i].RecordsOut += p.Stages[i].RecordsOut
			merged[i].Bytes += p.Stages[i].Bytes
			if p.Stages[i].Wall > merged[i].Wall {
				merged[i].Wall = p.Stages[i].Wall
			}
		}
	}
	return merged
}
