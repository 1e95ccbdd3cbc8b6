// The mergeable-report algebra: analysis =
// Reduce(map(MapShardContext, shards)). MapShardContext runs the
// extraction half of the pipeline over one shard of a trace and captures
// everything mergeable in a Partial; Reduce folds the partials back
// together, resolves phases (by clustering the pooled bursts or
// classifying them against a broadcast cluster.Model) and assembles the
// public Report. AnalyzeContext, AnalyzeStreamContext and the online
// path are thin compositions over this algebra; TestShardedEquivalence
// locks Reduce(MapShardContext...) deep-equal (bit-identical floats)
// with the single-pass path for any shard count.
package core

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/burst"
	"repro/internal/cluster"
	"repro/internal/pipeline"
	"repro/internal/profile"
	"repro/internal/structure"
	"repro/internal/trace"
)

// Partial is one shard's mergeable analysis state: the kept burst set
// with attached samples, the flat-profile fragment, decode/degraded
// stats and the per-stage metrics. Exact-mode partials serialize to
// JSON (the foldsvc coordinator ships them between daemons); partials
// from the fused online path carry in-memory folding accumulators and
// must be reduced in-process.
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
	// Profile is the mergeable flat-profile fragment (nil on fused online
	// partials, which resolve the profile in the pipeline instead).
	Profile *profile.Partial
	// Decode summarizes what a lenient decode of this shard dropped.
	Decode *trace.DecodeStats `json:",omitempty"`
	// Warnings carries shard-local degradations in pipeline order.
	Warnings []string `json:",omitempty"`
	// Stages carries the shard's per-stage pipeline metrics.
	Stages []pipeline.Metrics

	// Online marks a fused single-shard partial from the bounded-memory
	// path. Its phases are already resolved: Clustering, TrainErr, the
	// folded snapshots in OnlinePhases and the finished profile travel
	// through instead of mergeable state. Online partials do not
	// serialize (fold accumulators hold error values and live samples);
	// Reduce accepts exactly one, in-process.
	Online        bool                  `json:",omitempty"`
	TrainErr      string                `json:",omitempty"`
	Clustering    *cluster.Result       `json:"-"`
	OnlineProfile *profile.Profile      `json:"-"`
	ProfileErr    string                `json:",omitempty"`
	OnlinePhases  []pipeline.PhaseFolds `json:"-"`
}

// MapShardContext runs the map half of the analysis algebra over one
// shard's record stream: decode, burst extraction, duration filtering,
// sample attachment and the profile fragment — but no phase resolution,
// which belongs to Reduce where every shard's bursts are visible. With
// opts.Stream.Online set the spec must be the whole trace (Count 1) and
// the pipeline runs fused: the returned Partial carries the resolved
// online analysis for Reduce to assemble.
func MapShardContext(ctx context.Context, src trace.Source, spec ShardSpec, opts Options) (*Partial, error) {
	opts.setDefaults()
	cfg := opts.pipelineConfig()
	if opts.Stream.Online {
		if spec.Count > 1 {
			return nil, fmt.Errorf("core: online analysis cannot be sharded")
		}
	} else {
		cfg.Partial = true
		cfg.Resume = spec.Resume
	}
	out, err := pipeline.RunContext(ctx, src, cfg)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
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
		p.OnlineProfile = out.Profile
		p.ProfileErr = out.ProfileErr
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
	cl := opts.Cluster
	if cl.Logger == nil {
		cl.Logger = opts.Logger
	}
	return cluster.TrainModel(pool, cl), nil
}

// Reduce folds shard partials into the final Report. With model == nil
// the pooled kept bursts are clustered from scratch (for a single
// whole-trace partial this reproduces the seed single-pass analysis bit
// for bit); with a model each burst is classified against it instead —
// the broadcast flow, which also reproduces the single-pass result
// exactly when the model was trained on these partials' pooled bursts.
// nil entries in parts (skipped shards) are ignored; Spec gaps among the
// survivors mark the report degraded only through what the caller adds —
// Reduce itself just withholds the cross-shard profile, whose boundary
// handoffs need every shard.
func Reduce(parts []*Partial, model *cluster.Model, opts Options) (*Report, error) {
	opts.setDefaults()
	alive := make([]*Partial, 0, len(parts))
	for _, p := range parts {
		if p != nil {
			alive = append(alive, p)
		}
	}
	if len(alive) == 0 {
		return nil, fmt.Errorf("core: no partials to reduce")
	}
	if alive[0].Online {
		if len(alive) != 1 {
			return nil, fmt.Errorf("core: online partials cannot be merged")
		}
		if model != nil {
			return nil, fmt.Errorf("core: online partials cannot be classified against a model")
		}
		return assemble(outcomeFromOnline(alive[0]), opts), nil
	}
	ranks := alive[0].Meta.Ranks
	for _, p := range alive {
		if p.Online {
			return nil, fmt.Errorf("core: cannot mix online and exact partials")
		}
		if p.Meta.Ranks != ranks {
			return nil, fmt.Errorf("core: partial rank counts differ (%d vs %d)", p.Meta.Ranks, ranks)
		}
	}
	out := mergePartials(alive, model, opts)
	return assemble(out, opts), nil
}

// mergePartials folds exact-mode partials into the pipeline.Outcome the
// report assembler consumes, resolving phases over the pooled bursts.
func mergePartials(parts []*Partial, model *cluster.Model, opts Options) *pipeline.Outcome {
	first := parts[0]
	ranks := first.Meta.Ranks
	out := &pipeline.Outcome{Meta: first.Meta}

	// A lone partial (every batch and session analysis) is pooled in
	// place instead of copied: its indices need no rebase, the canonical
	// sort below is idempotent, and phase resolution overwrites every
	// Cluster, so reducing the same partial again gives the same report.
	lone := len(parts) == 1 && len(first.Attached) == len(first.Kept)
	var kept []burst.Burst
	var att [][]trace.Sample
	if lone {
		kept, att = first.Kept, first.Attached
	} else {
		total := 0
		for _, p := range parts {
			total += len(p.Kept)
		}
		kept = make([]burst.Burst, 0, total)
		att = make([][]trace.Sample, 0, total)
	}
	marks := map[int32][]trace.Time{}
	offsets := make([]int, ranks)
	var keptTime, allTime trace.Time
	var profs []*profile.Partial
	var decode *trace.DecodeStats

	for _, p := range parts {
		if !lone {
			base := len(kept)
			kept = append(kept, p.Kept...)
			// Rebase shard-local burst indices to whole-trace per-rank
			// indices.
			for i := base; i < len(kept); i++ {
				if r := int(kept[i].Rank); r >= 0 && r < ranks {
					kept[i].Index += offsets[r]
				}
			}
			if len(p.Attached) == len(p.Kept) {
				att = append(att, p.Attached...)
			} else {
				att = append(att, make([][]trace.Sample, len(p.Kept))...)
			}
		}
		for r := 0; r < ranks && r < len(p.RankBursts); r++ {
			offsets[r] += p.RankBursts[r]
		}
		for r, ts := range p.Marks {
			marks[r] = append(marks[r], ts...)
		}
		out.Records.Events += p.Records.Events
		out.Records.Samples += p.Records.Samples
		out.Records.Comms += p.Records.Comms
		out.Bursts += p.Bursts
		keptTime += p.KeptTime
		allTime += p.AllTime
		if p.Profile != nil {
			profs = append(profs, p.Profile)
		}
		if p.Decode != nil {
			if decode == nil {
				decode = &trace.DecodeStats{}
			}
			decode.Add(*p.Decode)
		}
		out.Warnings = append(out.Warnings, p.Warnings...)
	}

	// Canonical (Start, Rank) order — a strict total order over a trace's
	// bursts, so the permutation (applied to bursts and their attached
	// samples together) is unique.
	sort.Sort(&keptByStartRank{kept, att})

	out.Kept = kept
	out.Attached = att
	out.KeptTime, out.AllTime = keptTime, allTime
	out.RankBursts = offsets
	out.Marks = marks
	if allTime > 0 {
		out.CoverageKept = float64(keptTime) / float64(allTime)
	}
	out.Iterations = structure.IterationsFromMarks(marks)
	out.Decode = decode
	out.Stages = mergeStages(parts)

	// Phase resolution over the pooled bursts: the reduce half of what
	// pipeline.finalize does in a single-pass run.
	cl := opts.Cluster
	if cl.Logger == nil {
		cl.Logger = opts.Logger
	}
	if len(kept) > 0 {
		if model != nil {
			assign := make([]int, len(kept))
			for i := range kept {
				id := model.Classify(&kept[i])
				kept[i].Cluster = id
				assign[i] = id
			}
			out.Clustering = cluster.Result{
				Assign: assign, K: model.K, Eps: model.Eps,
				MinPts: model.MinPts, Silhouette: model.Silhouette,
				Features: cluster.Features(kept, model.UseIPC),
			}
			if out.Clustering.K == 0 && opts.Lenient {
				reduceFallback(out, kept, "model classification found no phases", opts)
			}
		} else {
			out.Clustering = cluster.ClusterBursts(kept, cl)
			if out.Clustering.K == 0 && opts.Lenient {
				reduceFallback(out, kept, "clustering found no phases", opts)
			}
		}
		if len(out.Clustering.Assign) == len(kept) {
			out.ClusterTimeCoverage = cluster.ClusterTimeCoverage(kept, out.Clustering.Assign)
		}
		seqs := structure.Sequences(kept)
		out.Loops = structure.DetectLoops(seqs)
		out.SPMDScore = structure.SPMDScore(seqs)
	}
	patchClusterStage(out.Stages, kept)

	// The flat profile needs every shard: each boundary handoff (open MPI
	// call, carried compute baseline) is settled between neighbours.
	if covered(parts) && len(profs) == len(parts) {
		if prof, err := profile.Merge(profs, first.Meta.Duration); err == nil {
			out.Profile = prof
		} else {
			out.ProfileErr = err.Error()
		}
	} else {
		out.ProfileErr = "profile unavailable: not every shard survived"
	}
	return out
}

// reduceFallback mirrors the pipeline's lenient degraded-mode split when
// phase resolution at reduce time finds nothing.
func reduceFallback(out *pipeline.Outcome, kept []burst.Burst, why string, opts Options) {
	out.Clustering = cluster.QuantileFallback(kept, 2)
	out.Warnings = append(out.Warnings, fmt.Sprintf(
		"%s; fell back to a duration-quantile split (%d phases over %d bursts)",
		why, out.Clustering.K, len(kept)))
	if opts.Logger != nil {
		opts.Logger.Info("clustering fallback", "why", why,
			"phases", out.Clustering.K, "bursts", len(kept))
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
// every shard ran the same stages). Wall keeps the slowest shard's time,
// since shards run concurrently; the patched cluster RecordsOut is
// filled by patchClusterStage after phase resolution.
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

// patchClusterStage fills the cluster stage's RecordsOut — the non-noise
// burst count, which the map phase cannot know — after reduce-time phase
// resolution, matching what a single-pass run tallies in finalize.
func patchClusterStage(stages []pipeline.Metrics, kept []burst.Burst) {
	for i := range stages {
		if stages[i].Stage != "cluster" {
			continue
		}
		var n int64
		for j := range kept {
			if kept[j].Cluster != cluster.Noise {
				n++
			}
		}
		stages[i].RecordsOut = n
		return
	}
}

// outcomeFromOnline rebuilds the pipeline outcome a fused online partial
// captured, recomputing the burst-derived aggregates from the carried
// bursts (same pure functions over the same inputs, so bit-identical to
// the fused run).
func outcomeFromOnline(p *Partial) *pipeline.Outcome {
	out := &pipeline.Outcome{
		Meta:         p.Meta,
		Records:      p.Records,
		Bursts:       p.Bursts,
		Kept:         p.Kept,
		Attached:     p.Attached,
		Online:       true,
		TrainErr:     p.TrainErr,
		Stages:       p.Stages,
		Decode:       p.Decode,
		Warnings:     p.Warnings,
		Profile:      p.OnlineProfile,
		ProfileErr:   p.ProfileErr,
		Iterations:   structure.IterationsFromMarks(p.Marks),
		KeptTime:     p.KeptTime,
		AllTime:      p.AllTime,
		RankBursts:   p.RankBursts,
		Marks:        p.Marks,
		OnlinePhases: p.OnlinePhases,
	}
	if p.Clustering != nil {
		out.Clustering = *p.Clustering
	}
	if p.AllTime > 0 {
		out.CoverageKept = float64(p.KeptTime) / float64(p.AllTime)
	}
	if len(p.Kept) > 0 {
		if len(out.Clustering.Assign) == len(p.Kept) {
			out.ClusterTimeCoverage = cluster.ClusterTimeCoverage(p.Kept, out.Clustering.Assign)
		}
		seqs := structure.Sequences(p.Kept)
		out.Loops = structure.DetectLoops(seqs)
		out.SPMDScore = structure.SPMDScore(seqs)
	}
	return out
}

// keptByStartRank sorts bursts and their attached-sample slices by the
// canonical (Start, Rank) order in lockstep.
type keptByStartRank struct {
	b []burst.Burst
	a [][]trace.Sample
}

func (s *keptByStartRank) Len() int { return len(s.b) }
func (s *keptByStartRank) Less(i, j int) bool {
	if s.b[i].Start != s.b[j].Start {
		return s.b[i].Start < s.b[j].Start
	}
	return s.b[i].Rank < s.b[j].Rank
}
func (s *keptByStartRank) Swap(i, j int) {
	s.b[i], s.b[j] = s.b[j], s.b[i]
	s.a[i], s.a[j] = s.a[j], s.a[i]
}

// AnalyzeShardedContext is AnalyzeContext decomposed over the algebra:
// Split the trace into n shards, MapShardContext each, Reduce with no
// model. The Report is deep-equal to AnalyzeContext's for every n and
// mode (TestShardedEquivalence).
func AnalyzeShardedContext(ctx context.Context, tr *trace.Trace, n int, mode ShardMode, opts Options) (*Report, error) {
	opts.setDefaults()
	var valWarn string
	if err := tr.Validate(); err != nil {
		if !opts.Lenient {
			return nil, fmt.Errorf("core: %w", err)
		}
		valWarn = fmt.Sprintf("trace failed validation (%v); analyzing anyway", err)
	}
	shards := Split(tr, n, mode)
	parts := make([]*Partial, len(shards))
	for i, sh := range shards {
		p, err := MapShardContext(ctx, trace.NewTraceSource(sh.Trace), sh.Spec, opts)
		if err != nil {
			return nil, err
		}
		parts[i] = p
	}
	rep, err := Reduce(parts, nil, opts)
	if err != nil {
		return nil, err
	}
	if valWarn != "" {
		rep.Warnings = append([]string{valWarn}, rep.Warnings...)
		rep.Degraded = true
	}
	return rep, nil
}
