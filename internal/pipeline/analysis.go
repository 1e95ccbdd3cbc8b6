package pipeline

import (
	"context"
	"fmt"
	"log/slog"
	"runtime"
	"time"

	"repro/internal/burst"
	"repro/internal/cluster"
	"repro/internal/counters"
	"repro/internal/folding"
	"repro/internal/online"
	"repro/internal/parallel"
	"repro/internal/profile"
	"repro/internal/trace"
)

// Config parameterizes an analysis run. It mirrors the analysis knobs of
// core.Options (core builds one from its Options) so the batch and
// streaming entry points are driven by a single configuration.
type Config struct {
	// MinBurstDuration filters bursts shorter than this (0 keeps all).
	MinBurstDuration trace.Time
	// Cluster configures the online classifier's training. Exact runs
	// resolve no phases: core.Reduce clusters their bursts.
	Cluster cluster.Config
	// Fold configures folding; Fold.Counter is ignored (Counters below
	// selects what is folded).
	Fold folding.Config
	// Counters lists the counters folded per phase in online mode
	// (default TOT_INS, FP_OPS, L1_DCM, L2_DCM). Exact mode retains
	// attached samples, so core folds any counter set afterwards.
	Counters []counters.Counter
	// StackBins sets the call-stack folding resolution (default 50).
	StackBins int
	// MaxPhases bounds how many clusters get per-phase folding in online
	// mode (default 5).
	MaxPhases int
	// Parallelism bounds fan-out (classifier training, snapshot
	// assembly); 0 selects runtime.GOMAXPROCS(0).
	Parallelism int
	// NoSamples skips sample attachment and folding entirely — for tools
	// that only need the bursts, the profile fragment and the iteration
	// marks (cmd/burstcluster, cmd/trstats).
	NoSamples bool
	// Online selects the bounded-memory path: train a cluster.Model on
	// the first TrainBursts kept bursts and compact it to its centroids
	// (online.Train), classify the rest against it as they arrive, and
	// fold samples incrementally per phase (online.Folder /
	// folding.StackFolder), never retaining them. Memory then scales with
	// bursts + bins instead of total records, at the cost of approximate
	// (though typically >95%-agreeing) assignments.
	// The default exact mode is the map half of core's analysis
	// algebra: it buffers the kept bursts and their samples, in canonical
	// order, and resolves no phases; core.Reduce clusters them.
	Online bool
	// TrainBursts is the online training-prefix length (default 512).
	TrainBursts int
	// Resume marks a shard that does not start at the trace origin, so a
	// rank's first MPI event may legally be an exit (the head of a call
	// opened by the previous shard). It only affects the flat-profile
	// fragment; the burst extractor is self-synchronizing at MPI exits.
	Resume bool
	// Lenient enables degraded-mode analysis: when an online run's
	// classifier cannot be trained, a duration-quantile fallback split
	// keeps the run useful (recorded in Outcome.Warnings). It does not
	// change how the source decodes — pass a Lenient-mode reader for
	// that; the decode stage collects a lenient reader's salvage stats
	// into Outcome.Decode either way.
	Lenient bool
	// Logger receives structured progress (each stage's counters at debug
	// level once the run ends, online training outcomes and fallbacks at
	// info level). nil disables logging.
	Logger *slog.Logger
}

// SetDefaults sets every unset field to its default. core.Options
// applies its own defaults through it, so each is written only here.
func (c *Config) SetDefaults() {
	if len(c.Counters) == 0 {
		c.Counters = []counters.Counter{
			counters.TotIns, counters.FPOps, counters.L1DCM, counters.L2DCM,
		}
	}
	if c.StackBins == 0 {
		c.StackBins = 50
	}
	if c.MaxPhases == 0 {
		c.MaxPhases = 5
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	if c.Cluster.Parallelism == 0 {
		c.Cluster.Parallelism = c.Parallelism
	}
	if c.TrainBursts <= 0 {
		c.TrainBursts = 512
	}
	if c.Cluster.Logger == nil {
		c.Cluster.Logger = c.Logger
	}
}

// RecordCounts tallies the records an analysis consumed, by kind.
type RecordCounts struct {
	Events, Samples, Comms int64
}

// PhaseFolds is one phase's incrementally-folded analysis (online mode).
type PhaseFolds struct {
	// ClusterID is the phase's cluster id from the training clustering.
	ClusterID int
	// Instances counts the burst instances routed into the folders.
	Instances int
	// Folds holds each counter's folded reconstruction; counters that
	// could not be folded are in FoldErrors instead.
	Folds      map[counters.Counter]*folding.Result
	FoldErrors map[counters.Counter]error
	// Stacks is the folded call-stack view (nil when no stack samples).
	Stacks *folding.StackResult
}

// Outcome is what the pipeline measured in one pass over the record
// stream. It carries no summary: core.Reduce resolves the phases and
// derives coverage, structure, iterations and the profile from it.
type Outcome struct {
	// Meta is the stream's metadata.
	Meta trace.Metadata
	// Records counts the records consumed, by kind.
	Records RecordCounts
	// Bursts is the number of bursts extracted; Kept those surviving the
	// duration filter, in global (Start, Rank) order. An online run sets
	// their Cluster labels; an exact run leaves them unlabelled.
	Bursts int
	Kept   []burst.Burst
	// KeptTime and AllTime are the kept and the total burst time, whose
	// ratio is the filter's coverage; they merge across shards by
	// addition.
	KeptTime, AllTime trace.Time
	// RankBursts counts extracted (pre-filter) bursts per rank; a reduce
	// step uses the per-shard counts to rebase Burst.Index offsets.
	RankBursts []int
	// Marks holds the raw per-rank iteration marker times, mergeable by
	// per-rank concatenation in shard order.
	Marks map[int32][]trace.Time
	// ProfilePartial is the mergeable flat-profile fragment;
	// profile.Merge turns it into the flat profile.
	ProfilePartial *profile.Partial
	// Attached holds, per kept burst, its samples (exact mode without
	// NoSamples only).
	Attached [][]trace.Sample
	// Clustering is the online run's labelling of the kept bursts
	// (online mode only): Assign reflects the streamed classifications
	// while K, Eps, MinPts and Silhouette come from the training
	// clustering (Features is nil — no full feature matrix ever exists).
	Clustering cluster.Result
	// OnlinePhases holds the per-phase incremental folds (online mode
	// only), ordered by cluster id.
	OnlinePhases []PhaseFolds
	// TrainErr records a failed online classifier training (online mode
	// only; the run then degrades to zero phases, mirroring a batch run
	// that finds no clusters).
	TrainErr string
	// Online records which mode produced this outcome.
	Online bool
	// Stages carries the per-stage metrics of the run.
	Stages []Metrics
	// Decode summarizes what a lenient (salvage) decode dropped; nil when
	// the source was not a lenient trace.StreamReader (bare or checked).
	Decode *trace.DecodeStats
	// Warnings itemizes every degraded-mode concession the run made (the
	// online-training fallback); decode-level warnings are derived from
	// Decode by core.Reduce.
	Warnings []string
}

// analysis is the state of one run, owned by the calling goroutine.
type analysis struct {
	cfg  Config
	meta *trace.Metadata

	// per-stage counters; decode's live with the read-ahead goroutine
	extractM, phaseM, foldM Metrics

	// extract
	x          *burst.Extractor
	fresh      []burst.Burst // the kept bursts closed in the current block
	records    RecordCounts
	bursts     int
	rankBursts []int
	keptTime   trace.Time
	allTime    trace.Time
	prof       *profile.PartialBuilder
	marks      map[int32][]trace.Time

	// phase: bursts collect in arrival order in store until finalize
	// gathers them, sorted, into kept; online runs label them
	store      keptStore
	kept       []burst.Burst
	clustering cluster.Result // online mode
	model      *cluster.Model // online mode, once trained
	trainErr   error
	finalized  bool
	warnings   []string

	// fold routing, built by finalize
	byRank   [][]int // per rank: indices into kept, ascending Start
	cursor   []int
	attached [][]trace.Sample

	// online incremental folding
	phases   map[int]*phaseFold
	phaseIDs []int
	rankBuf  []instanceBuf

	stackChunk []uint32 // arena for attached-sample stack copies (exact mode)
}

// phaseFold bundles one phase's incremental folders.
type phaseFold struct {
	id        int
	folders   []*online.Folder // parallel to cfg.Counters
	stacks    *folding.StackFolder
	instances int
}

// instanceBuf accumulates the open instance's samples on one rank. The
// slices are reused across instances; sample stacks are compressed to
// the innermost frame, stored in leaves and aliased one-element slices.
type instanceBuf struct {
	samples []trace.Sample
	leaves  []uint32
}

// RunContext drives the full analysis pipeline over a record stream
// and blocks until it completes. A read-ahead goroutine decodes src
// while the calling goroutine takes each decoded block through extract,
// phase and fold. ctx is checked before each block; once it is
// cancelled, the run stops the decoder, waits for the source's pending
// NextBlock to return, and returns ctx.Err(). This is what gives the
// analysis daemon per-request deadlines and client-disconnect
// cancellation. A failed or cancelled run never returns a partial
// Outcome, and no goroutine outlives the call.
func RunContext(ctx context.Context, src trace.Source, cfg Config) (*Outcome, error) {
	cfg.SetDefaults()
	meta := src.Meta()
	if err := meta.Validate(); err != nil {
		return nil, err
	}
	x, _ := burst.NewExtractor(meta.Ranks) // ranks >= 1 was validated
	a := &analysis{
		cfg: cfg, meta: meta, x: x,
		extractM: Metrics{Stage: "extract"},
		// The exact phase stage keeps the name "cluster", which reports
		// carry; core.Reduce fills its RecordsOut, the labelled burst
		// count, once the phases are resolved.
		phaseM:     Metrics{Stage: "cluster"},
		foldM:      Metrics{Stage: "attach"},
		rankBursts: make([]int, meta.Ranks),
		marks:      map[int32][]trace.Time{},
	}
	if cfg.Online {
		a.phaseM.Stage, a.foldM.Stage = "classify", "fold"
	}
	a.prof, _ = profile.NewPartialBuilder(meta.Ranks, cfg.Resume) // ranks >= 1 was validated

	d := startReadAhead(src)
	err := a.run(ctx, d)
	d.stop()
	stages := []Metrics{d.m, a.extractM, a.phaseM, a.foldM}
	if cfg.Logger != nil {
		for _, m := range stages {
			cfg.Logger.Debug("stage done", "stage", m.Stage,
				"records_in", m.RecordsIn, "records_out", m.RecordsOut, "wall", m.Wall)
		}
	}
	// A cancelled context outranks whatever error the cancellation
	// provoked (a read error wrapped as ErrBadFormat, say), so callers
	// can rely on errors.Is(err, context.Canceled).
	if cerr := ctx.Err(); cerr != nil {
		return nil, cerr
	}
	if err != nil {
		return nil, err
	}
	return a.outcome(stages, d.stats), nil
}

// run takes each decoded block through extract, phase and fold and
// hands it back, then flushes the phase and fold stages. It returns the
// first error: the context's, a stage's, or the source's.
func (a *analysis) run(ctx context.Context, d *readAhead) error {
	for blk := range d.full {
		err := a.block(ctx, blk)
		d.free <- blk
		if err != nil {
			return err
		}
	}
	if d.err != nil {
		return d.err
	}
	t := time.Now()
	if !a.finalized {
		a.finalize()
	}
	lap(&a.phaseM, &t)
	if a.cfg.Online && !a.cfg.NoSamples {
		a.flushInstances()
	}
	lap(&a.foldM, &t)
	return nil
}

// block takes one block through extract, phase and fold, adding each
// call's time to its stage's wall.
func (a *analysis) block(ctx context.Context, cols *trace.ColBlock) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	t := time.Now()
	if err := a.extract(cols); err != nil {
		return err
	}
	lap(&a.extractM, &t)
	a.phase(cols)
	lap(&a.phaseM, &t)
	a.fold(cols)
	lap(&a.foldM, &t)
	return nil
}

// lap adds the time since *t to m's wall and moves *t to now.
func lap(m *Metrics, t *time.Time) {
	now := time.Now()
	m.Wall += now.Sub(*t)
	*t = now
}

// extract scans an event block through the incremental burst extractor,
// the profile builder and the iteration-marker collector, leaving the
// kept bursts it closed in a.fresh; sample and comm blocks just tally.
// One scratch Event is assembled per row — the consumers copy what they
// keep.
func (a *analysis) extract(cols *trace.ColBlock) error {
	a.fresh = a.fresh[:0]
	n := cols.Len()
	a.extractM.RecordsIn += int64(n)
	switch cols.Kind() {
	case trace.KindEvent:
		a.records.Events += int64(n)
		for i := 0; i < n; i++ {
			e := trace.Event{
				Rank:  cols.Ranks[i],
				Time:  trace.Time(cols.Times[i]),
				Type:  trace.EventType(cols.Types[i]),
				Value: cols.Values[i],
			}
			if cols.Flags[i] != 0 {
				e.HasCounters = true
				for c := range cols.Ctrs {
					e.Counters[c] = cols.Ctrs[c][i]
				}
			}
			b, ok, err := a.x.Add(&e)
			if err != nil {
				return err
			}
			if ok {
				a.bursts++
				a.rankBursts[b.Rank]++
				d := b.Duration()
				a.allTime += d
				if d >= a.cfg.MinBurstDuration {
					a.keptTime += d
					a.fresh = append(a.fresh, b)
				}
			}
			a.prof.Add(&e)
			if e.Type == trace.EvIteration {
				a.marks[e.Rank] = append(a.marks[e.Rank], e.Time)
			}
		}
	case trace.KindSample:
		a.records.Samples += int64(n)
	case trace.KindComm:
		a.records.Comms += int64(n)
	}
	a.extractM.RecordsOut += int64(len(a.fresh))
	return nil
}

// phase collects the kept bursts extract closed. All bursts are known
// at the event→sample boundary (sections are ordered, and blocks are
// homogeneous, so the first sample block marks it), so it sorts them
// there, before the first sample is routed. In online mode it also
// labels them: it trains the classifier on the first TrainBursts bursts
// mid-stream and classifies the rest as they arrive.
func (a *analysis) phase(cols *trace.ColBlock) {
	a.phaseM.RecordsIn += int64(len(a.fresh))
	for i := range a.fresh {
		if a.cfg.Online && a.model != nil {
			a.fresh[i].Cluster = a.model.Classify(&a.fresh[i])
		}
		a.store.add(&a.fresh[i])
		if a.cfg.Online && a.model == nil && a.trainErr == nil &&
			a.store.n == a.cfg.TrainBursts {
			a.train()
		}
	}
	if cols.Kind() == trace.KindSample && !a.finalized {
		a.finalize()
	}
}

// train fits the online model on the current training prefix and
// classifies any bursts already collected beyond it. A failed training
// (no clusters, all noise) degrades the run to zero phases, mirroring a
// batch run whose clustering finds nothing.
func (a *analysis) train() {
	n := min(a.cfg.TrainBursts, a.store.n)
	var cl *online.Classifier
	var err error
	a.store.prefix(n, func(training []burst.Burst) {
		cl, err = online.Train(training, a.cfg.Cluster)
	})
	if err != nil {
		a.trainErr = err
		if a.cfg.Logger != nil {
			a.cfg.Logger.Info("online training failed", "bursts", n, "err", err)
		}
		return
	}
	a.model = cl.Model
	if a.cfg.Logger != nil {
		a.cfg.Logger.Info("online classifier trained", "bursts", n,
			"phases", a.model.K, "eps", a.model.Eps)
	}
	for i := n; i < a.store.n; i++ {
		b := a.store.at(i)
		b.Cluster = a.model.Classify(b)
	}
}

// finalize runs once all bursts are known: gather them in canonical
// order, settle an online run's labelling, and build the per-rank
// routing index the fold stage walks.
func (a *analysis) finalize() {
	a.finalized = true
	if a.cfg.Online && a.model == nil && a.store.n > 0 {
		a.train()
	}
	a.kept = a.store.gather()
	if md := a.model; md != nil {
		assign := make([]int, len(a.kept))
		for i := range a.kept {
			assign[i] = a.kept[i].Cluster
		}
		a.clustering = md.Result(assign)
	} else if a.cfg.Online && a.cfg.Lenient && len(a.kept) > 0 {
		// Online training failed or never had enough bursts; degrade to
		// the quantile split instead of a zero-phase report.
		a.fallbackClustering("online classifier unavailable")
	}

	// Count per rank first, then cut every rank's list out of one array
	// sized to the kept bursts.
	count := make([]int, a.meta.Ranks)
	for i := range a.kept {
		count[a.kept[i].Rank]++
	}
	a.byRank = make([][]int, a.meta.Ranks)
	idx := make([]int, len(a.kept))
	for r, c := range count {
		a.byRank[r], idx = idx[:0:c], idx[c:]
	}
	for i := range a.kept {
		r := a.kept[i].Rank
		a.byRank[r] = append(a.byRank[r], i)
	}
	a.cursor = make([]int, a.meta.Ranks)
	if a.cfg.Online {
		a.phases = map[int]*phaseFold{}
		for id := 1; id <= min(a.clustering.K, a.cfg.MaxPhases); id++ {
			pf := &phaseFold{id: id, stacks: folding.NewStackFolder(a.cfg.StackBins)}
			for _, c := range a.cfg.Counters {
				pf.folders = append(pf.folders, online.NewFolderConfig(c, a.cfg.Fold))
			}
			a.phases[id] = pf
			a.phaseIDs = append(a.phaseIDs, id)
		}
		a.rankBuf = make([]instanceBuf, a.meta.Ranks)
	} else if !a.cfg.NoSamples {
		a.attached = make([][]trace.Sample, len(a.kept))
	}
}

// fallbackClustering labels an online run's bursts by the
// duration-quantile split (lenient mode only) and records why.
func (a *analysis) fallbackClustering(why string) {
	a.clustering = cluster.QuantileFallback(a.kept, 2)
	a.warnings = append(a.warnings, fmt.Sprintf(
		"%s; fell back to a duration-quantile split (%d phases over %d bursts)",
		why, a.clustering.K, len(a.kept)))
	if a.cfg.Logger != nil {
		a.cfg.Logger.Info("clustering fallback", "why", why,
			"phases", a.clustering.K, "bursts", len(a.kept))
	}
}

// fold routes each sample of a sample block to its burst: it attaches a
// copy in exact mode and folds it incrementally in online mode.
func (a *analysis) fold(cols *trace.ColBlock) {
	if !a.cfg.NoSamples && cols.Kind() == trace.KindSample {
		for i := 0; i < cols.Len(); i++ {
			a.routeSample(cols, i)
		}
	}
}

// routeSample advances the per-rank cursor to the burst containing
// sample row i of cols (bursts per rank are time-ordered and samples
// arrive in time order, so the walk never rewinds — the streaming
// equivalent of burst.AttachSamples) and attaches or folds it. The row
// is read straight from the columns; a Sample struct is assembled only
// for the samples that land in a kept burst.
func (a *analysis) routeSample(cols *trace.ColBlock, i int) {
	a.foldM.RecordsIn++
	r := int(cols.Ranks[i])
	if r < 0 || r >= len(a.byRank) {
		return
	}
	t := trace.Time(cols.Times[i])
	idx := a.byRank[r]
	cur := a.cursor[r]
	if a.cfg.Online {
		for cur < len(idx) && a.kept[idx[cur]].End <= t {
			a.closeInstance(r, idx[cur])
			cur++
		}
		a.cursor[r] = cur
		if cur < len(idx) && t >= a.kept[idx[cur]].Start {
			buf := &a.rankBuf[r]
			cp := trace.Sample{Rank: cols.Ranks[i], Time: t}
			for c := range cols.Ctrs {
				cp.Counters[c] = cols.Ctrs[c][i]
			}
			if lo, hi := cols.StackOff[i], cols.StackOff[i+1]; hi > lo {
				j := len(buf.leaves)
				buf.leaves = append(buf.leaves, cols.Frames[lo])
				cp.Stack = buf.leaves[j : j+1 : j+1]
			}
			buf.samples = append(buf.samples, cp)
		}
		return
	}
	for cur < len(idx) && a.kept[idx[cur]].End <= t {
		cur++
	}
	a.cursor[r] = cur
	if cur < len(idx) && t >= a.kept[idx[cur]].Start {
		cp := trace.Sample{Rank: cols.Ranks[i], Time: t}
		for c := range cols.Ctrs {
			cp.Counters[c] = cols.Ctrs[c][i]
		}
		cp.Stack = a.stackSlice(cols.Frames[cols.StackOff[i]:cols.StackOff[i+1]])
		ki := idx[cur]
		a.attached[ki] = append(a.attached[ki], cp)
		a.foldM.RecordsOut++
	}
}

// stackSlice copies frames into a chunked append-only arena and returns
// a capacity-capped alias, so attaching a sample costs no allocation of
// its own. Returned slices outlive the run (they end up in the Report's
// attached samples), so chunks come from the regular heap, not the
// pools. An empty stack returns nil, matching the record decoder.
func (a *analysis) stackSlice(frames []uint32) []uint32 {
	need := len(frames)
	if need == 0 {
		return nil
	}
	if cap(a.stackChunk)-len(a.stackChunk) < need {
		size := 2 * cap(a.stackChunk)
		if size < 1024 {
			size = 1024
		}
		if size < need {
			size = need
		}
		// Previous chunks stay alive through the slices already handed out.
		a.stackChunk = make([]uint32, 0, size)
	}
	j := len(a.stackChunk)
	a.stackChunk = append(a.stackChunk, frames...)
	return a.stackChunk[j : j+need : j+need]
}

// closeInstance folds the finished burst instance on rank r — with
// whatever samples accumulated for it — into its phase's folders, then
// resets the rank's accumulation buffer for the next instance.
func (a *analysis) closeInstance(r, ki int) {
	b := &a.kept[ki]
	if pf := a.phases[b.Cluster]; pf != nil {
		inst := folding.Instance{
			Rank: b.Rank, Start: b.Start, End: b.End,
			Base: b.Base, Totals: b.Delta,
			Samples: a.rankBuf[r].samples,
		}
		for _, f := range pf.folders {
			f.Add(&inst)
		}
		pf.stacks.Add(&inst)
		pf.instances++
		a.foldM.RecordsOut++
	}
	a.rankBuf[r].samples = a.rankBuf[r].samples[:0]
	a.rankBuf[r].leaves = a.rankBuf[r].leaves[:0]
}

// flushInstances closes every burst the sample cursor never passed
// (trailing bursts, sample-less ranks) so each kept burst contributes an
// instance exactly once, as offline folding does.
func (a *analysis) flushInstances() {
	for r := range a.byRank {
		for ; a.cursor[r] < len(a.byRank[r]); a.cursor[r]++ {
			a.closeInstance(r, a.byRank[r][a.cursor[r]])
		}
	}
}

// outcome assembles the final Outcome of a completed run.
func (a *analysis) outcome(stages []Metrics, decode *trace.DecodeStats) *Outcome {
	out := &Outcome{
		Meta:           *a.meta,
		Records:        a.records,
		Bursts:         a.bursts,
		Kept:           a.kept,
		Clustering:     a.clustering,
		Attached:       a.attached,
		Online:         a.cfg.Online,
		Decode:         decode,
		Warnings:       a.warnings,
		KeptTime:       a.keptTime,
		AllTime:        a.allTime,
		RankBursts:     a.rankBursts,
		Marks:          a.marks,
		ProfilePartial: a.prof.Partial(),
	}
	if a.trainErr != nil {
		out.TrainErr = a.trainErr.Error()
	}
	if a.cfg.Online && len(a.phaseIDs) > 0 {
		out.OnlinePhases = make([]PhaseFolds, len(a.phaseIDs))
		// Snapshot assembly (isotonic + PCHIP fits per counter) is the only
		// post-stream work, fanned out per phase.
		parallel.ForEach(len(a.phaseIDs), a.cfg.Parallelism, func(i int) {
			pf := a.phases[a.phaseIDs[i]]
			ph := PhaseFolds{
				ClusterID:  pf.id,
				Instances:  pf.instances,
				Folds:      make(map[counters.Counter]*folding.Result),
				FoldErrors: make(map[counters.Counter]error),
			}
			for ci, c := range a.cfg.Counters {
				if res, err := pf.folders[ci].Snapshot(); err != nil {
					ph.FoldErrors[c] = err
				} else {
					ph.Folds[c] = res
				}
			}
			if pf.stacks.Samples() > 0 {
				ph.Stacks = pf.stacks.Snapshot()
			}
			out.OnlinePhases[i] = ph
		})
	}
	out.Stages = stages
	return out
}
