package pipeline

import (
	"context"
	"fmt"
	"io"
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
	"repro/internal/structure"
	"repro/internal/trace"
)

// blockChanBuf bounds each inter-stage channel: at most this many blocks
// are in flight between two stages, which is what gives the pipeline
// backpressure and a constant working set.
const blockChanBuf = 4

// Config parameterizes an analysis run. It mirrors the analysis knobs of
// core.Options (core builds one from its Options) so the batch and
// streaming entry points are driven by a single configuration.
type Config struct {
	// MinBurstDuration filters bursts shorter than this (0 keeps all).
	MinBurstDuration trace.Time
	// Cluster configures burst clustering (exact mode) and classifier
	// training (online mode).
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
	// Parallelism bounds fan-out (clustering kernels, snapshot assembly);
	// 0 selects runtime.GOMAXPROCS(0).
	Parallelism int
	// NoSamples skips sample attachment and folding entirely — for tools
	// that only need bursts, clustering and structure (cmd/burstcluster,
	// cmd/trstats).
	NoSamples bool
	// Online selects the bounded-memory path: train a centroid
	// classifier on the first TrainBursts kept bursts, classify the rest
	// as they arrive, and fold samples incrementally per phase
	// (online.Folder / online.StackFolder), never retaining them. Memory
	// then scales with bursts + bins instead of total records, at the
	// cost of approximate (though typically >95%-agreeing) assignments.
	// The default exact mode buffers kept bursts and their samples and
	// defers clustering to the end of the event section, reproducing
	// batch output bit-for-bit.
	Online bool
	// TrainBursts is the online training-prefix length (default 512).
	TrainBursts int
	// BatchSize is the number of records per pipeline block (default 256).
	BatchSize int
	// Partial selects the map half of the sharded analysis algebra: the
	// run extracts, filters, sorts and attaches as usual but resolves no
	// phases — clustering, classification and fallback splitting are
	// deferred to the reduce step, which sees every shard's bursts at
	// once. The Outcome then carries the mergeable state (Kept, Attached,
	// Marks, RankBursts, ProfilePartial) instead of a clustering. Partial
	// and Online are mutually exclusive; core enforces that before
	// building a Config.
	Partial bool
	// Resume marks a shard that does not start at the trace origin, so a
	// rank's first MPI event may legally be an exit (the head of a call
	// opened by the previous shard). It only affects the flat-profile
	// fragment; the burst extractor is self-synchronizing at MPI exits.
	Resume bool
	// Lenient enables degraded-mode analysis: when the clustering over the
	// kept bursts degenerates to zero clusters, a duration-quantile
	// fallback split keeps the run useful (recorded in Outcome.Warnings).
	// The decode stage also collects salvage stats from a lenient
	// trace.StreamReader source into Outcome.Decode. It does not change
	// how a strict source decodes — pass a Lenient-mode reader for that.
	Lenient bool
	// StallTimeout arms a watchdog that fails the run with an error
	// wrapping ErrStalled when no stage makes progress for this long
	// (0 disables it). Size it well above the longest barrier-stage gap —
	// clustering a huge trace moves no blocks while it computes.
	StallTimeout time.Duration
	// Logger receives live structured progress (per-stage completions at
	// debug level, clustering and training outcomes at info level). nil
	// disables logging.
	Logger *slog.Logger
}

func (c *Config) setDefaults() {
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
	if c.BatchSize <= 0 {
		c.BatchSize = 256
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

// Outcome is everything the pipeline learned from one pass over the
// record stream; core assembles a Report from it.
type Outcome struct {
	// Meta is the stream's metadata.
	Meta trace.Metadata
	// Records counts the records consumed, by kind.
	Records RecordCounts
	// Bursts is the number of bursts extracted; Kept those surviving the
	// duration filter, in global (Start, Rank) order with Cluster set.
	Bursts int
	Kept   []burst.Burst
	// CoverageKept is the fraction of burst time the filter kept.
	CoverageKept float64
	// Clustering is the clustering over the kept bursts. In online mode
	// Assign reflects the streamed classifications while K, Eps, MinPts
	// and Silhouette come from the training clustering (Features is nil —
	// no full feature matrix ever exists).
	Clustering cluster.Result
	// ClusterTimeCoverage is the fraction of kept burst time inside
	// non-noise clusters.
	ClusterTimeCoverage float64
	// Loops and SPMDScore describe the phase-sequence structure.
	Loops     []structure.Loop
	SPMDScore float64
	// Profile is the flat MPI/compute profile; ProfileErr records why it
	// is nil when profiling failed.
	Profile    *profile.Profile
	ProfileErr string
	// Iterations summarizes EvIteration markers.
	Iterations structure.IterationStats
	// KeptTime and AllTime are the burst-time sums behind CoverageKept,
	// exposed so a reduce step can recompute coverage over all shards.
	KeptTime, AllTime trace.Time
	// RankBursts counts extracted (pre-filter) bursts per rank; a reduce
	// step uses the per-shard counts to rebase Burst.Index offsets.
	RankBursts []int
	// Marks holds the raw per-rank iteration marker times behind
	// Iterations, mergeable by per-rank concatenation in shard order.
	Marks map[int32][]trace.Time
	// ProfilePartial is the mergeable flat-profile fragment (Partial mode
	// only; the merged Profile is nil then).
	ProfilePartial *profile.Partial
	// Attached holds, per kept burst, its samples (exact mode only).
	Attached [][]trace.Sample
	// OnlinePhases holds the per-phase incremental folds (online mode
	// only), ordered by cluster id.
	OnlinePhases []PhaseFolds
	// TrainErr records a failed online classifier training (the run then
	// degrades to zero phases, mirroring a batch run that finds no
	// clusters).
	TrainErr string
	// Online records which mode produced this outcome.
	Online bool
	// Stages carries the per-stage metrics of the run.
	Stages []Metrics
	// Decode summarizes what a lenient (salvage) decode dropped; nil when
	// the source was not a lenient trace.StreamReader.
	Decode *trace.DecodeStats
	// Warnings itemizes every degraded-mode concession the run made
	// (clustering fallback, online-training fallback); decode-level
	// warnings are derived from Decode by the report assembler.
	Warnings []string
}

// block is the unit of flow between stages: a pooled
// structure-of-arrays batch of decoded records plus the kept bursts
// extraction closed while scanning it. Blocks are homogeneous in record
// kind (the decoder cuts them at section boundaries), so stages dispatch
// once per block instead of once per record. Ownership travels with the
// block; the final stage recycles it, so steady-state decoding allocates
// nothing.
type block struct {
	cols   *trace.ColBlock
	bursts []burst.Burst
}

// analysis is the shared state of one Run. Each field is written by
// exactly one stage; cross-stage visibility is ordered by the channel
// sends between them.
type analysis struct {
	cfg  Config
	meta *trace.Metadata

	// extract stage
	records    RecordCounts
	bursts     int
	rankBursts []int
	keptTime   trace.Time
	allTime    trace.Time
	prof       *profile.PartialBuilder
	marks      map[int32][]trace.Time

	// phase stage
	kept       []burst.Burst
	clustering cluster.Result
	classifier *online.Classifier
	trainErr   error
	finalized  bool
	warnings   []string

	// decode stage (lenient sources only)
	decode *trace.DecodeStats

	// fold stage routing, built by finalize
	byRank   [][]int // per rank: indices into kept, ascending Start
	cursor   []int
	attached [][]trace.Sample

	// online incremental folding
	phases   map[int]*phaseFold
	phaseIDs []int
	rankBuf  []instanceBuf

	// block recycling: free is the freelist the fold stage feeds and the
	// decode stage drains; all tracks every block ever created (decode
	// goroutine only) so a completed run can return their arenas to the
	// parallel pools.
	free       chan *block
	all        []*block
	stackChunk []uint32 // arena for attached-sample stack copies (exact mode)
}

// phaseFold bundles one phase's incremental folders.
type phaseFold struct {
	id        int
	folders   []*online.Folder // parallel to cfg.Counters
	stacks    *online.StackFolder
	instances int
}

// instanceBuf accumulates the open instance's samples on one rank. The
// slices are reused across instances; sample stacks are compressed to
// the innermost frame, stored in leaves and aliased one-element slices.
type instanceBuf struct {
	samples []trace.Sample
	leaves  []uint32
}

// Run drives the full analysis pipeline over a record stream and blocks
// until it completes. It is RunContext with a background context.
func Run(src trace.Source, cfg Config) (*Outcome, error) {
	return RunContext(context.Background(), src, cfg)
}

// RunContext is Run under a context: when ctx is cancelled the stages
// stop at the next block boundary, blocked senders are released, and
// the call returns ctx.Err(). This is what gives the analysis daemon
// per-request deadlines and client-disconnect cancellation; a cancelled
// run never returns a partial Outcome.
func RunContext(ctx context.Context, src trace.Source, cfg Config) (*Outcome, error) {
	cfg.setDefaults()
	meta := src.Meta()
	if err := meta.Validate(); err != nil {
		return nil, err
	}
	a := &analysis{cfg: cfg, meta: meta, marks: map[int32][]trace.Time{}}
	// Capacity exceeds the blocks that can be in flight at once: a full
	// buffer per channel plus one held by each stage.
	a.free = make(chan *block, 4*blockChanBuf+4)
	a.rankBursts = make([]int, meta.Ranks)
	a.prof, _ = profile.NewPartialBuilder(meta.Ranks, cfg.Resume) // ranks >= 1 was validated

	p := New()
	p.Logger = cfg.Logger
	stop := p.Watch(ctx)
	defer stop()
	blocks := a.decodeStage(p, src)
	extracted := a.extractStage(p, blocks)
	phased := a.phaseStage(p, extracted)
	a.foldStage(p, phased)
	// Armed only now: the watchdog reads the stage list, which must be
	// complete before another goroutine looks at it.
	stopStall := p.WatchStall(cfg.StallTimeout)
	defer stopStall()
	if err := p.waitOrAbandon(); err != nil {
		// A cancelled context outranks whatever secondary error the
		// cancellation provoked inside a stage (e.g. a read error wrapped
		// as ErrBadFormat), so callers can rely on errors.Is(err,
		// context.Canceled).
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		return nil, err
	}
	out := a.outcome(p)
	// All stages have returned, so no goroutine can still touch a block:
	// hand the column arenas back to the pools. Failed runs skip this
	// (abandoned stages may still hold blocks) and let the GC collect.
	for _, blk := range a.all {
		blk.cols.Release()
	}
	a.all = nil
	return out, nil
}

// getBlock returns a reset block from the freelist, or creates one.
// Called only by the decode goroutine, which is why all needs no lock.
func (a *analysis) getBlock() *block {
	select {
	case blk := <-a.free:
		blk.bursts = blk.bursts[:0]
		return blk
	default:
		blk := &block{cols: trace.NewColBlock(a.cfg.BatchSize)}
		a.all = append(a.all, blk)
		return blk
	}
}

// putBlock returns a block to the freelist (dropping it if the list is
// full; it is then released with the rest at the end of the run).
func (a *analysis) putBlock(blk *block) {
	select {
	case a.free <- blk:
	default:
	}
}

// decodeStage pumps the source into pooled column blocks. When the
// source is a StreamReader the records decode straight into the columns
// with no intermediate Record construction at all.
func (a *analysis) decodeStage(p *Pipeline, src trace.Source) <-chan *block {
	bs := trace.NewBlockSource(src)
	out := make(chan *block, blockChanBuf)
	p.Go("decode", func(m *Metrics) error {
		defer close(out)
		for {
			blk := a.getBlock()
			err := bs.NextBlock(blk.cols)
			n := blk.cols.Len()
			m.RecordsOut += int64(n)
			if n > 0 {
				if !send(p, out, blk) {
					return nil
				}
			} else {
				a.putBlock(blk)
			}
			// Identity comparison on purpose: a decode error may *wrap* an
			// io.EOF cause (truncation inside a record) and must still abort
			// a strict run.
			if err == io.EOF {
				if sr, ok := src.(*trace.StreamReader); ok {
					m.Bytes = sr.BytesRead()
					if sr.Mode() == trace.Lenient {
						st := sr.Stats()
						a.decode = &st
					}
				}
				return nil
			}
			if err != nil {
				return err
			}
		}
	})
	return out
}

// send delivers v or aborts when the pipeline is cancelled.
func send[T any](p *Pipeline, ch chan<- T, v T) bool {
	select {
	case ch <- v:
		return true
	case <-p.quit:
		return false
	}
}

// extractStage scans each event block through the incremental burst
// extractor, the profile builder and the iteration-marker collector, and
// forwards the block carrying the kept bursts it closed; sample and comm
// blocks just tally. One scratch Event is assembled per row — the
// consumers copy what they keep.
func (a *analysis) extractStage(p *Pipeline, in <-chan *block) <-chan *block {
	x, _ := burst.NewExtractor(a.meta.Ranks) // ranks >= 1 was validated
	return Stage(p, "extract", blockChanBuf, in, func(ctx *StageCtx[*block], blk *block) error {
		cols := blk.cols
		n := cols.Len()
		ctx.Metrics.RecordsIn += int64(n)
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
				b, ok, err := x.Add(&e)
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
						blk.bursts = append(blk.bursts, b)
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
		ctx.Metrics.RecordsOut += int64(len(blk.bursts))
		ctx.Emit(blk)
		return nil
	}, nil)
}

// phaseStage collects kept bursts and resolves their phases. In exact
// mode it is a barrier at the event→sample boundary: all bursts are
// known there (sections are ordered, and blocks are homogeneous, so the
// first sample block marks it), so it sorts and clusters them before the
// first sample flows on. In online mode it trains the classifier on the
// first TrainBursts bursts mid-stream and classifies the rest as they
// arrive.
func (a *analysis) phaseStage(p *Pipeline, in <-chan *block) <-chan *block {
	name := "cluster"
	if a.cfg.Online {
		name = "classify"
	}
	return Stage(p, name, blockChanBuf, in, func(ctx *StageCtx[*block], blk *block) error {
		ctx.Metrics.RecordsIn += int64(len(blk.bursts))
		for i := range blk.bursts {
			if a.cfg.Online && a.classifier != nil {
				a.classifier.Classify(&blk.bursts[i])
			}
			a.kept = append(a.kept, blk.bursts[i])
			if a.cfg.Online && a.classifier == nil && a.trainErr == nil &&
				len(a.kept) == a.cfg.TrainBursts {
				a.train()
			}
		}
		if blk.cols.Kind() == trace.KindSample && !a.finalized {
			a.finalize(ctx.Metrics)
		}
		ctx.Emit(blk)
		return nil
	}, func(ctx *StageCtx[*block]) error {
		if !a.finalized {
			a.finalize(ctx.Metrics)
		}
		return nil
	})
}

// train fits the online classifier on the current training prefix and
// classifies any bursts already collected beyond it. A failed training
// (no clusters, all noise) degrades the run to zero phases, mirroring a
// batch run whose clustering finds nothing.
func (a *analysis) train() {
	n := min(a.cfg.TrainBursts, len(a.kept))
	cl, err := online.Train(a.kept[:n], a.cfg.Cluster)
	if err != nil {
		a.trainErr = err
		if a.cfg.Logger != nil {
			a.cfg.Logger.Info("online training failed", "bursts", n, "err", err)
		}
		return
	}
	if a.cfg.Logger != nil {
		a.cfg.Logger.Info("online classifier trained", "bursts", n,
			"phases", cl.Training.K, "eps", cl.Training.Eps)
	}
	a.classifier = cl
	for i := n; i < len(a.kept); i++ {
		cl.Classify(&a.kept[i])
	}
}

// finalize runs once all bursts are known: sort them into canonical
// order, resolve the clustering, and build the per-rank routing index
// the fold stage walks.
func (a *analysis) finalize(m *Metrics) {
	a.finalized = true
	if a.cfg.Online && a.classifier == nil && len(a.kept) > 0 {
		a.train()
	}
	burst.Sort(a.kept)
	if a.cfg.Partial {
		// Map half of the sharded algebra: phases are resolved at reduce
		// time over every shard's bursts, so this run only fixes the
		// canonical order and builds the attachment routing below.
	} else if !a.cfg.Online {
		if len(a.kept) > 0 {
			a.clustering = cluster.ClusterBursts(a.kept, a.cfg.Cluster)
			if a.clustering.K == 0 && a.cfg.Lenient {
				a.fallbackClustering("clustering found no phases")
			}
		}
	} else if a.classifier != nil {
		assign := make([]int, len(a.kept))
		for i := range a.kept {
			assign[i] = a.kept[i].Cluster
		}
		t := &a.classifier.Training
		a.clustering = cluster.Result{
			Assign: assign, K: t.K, Eps: t.Eps, MinPts: t.MinPts,
			Silhouette: t.Silhouette,
		}
	} else if a.cfg.Lenient && len(a.kept) > 0 {
		// Online training failed or never had enough bursts; degrade to
		// the quantile split instead of a zero-phase report.
		a.fallbackClustering("online classifier unavailable")
	}
	if !a.cfg.Partial {
		for i := range a.kept {
			if a.kept[i].Cluster != cluster.Noise {
				m.RecordsOut++
			}
		}
	}

	a.byRank = make([][]int, a.meta.Ranks)
	for i := range a.kept {
		r := a.kept[i].Rank
		a.byRank[r] = append(a.byRank[r], i)
	}
	a.cursor = make([]int, a.meta.Ranks)
	if a.cfg.Online {
		a.phases = map[int]*phaseFold{}
		for id := 1; id <= min(a.clustering.K, a.cfg.MaxPhases); id++ {
			pf := &phaseFold{id: id, stacks: online.NewStackFolder(a.cfg.StackBins)}
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

// fallbackClustering replaces a degenerate clustering with the
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

// foldStage is the terminal stage: it routes each sample to its burst —
// attaching a copy in exact mode, folding it incrementally in online
// mode — and recycles the block.
func (a *analysis) foldStage(p *Pipeline, in <-chan *block) {
	name := "attach"
	if a.cfg.Online {
		name = "fold"
	}
	Sink(p, name, in, func(m *Metrics, blk *block) error {
		if !a.cfg.NoSamples && blk.cols.Kind() == trace.KindSample {
			for i := 0; i < blk.cols.Len(); i++ {
				a.routeSample(m, blk.cols, i)
			}
		}
		a.putBlock(blk)
		return nil
	}, func(m *Metrics) error {
		if a.cfg.Online && !a.cfg.NoSamples {
			a.flushInstances(m)
		}
		return nil
	})
}

// routeSample advances the per-rank cursor to the burst containing
// sample row i of cols (bursts per rank are time-ordered and samples
// arrive in time order, so the walk never rewinds — the streaming
// equivalent of burst.AttachSamples) and attaches or folds it. The row
// is read straight from the columns; a Sample struct is assembled only
// for the samples that land in a kept burst.
func (a *analysis) routeSample(m *Metrics, cols *trace.ColBlock, i int) {
	m.RecordsIn++
	r := int(cols.Ranks[i])
	if r < 0 || r >= len(a.byRank) {
		return
	}
	t := trace.Time(cols.Times[i])
	idx := a.byRank[r]
	cur := a.cursor[r]
	if a.cfg.Online {
		for cur < len(idx) && a.kept[idx[cur]].End <= t {
			a.closeInstance(m, r, idx[cur])
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
		m.RecordsOut++
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
func (a *analysis) closeInstance(m *Metrics, r, ki int) {
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
		m.RecordsOut++
	}
	a.rankBuf[r].samples = a.rankBuf[r].samples[:0]
	a.rankBuf[r].leaves = a.rankBuf[r].leaves[:0]
}

// flushInstances closes every burst the sample cursor never passed
// (trailing bursts, sample-less ranks) so each kept burst contributes an
// instance exactly once, as offline folding does.
func (a *analysis) flushInstances(m *Metrics) {
	for r := range a.byRank {
		for ; a.cursor[r] < len(a.byRank[r]); a.cursor[r]++ {
			a.closeInstance(m, r, a.byRank[r][a.cursor[r]])
		}
	}
}

// outcome assembles the final Outcome after all stages returned.
func (a *analysis) outcome(p *Pipeline) *Outcome {
	out := &Outcome{
		Meta:       *a.meta,
		Records:    a.records,
		Bursts:     a.bursts,
		Kept:       a.kept,
		Clustering: a.clustering,
		Attached:   a.attached,
		Online:     a.cfg.Online,
		Iterations: structure.IterationsFromMarks(a.marks),
		Decode:     a.decode,
		Warnings:   a.warnings,
		KeptTime:   a.keptTime,
		AllTime:    a.allTime,
		RankBursts: a.rankBursts,
		Marks:      a.marks,
	}
	if a.cfg.Partial {
		out.ProfilePartial = a.prof.Partial()
	} else if prof, err := profile.Merge([]*profile.Partial{a.prof.Partial()}, a.meta.Duration); err == nil {
		out.Profile = prof
	} else {
		out.ProfileErr = err.Error()
	}
	if a.trainErr != nil {
		out.TrainErr = a.trainErr.Error()
	}
	if a.allTime > 0 {
		out.CoverageKept = float64(a.keptTime) / float64(a.allTime)
	}
	if len(a.kept) > 0 && !a.cfg.Partial {
		if len(a.clustering.Assign) == len(a.kept) {
			out.ClusterTimeCoverage = cluster.ClusterTimeCoverage(a.kept, a.clustering.Assign)
		}
		seqs := structure.Sequences(a.kept)
		out.Loops = structure.DetectLoops(seqs)
		out.SPMDScore = structure.SPMDScore(seqs)
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
	out.Stages = p.Metrics()
	return out
}
