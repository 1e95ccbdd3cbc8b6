package core

import (
	"fmt"
	"strings"
)

// fingerprintVersion salts every fingerprint so persisted cache entries
// (the rescache disk tier) are invalidated wholesale whenever the
// analysis semantics change incompatibly. Bump it when a pipeline
// change makes old Reports unreproducible from the same options. v2: a
// positive SilhouetteSample scores only its sampled members.
const fingerprintVersion = "v2"

// Fingerprint canonicalizes the options into a stable string covering
// exactly the fields that shape the Report — the options half of a
// content-addressed cache key. Two Options values with the same
// fingerprint produce deep-equal (bit-identical) Reports for the same
// trace bytes; that is the determinism contract the analysis already
// locks by test.
//
// Result-invariant knobs are deliberately excluded so equivalent
// requests share one cache entry: Parallelism (TestAnalyzeParallelDeterminism),
// Cluster.Parallelism, Cluster.Index (exact either way), StallTimeout
// and the loggers. Lenient IS included — salvage decoding changes what
// a damaged trace analyzes to, so strict and lenient results must never
// share an entry.
//
// Defaults are applied before rendering, so an unset field and its
// explicit default fingerprint identically.
func (o Options) Fingerprint() string {
	o.setDefaults()

	// Folding defaults live in the folding package; mirror them here so
	// zero values and explicit defaults collapse to one key.
	bins := o.Fold.Bins
	if bins == 0 {
		bins = 100
	}
	pruneK := o.Fold.PruneK
	if pruneK == 0 {
		pruneK = 3
	}
	kbw := o.Fold.KernelBandwidth
	if kbw == 0 {
		kbw = 0.02
	}
	maxSeg := o.Fold.MaxSegments
	if maxSeg == 0 {
		maxSeg = 6
	}
	segPen := o.Fold.SegmentPenalty
	if segPen == 0 {
		segPen = 0.02
	}
	minPts := o.Cluster.MinPts
	if minPts == 0 {
		minPts = 4
	}
	share := o.Cluster.MinClusterShare
	if share == 0 {
		share = 0.01
	}
	train := o.Stream.TrainBursts
	if train <= 0 {
		train = 512
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%s|minb=%d|phases=%d|stackbins=%d|lenient=%t",
		fingerprintVersion, o.MinBurstDuration, o.MaxPhases, o.StackBins, o.Lenient)
	fmt.Fprintf(&b, "|online=%t|train=%d", o.Stream.Online, train)
	fmt.Fprintf(&b, "|eps=%.17g|minpts=%d|share=%.17g|ipc=%t|sil=%d",
		o.Cluster.Eps, minPts, share, o.Cluster.UseIPC, o.Cluster.SilhouetteSample)
	fmt.Fprintf(&b, "|bins=%d|model=%d|prunek=%.17g|kbw=%.17g|maxseg=%d|segpen=%.17g",
		bins, int(o.Fold.Model), pruneK, kbw, maxSeg, segPen)
	b.WriteString("|counters=")
	for i, c := range o.Counters {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(c.String())
	}
	return b.String()
}
