package core

import (
	"fmt"
	"strings"
)

// fingerprintVersion salts every fingerprint so persisted cache entries
// (the rescache disk tier) are invalidated wholesale whenever the
// analysis semantics change incompatibly. Bump it when a pipeline
// change makes old Reports unreproducible from the same options. v2: a
// positive SilhouetteSample scores only its sampled members. v3: a
// Report serializes fold bands (StdErr) and no longer the folded Points
// or the clustering's Features and Assign. v4: SilhouetteSample 0 samples
// 256 members per cluster above 4,096 kept bursts, and the clustering
// records the sample it scored. v5: every whole-trace analysis checks
// the trace's validity, so a strict invalid trace fails and a lenient
// one carries the validation warning.
const fingerprintVersion = "v5"

// Fingerprint canonicalizes the options into a stable string covering
// exactly the fields that shape the Report — the options half of a
// content-addressed cache key. Two Options values with the same
// fingerprint produce deep-equal (bit-identical) Reports for the same
// trace bytes; that is the determinism contract the analysis already
// locks by test.
//
// Result-invariant knobs are deliberately excluded so equivalent
// requests share one cache entry: Parallelism (TestAnalyzeParallelDeterminism),
// Cluster.Parallelism, Cluster.Index (exact either way), Logger,
// Cluster.Logger, Fold.Counter (Counters selects what is folded) and
// Cluster.UseIPC (setDefaults forces it). Lenient IS included —
// salvage decoding changes what a damaged trace analyzes to, so strict
// and lenient results must never share an entry.
//
// Defaults are applied before rendering, by the functions the analysis
// applies them with, so an unset field and its explicit default
// fingerprint identically.
func (o Options) Fingerprint() string {
	o.setDefaults()
	o.Cluster.SetDefaults()
	o.Fold.SetDefaults()

	var b strings.Builder
	fmt.Fprintf(&b, "%s|minb=%d|phases=%d|stackbins=%d|lenient=%t",
		fingerprintVersion, o.MinBurstDuration, o.MaxPhases, o.StackBins, o.Lenient)
	fmt.Fprintf(&b, "|online=%t|train=%d", o.Stream.Online, o.Stream.TrainBursts)
	fmt.Fprintf(&b, "|eps=%.17g|minpts=%d|ipc=%t|sil=%d",
		o.Cluster.Eps, o.Cluster.MinPts, o.Cluster.UseIPC, o.Cluster.SilhouetteSample)
	fmt.Fprintf(&b, "|bins=%d|model=%d|prunek=%.17g",
		o.Fold.Bins, int(o.Fold.Model), o.Fold.PruneK)
	b.WriteString("|counters=")
	for i, c := range o.Counters {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(c.String())
	}
	return b.String()
}
