package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/core"
)

// minOps is the least number of measured analyses a batch run makes,
// however long they take, so every median has three samples.
const minOps = 3

// runBatch measures a batch workload: closed-loop analyses of the whole
// encoded trace by one caller, each due as soon as the previous one and
// its checks finish. Untraced, it reports the end-to-end metrics;
// traced, it alternates an untraced analysis with the traced
// composition and then runs the layer probes.
func runBatch(ctx context.Context, w *workload, in *input, seconds float64, t *tracer, o *outcome) error {
	if t != nil {
		return runBatchTraced(ctx, w, in, seconds, t, o)
	}
	var analyze, allocs, peaks []float64
	var first [sha256.Size]byte
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for op := 1; op <= minOps || time.Now().Before(deadline); op++ {
		o.attempted++
		// Each analysis starts from the same state, the heap collected and
		// returned to the OS, and gets its own RSS peak and heap delta.
		runtime.GC()
		debug.FreeOSMemory()
		if err := clearRSSPeak(); err != nil {
			return fmt.Errorf("reset RSS peak: %w", err)
		}
		m0 := readMem()
		start := time.Now()
		rep, err := core.AnalyzeStreamContext(ctx, bytes.NewReader(in.enc), w.opts)
		wall := time.Since(start)
		m1 := readMem()
		peak, perr := peakRSSMB()
		if perr != nil {
			return perr
		}
		if err != nil {
			o.failed++
			o.fail("analysis %d: %v", op, err)
			continue
		}
		analyze = append(analyze, wall.Seconds())
		allocs = append(allocs, mb(m1.alloc-m0.alloc))
		peaks = append(peaks, peak)
		if !checkRepeat(rep, in, op, &first, o) {
			o.failed++
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d analyses, %.3f to %.3f s\n", len(analyze), percentile(analyze, 0), percentile(analyze, 100))
	v := o.values
	v["analyze_s"] = median(analyze)
	v["alloc_mb"] = median(allocs)
	v["peak_rss_mb"] = median(peaks)
	// Closed loop: an analysis's input is due when it starts, so its lag
	// is its wall time.
	v["lag_p50_ms"] = 1000 * percentile(analyze, 50)
	v["lag_p90_ms"] = 1000 * percentile(analyze, 90)
	return nil
}

// checkRepeat runs the output checks on one batch report: the first
// good one is checked against the app's ground truth and fixes the
// digest every later repeat must match.
func checkRepeat(rep *core.Report, in *input, op int, first *[sha256.Size]byte, o *outcome) bool {
	ok := true
	if *first == ([sha256.Size]byte{}) {
		pct, problems := checkReport(rep, in.kernels)
		o.values["fold_error_pct"] = pct
		for _, p := range problems {
			o.fail("analysis %d: %s", op, p)
			ok = false
		}
	}
	sum, err := digest(rep)
	switch {
	case err != nil:
		o.fail("analysis %d: encode report: %v", op, err)
		return false
	case *first == ([sha256.Size]byte{}):
		*first = sum
	case sum != *first:
		o.fail("analysis %d: report differs from the first analysis", op)
		return false
	}
	return ok
}

// tracedState is what a traced run's rounds leave behind: the last
// traced report and partial for the probes, the digest every report
// must match, the untraced analysis times and the layer counters.
type tracedState struct {
	rep     *core.Report
	part    *core.Partial
	first   [sha256.Size]byte
	analyze []float64
	lc      layerCosts
	late    float64
}

// tracedRounds alternates an untraced analysis (for the span-sum ratio
// and the repeat check) with the traced composition, whose report must
// match it byte for byte, until deadline and at least once. Rounds are
// a closed loop: each is due when the previous one ends, so the
// generator's lateness is only the loop's own overhead.
func tracedRounds(ctx context.Context, in *input, opts core.Options, deadline time.Time, t *tracer, o *outcome) (*tracedState, error) {
	st := &tracedState{}
	due := time.Now()
	for op := 1; op == 1 || time.Now().Before(deadline); op, due = op+1, time.Now() {
		o.attempted++
		start := time.Now()
		st.late = max(st.late, ms(start.Sub(due)))
		plain, err := core.AnalyzeStreamContext(ctx, bytes.NewReader(in.enc), opts)
		if err != nil {
			o.failed++
			o.fail("analysis %d: %v", op, err)
			continue
		}
		st.analyze = append(st.analyze, time.Since(start).Seconds())
		if !checkRepeat(plain, in, op, &st.first, o) {
			o.failed++
			continue
		}
		plain = nil
		rep, part, sum, err := composed(ctx, t, op, in.enc, opts, &st.lc)
		if err != nil {
			o.failed++
			o.fail("traced analysis %d: %v", op, err)
			continue
		}
		st.rep, st.part = rep, part
		if sum != st.first {
			o.failed++
			o.fail("traced analysis %d: composed report differs from AnalyzeStreamContext's", op)
		}
	}
	if st.rep == nil {
		return nil, fmt.Errorf("no traced analysis succeeded")
	}
	return st, nil
}

// runBatchTraced is the traced run of a batch workload: traced rounds
// for --seconds, then the layer probes.
func runBatchTraced(ctx context.Context, w *workload, in *input, seconds float64, t *tracer, o *outcome) error {
	opts := w.opts
	st, err := tracedRounds(ctx, in, opts, time.Now().Add(time.Duration(seconds*float64(time.Second))), t, o)
	if err != nil {
		return err
	}
	layerValues(t, &st.lc, median(st.analyze), o)
	if _, err := probeLayers(ctx, t, in.enc, opts, st.rep, st.part, o); err != nil {
		return err
	}
	noSession(o.values)
	o.values["bench.generator_late_ms"] = st.late
	return nil
}

// noSession fills the session-layer metrics of a workload that opens no
// session: nothing was journaled, snapshotted or retried.
func noSession(v map[string]float64) {
	for _, name := range []string{"session.snapshots", "session.snapshots_per_append",
		"session.dropped", "session.fsync_mean_ms", "session.append_p50_ms",
		"session.append_p90_ms", "foldsvc.client_retries"} {
		v[name] = 0
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
