package diff

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/sim"
	"repro/internal/trace"
)

// simTrace simulates one app run.
func simTrace(t *testing.T, name string, ranks, iters int, seed uint64, perturb sim.PerturbConfig) *trace.Trace {
	t.Helper()
	app, err := apps.ByName(name, iters)
	if err != nil {
		t.Fatal(err)
	}
	cfg := apps.DefaultTraceConfig(ranks)
	cfg.Seed = seed
	cfg.Perturb = perturb
	tr, err := sim.Run(cfg, app)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func analyze(t *testing.T, tr *trace.Trace) *core.Report {
	t.Helper()
	rep, err := core.AnalyzeContext(context.Background(), tr, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestSelfDiffIdentity: diffing a report against itself must be the
// all-zero diff — every phase matched at distance 0, no unmatched
// phases, no significant divergence anywhere.
func TestSelfDiffIdentity(t *testing.T) {
	for _, name := range []string{"stencil", "cg"} {
		rep := analyze(t, simTrace(t, name, 4, 60, 1, sim.PerturbConfig{}))
		d, err := Compare(rep, rep, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if d.Fallback {
			t.Errorf("%s: self-diff ran in fallback mode: %v", name, d.Warnings)
		}
		if len(d.UnmatchedA) != 0 || len(d.UnmatchedB) != 0 {
			t.Errorf("%s: self-diff left phases unmatched: A=%v B=%v", name, d.UnmatchedA, d.UnmatchedB)
		}
		if len(d.Matched) == 0 {
			t.Fatalf("%s: self-diff matched no phases", name)
		}
		if d.Significant() {
			t.Errorf("%s: self-diff flagged significant divergence", name)
		}
		for _, p := range d.Matched {
			if p.A.ClusterID != p.B.ClusterID {
				t.Errorf("%s: self pair ids %d vs %d", name, p.A.ClusterID, p.B.ClusterID)
			}
			if p.Distance != 0 {
				t.Errorf("%s: self pair distance %g", name, p.Distance)
			}
			if p.MeanDurationDelta != 0 || p.InstanceDelta != 0 || p.TotalTimeDelta != 0 || p.MeanIPCDelta != 0 {
				t.Errorf("%s: self pair %d has nonzero deltas: %+v", name, p.A.ClusterID, p)
			}
			if p.MeanDurationRatio != 1 {
				t.Errorf("%s: self pair %d duration ratio %g", name, p.A.ClusterID, p.MeanDurationRatio)
			}
			if len(p.Counters) == 0 {
				t.Errorf("%s: self pair %d compared no counters", name, p.A.ClusterID)
			}
			for _, cd := range p.Counters {
				if cd.MaxShapeDelta != 0 || cd.MeanAbsDelta != 0 {
					t.Errorf("%s: self pair %d %v shape delta %g/%g",
						name, p.A.ClusterID, cd.Counter, cd.MaxShapeDelta, cd.MeanAbsDelta)
				}
				if cd.Significant {
					t.Errorf("%s: self pair %d %v flagged significant", name, p.A.ClusterID, cd.Counter)
				}
				if cd.RateRatio != 1 {
					t.Errorf("%s: self pair %d %v rate ratio %g", name, p.A.ClusterID, cd.Counter, cd.RateRatio)
				}
			}
		}
		// The diff must survive the JSON trip both surfaces ship it over.
		if _, err := json.Marshal(d); err != nil {
			t.Fatalf("%s: diff does not marshal: %v", name, err)
		}
	}
}

// analyzeSharded analyzes tr through the sharded algebra: Split into n
// time shards, MapShardContext each, Reduce with no model.
func analyzeSharded(t *testing.T, tr *trace.Trace, n int) *core.Report {
	t.Helper()
	shards := core.Split(tr, n)
	parts := make([]*core.Partial, len(shards))
	for i, sh := range shards {
		var err error
		if parts[i], err = core.MapShardContext(context.Background(), trace.NewTraceSource(sh.Trace), sh.Spec, core.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := core.Reduce(parts, nil, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestDiffShardCountInvariance: analyzing either side through the
// sharded algebra must not change the diff — any shard count,
// identical Report-level output.
func TestDiffShardCountInvariance(t *testing.T) {
	trA := simTrace(t, "stencil", 4, 60, 1, sim.PerturbConfig{})
	trB := simTrace(t, "stencil", 4, 60, 2, sim.PerturbConfig{})
	repA := analyze(t, trA)
	base, err := Compare(repA, analyze(t, trB), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2, 3} {
		d, err := Compare(repA, analyzeSharded(t, trB, shards), Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("diff changed under %d shards", shards)
		}
	}
}

// permuteRanks relabels every record's rank by a cyclic shift and
// restores canonical order — same bursts, same features, different
// rank identities and record order.
func permuteRanks(tr *trace.Trace, shift int32) *trace.Trace {
	n := int32(tr.Meta.Ranks)
	out := &trace.Trace{Meta: tr.Meta}
	out.Events = append([]trace.Event(nil), tr.Events...)
	out.Samples = append([]trace.Sample(nil), tr.Samples...)
	out.Comms = append([]trace.Comm(nil), tr.Comms...)
	for i := range out.Events {
		out.Events[i].Rank = (out.Events[i].Rank + shift) % n
	}
	for i := range out.Samples {
		out.Samples[i].Rank = (out.Samples[i].Rank + shift) % n
	}
	for i := range out.Comms {
		out.Comms[i].Src = (out.Comms[i].Src + shift) % n
		out.Comms[i].Dst = (out.Comms[i].Dst + shift) % n
	}
	out.Sort()
	return out
}

// TestDiffRankPermutationInvariance: phase matching must not depend on
// rank labels — relabeling run B's ranks yields the same match
// structure and the same per-phase deltas.
func TestDiffRankPermutationInvariance(t *testing.T) {
	trA := simTrace(t, "stencil", 4, 60, 1, sim.PerturbConfig{})
	trB := simTrace(t, "stencil", 4, 60, 2, sim.PerturbConfig{})
	repA := analyze(t, trA)
	base, err := Compare(repA, analyze(t, trB), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, shift := range []int32{1, 3} {
		d, err := Compare(repA, analyze(t, permuteRanks(trB, shift)), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(d.Matched) != len(base.Matched) ||
			len(d.UnmatchedA) != len(base.UnmatchedA) ||
			len(d.UnmatchedB) != len(base.UnmatchedB) {
			t.Fatalf("shift %d: match structure changed: %d/%d/%d vs %d/%d/%d",
				shift, len(d.Matched), len(d.UnmatchedA), len(d.UnmatchedB),
				len(base.Matched), len(base.UnmatchedA), len(base.UnmatchedB))
		}
		for i := range d.Matched {
			g, w := d.Matched[i], base.Matched[i]
			if g.A.ClusterID != w.A.ClusterID {
				t.Errorf("shift %d: pair %d matches A-phase %d, want %d", shift, i, g.A.ClusterID, w.A.ClusterID)
			}
			if g.B.MeanDuration != w.B.MeanDuration || g.B.Instances != w.B.Instances {
				t.Errorf("shift %d: pair %d B side (%.0f ns, %d inst) vs (%.0f ns, %d inst)",
					shift, i, g.B.MeanDuration, g.B.Instances, w.B.MeanDuration, w.B.Instances)
			}
			if g.MeanDurationDelta != w.MeanDurationDelta {
				t.Errorf("shift %d: pair %d duration delta %g vs %g", shift, i, g.MeanDurationDelta, w.MeanDurationDelta)
			}
		}
	}
}

// TestDiffDetectsPerturbation: a seeded rate perturbation on one kernel
// must surface as a significant, correctly localized divergence on the
// matched phase while the untouched kernel stays insignificant.
func TestDiffDetectsPerturbation(t *testing.T) {
	trA := simTrace(t, "stencil", 4, 80, 1, sim.PerturbConfig{})
	trB := simTrace(t, "stencil", 4, 80, 2, sim.PerturbConfig{
		Factor: 1.2, Fraction: 1, Kernel: "jacobi_sweep", At: 0.6, Seed: 7,
	})
	d, err := Compare(analyze(t, trA), analyze(t, trB), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d.Fallback {
		t.Fatalf("perturbed diff fell back to duration-rank matching: %v", d.Warnings)
	}
	var sweep, pack *PhasePair
	for i := range d.Matched {
		switch {
		case d.Matched[i].A.MeanDuration > 2e6:
			sweep = &d.Matched[i]
		case d.Matched[i].A.MeanDuration < 1e6:
			pack = &d.Matched[i]
		}
	}
	if sweep == nil {
		t.Fatalf("perturbed sweep phase not matched: %+v unmatchedA=%v unmatchedB=%v",
			d.Matched, d.UnmatchedA, d.UnmatchedB)
	}
	// The 1.2x stall slows the phase and depresses its overall rates.
	if sweep.MeanDurationRatio < 1.1 {
		t.Errorf("sweep duration ratio %g, want ~1.2", sweep.MeanDurationRatio)
	}
	if !sweep.Significant() {
		t.Error("perturbed sweep not flagged significant")
	}
	var ins *CounterDelta
	for i := range sweep.Counters {
		if sweep.Counters[i].Counter == counters.TotIns {
			ins = &sweep.Counters[i]
		}
	}
	if ins == nil {
		t.Fatal("sweep pair carries no TOT_INS delta")
	}
	if ins.RateRatio >= 0.95 {
		t.Errorf("sweep TOT_INS rate ratio %g, want ~1/1.2", ins.RateRatio)
	}
	// The stall sits at wall-offset 0.6d in a 1.2d instance: the shape
	// divergence must localize around normalized time 0.5-0.67.
	if ins.ArgMax < 0.35 || ins.ArgMax > 0.85 {
		t.Errorf("divergence localized at %g, want near the injected stall (0.5-0.67)", ins.ArgMax)
	}
	if !ins.Significant {
		t.Errorf("TOT_INS divergence %g not significant (noise %g)", ins.MaxShapeDelta, ins.Noise)
	}
	// The untouched pack kernel differs only by run-to-run noise; the
	// significance guard must hold it below the line.
	if pack != nil && pack.Significant() {
		for _, cd := range pack.Counters {
			if cd.Significant {
				t.Errorf("unperturbed pack %v flagged significant: delta %g noise %g",
					cd.Counter, cd.MaxShapeDelta, cd.Noise)
			}
		}
	}
}

// TestDiffDegradedInput: diffing against a lenient-salvaged side must
// not panic, must fall back to duration-rank matching, and must mark
// every pair degraded.
func TestDiffDegradedInput(t *testing.T) {
	tr := simTrace(t, "stencil", 4, 40, 1, sim.PerturbConfig{})
	repA := analyze(t, tr)

	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()*3/5]
	repB, err := core.AnalyzeStreamContext(context.Background(), bytes.NewReader(cut), core.Options{Lenient: true})
	if err != nil {
		t.Fatal(err)
	}
	if !repB.Degraded {
		t.Fatal("salvaged report not degraded; the test lost its premise")
	}

	d, err := Compare(repA, repB, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Fallback || !d.DegradedB {
		t.Errorf("degraded diff: Fallback=%v DegradedB=%v, want both", d.Fallback, d.DegradedB)
	}
	if len(d.Warnings) == 0 {
		t.Error("degraded diff carries no warnings")
	}
	if len(d.Matched) == 0 {
		t.Fatal("degraded diff matched nothing (the salvaged prefix still holds both phases)")
	}
	for _, p := range d.Matched {
		if !p.Fallback || !p.Degraded {
			t.Errorf("pair %d/%d: Fallback=%v Degraded=%v, want both", p.A.ClusterID, p.B.ClusterID, p.Fallback, p.Degraded)
		}
		if p.Distance != -1 {
			t.Errorf("fallback pair carries centroid distance %g", p.Distance)
		}
	}
	if _, err := json.Marshal(d); err != nil {
		t.Fatalf("degraded diff does not marshal: %v", err)
	}
}

// TestCompareNil rejects nil inputs instead of panicking.
func TestCompareNil(t *testing.T) {
	rep := analyze(t, simTrace(t, "stencil", 2, 20, 1, sim.PerturbConfig{}))
	if _, err := Compare(nil, rep, Options{}); err == nil {
		t.Error("Compare(nil, rep) succeeded")
	}
	if _, err := Compare(rep, nil, Options{}); err == nil {
		t.Error("Compare(rep, nil) succeeded")
	}
}

// TestPerturbSelectionDeterminism: iteration selection is a pure
// function of (seed, iteration) and hits roughly the requested
// fraction.
func TestPerturbSelectionDeterminism(t *testing.T) {
	p := sim.PerturbConfig{Factor: 2, Fraction: 0.5, Seed: 3}
	hits := 0
	for n := 1; n <= 1000; n++ {
		a, b := p.Selected(n), p.Selected(n)
		if a != b {
			t.Fatalf("selection of iteration %d not deterministic", n)
		}
		if a {
			hits++
		}
	}
	if hits < 400 || hits > 600 {
		t.Errorf("selected %d/1000 iterations at fraction 0.5", hits)
	}
	if p.Selected(0) {
		t.Error("iteration 0 (before the first marker) selected")
	}
}
