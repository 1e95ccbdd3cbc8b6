package core

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/deepeq"
	"repro/internal/sim"
	"repro/internal/trace"
)

// shardTestTrace simulates a fixed app trace for the sharding tests.
func shardTestTrace(t *testing.T, name string, iters, ranks int) *trace.Trace {
	t.Helper()
	app, err := apps.ByName(name, iters)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sim.Run(apps.DefaultTraceConfig(ranks), app)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// mapShards maps each of tr's n time shards to its partial, as a
// foldsvc coordinator's workers do.
func mapShards(t *testing.T, tr *trace.Trace, n int, opts Options) []*Partial {
	t.Helper()
	shards := Split(tr, n)
	parts := make([]*Partial, len(shards))
	for i, sh := range shards {
		var err error
		if parts[i], err = MapShardContext(context.Background(), trace.NewTraceSource(sh.Trace), sh.Spec, opts); err != nil {
			t.Fatalf("%s n=%d shard %d: %v", tr.Meta.App, n, i, err)
		}
	}
	return parts
}

// TestShardedEquivalence is the algebra's contract: Reduce over
// MapShardContext partials must reproduce the single-pass Report
// deep-equal — bit-identical floats — for 1, 2 and N time shards, in
// both phase-resolution flows: pooled clustering at reduce time (nil
// model), and a broadcast model trained once on the pooled partials
// (including across a serialization round trip).
func TestShardedEquivalence(t *testing.T) {
	for _, name := range []string{"stencil", "cg"} {
		tr := shardTestTrace(t, name, 60, 4)
		opts := Options{}
		want, err := AnalyzeContext(context.Background(), tr, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{1, 2, 5} {
			// Flow 1: pooled clustering at reduce time.
			got, err := Reduce(mapShards(t, tr, n, opts), nil, opts)
			if err != nil {
				t.Fatalf("%s n=%d: %v", name, n, err)
			}
			normalizeReport(want, got)
			if d := deepeq.Diff(want, got); d != "" {
				t.Fatalf("%s n=%d: sharded Report differs from single-pass at %s", name, n, d)
			}

			// Flow 2: train once on the pooled partials, broadcast, classify.
			parts := mapShards(t, tr, n, opts)
			model, err := TrainModelFromPartials(parts, opts)
			if err != nil {
				t.Fatalf("%s n=%d: train: %v", name, n, err)
			}
			enc, err := model.Encode()
			if err != nil {
				t.Fatalf("%s n=%d: encode model: %v", name, n, err)
			}
			wire, err := cluster.DecodeModel(enc)
			if err != nil {
				t.Fatalf("%s n=%d: decode model: %v", name, n, err)
			}
			got, err = Reduce(parts, wire, opts)
			if err != nil {
				t.Fatalf("%s n=%d: reduce with broadcast model: %v", name, n, err)
			}
			normalizeReport(want, got)
			if d := deepeq.Diff(want, got); d != "" {
				t.Fatalf("%s n=%d: broadcast-model Report differs from single-pass at %s", name, n, d)
			}
		}
	}
}

// TestShardBurstInvariance is the shard-boundary property: a burst
// straddling a time-window cut must land in exactly one partial, so
// permuting the shard count never changes the total (or per-rank, or
// kept) burst counts. Exercised across every app and a sweep of shard
// counts.
func TestShardBurstInvariance(t *testing.T) {
	for _, name := range apps.Names() {
		tr := shardTestTrace(t, name, 40, 4)
		opts := Options{}
		whole, err := MapShardContext(context.Background(), trace.NewTraceSource(tr), WholeSpec(), opts)
		if err != nil {
			t.Fatal(err)
		}
		for n := 1; n <= 7; n++ {
			total, kept := 0, 0
			perRank := make([]int, tr.Meta.Ranks)
			for _, p := range mapShards(t, tr, n, opts) {
				total += p.Bursts
				kept += len(p.Kept)
				for r := 0; r < tr.Meta.Ranks; r++ {
					perRank[r] += p.RankBursts[r]
				}
			}
			if total != whole.Bursts {
				t.Fatalf("%s n=%d: %d bursts across shards, want %d", name, n, total, whole.Bursts)
			}
			if kept != len(whole.Kept) {
				t.Fatalf("%s n=%d: %d kept across shards, want %d", name, n, kept, len(whole.Kept))
			}
			if !reflect.DeepEqual(perRank, whole.RankBursts) {
				t.Fatalf("%s n=%d: per-rank bursts %v, want %v", name, n, perRank, whole.RankBursts)
			}
		}
	}
}

// TestShardRecordConservation checks that Split is a partition: every
// event, sample and comm lands in exactly one shard.
func TestShardRecordConservation(t *testing.T) {
	tr := shardTestTrace(t, "stencil", 40, 4)
	for _, n := range []int{2, 3, 6} {
		ev, sm, cm := 0, 0, 0
		for _, sh := range Split(tr, n) {
			ev += len(sh.Trace.Events)
			sm += len(sh.Trace.Samples)
			cm += len(sh.Trace.Comms)
		}
		if ev != len(tr.Events) || sm != len(tr.Samples) || cm != len(tr.Comms) {
			t.Fatalf("n=%d: %d/%d/%d records across shards, want %d/%d/%d",
				n, ev, sm, cm, len(tr.Events), len(tr.Samples), len(tr.Comms))
		}
	}
}

// TestSplitOutOfRangeRanks: a lenient decode lets through records whose
// rank is outside the metadata's range, and metadata whose rank count is
// below 1; Split keeps every such record in shard 0 instead of indexing
// per-rank state with it.
func TestSplitOutOfRangeRanks(t *testing.T) {
	for _, ranks := range []int{-1, 0, 2} {
		tr := &trace.Trace{Meta: trace.Metadata{App: "x", Ranks: ranks, Duration: 100}}
		for _, r := range []int32{-1, 2} {
			tr.Events = append(tr.Events, trace.Event{Time: 60, Rank: r, Type: trace.EvMPI, Value: 0})
			tr.Samples = append(tr.Samples, trace.Sample{Time: 60, Rank: r})
			tr.Comms = append(tr.Comms, trace.Comm{SendTime: 60, RecvTime: 70, Src: r})
		}
		for _, n := range []int{1, 2} {
			sh := Split(tr, n)[0].Trace
			if len(sh.Events) != 2 || len(sh.Samples) != 2 || len(sh.Comms) != 2 {
				t.Errorf("ranks=%d n=%d: shard 0 holds %d/%d/%d records, want 2/2/2",
					ranks, n, len(sh.Events), len(sh.Samples), len(sh.Comms))
			}
		}
	}
}

// TestReduceMissingShard locks the degraded contract: reducing with a
// shard missing still assembles a Report (the coordinator's survive-one-
// worker case) but withholds the cross-shard profile, whose boundary
// handoffs need every shard.
func TestReduceMissingShard(t *testing.T) {
	tr := shardTestTrace(t, "stencil", 60, 4)
	opts := Options{}
	parts := mapShards(t, tr, 3, opts)
	parts[1] = nil // shard lost
	rep, err := Reduce(parts, nil, opts)
	if err != nil {
		t.Fatalf("reduce with a missing shard: %v", err)
	}
	if rep.Profile != nil || rep.ProfileErr == "" {
		t.Fatalf("profile should be withheld with a missing shard (got profile=%v err=%q)",
			rep.Profile != nil, rep.ProfileErr)
	}
	if rep.Bursts == 0 || len(rep.Clustering.Assign) == 0 {
		t.Fatal("surviving shards should still produce an analysis")
	}
	if _, err := Reduce([]*Partial{nil, nil}, nil, opts); err == nil {
		t.Fatal("reducing zero surviving partials should error")
	}
}

// TestReduceOnlineGuards locks the online partial constraints: exactly
// one, unmergeable, and never classified against a model.
func TestReduceOnlineGuards(t *testing.T) {
	tr := shardTestTrace(t, "stencil", 60, 4)
	opts := Options{Stream: StreamOptions{Online: true}}
	p, err := MapShardContext(context.Background(), trace.NewTraceSource(tr), WholeSpec(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Online {
		t.Fatal("expected an online partial")
	}
	if _, err := Reduce([]*Partial{p, p}, nil, opts); err == nil {
		t.Fatal("merging online partials should error")
	}
	if _, err := Reduce([]*Partial{p}, &cluster.Model{}, opts); err == nil {
		t.Fatal("classifying online partials against a model should error")
	}
	if _, err := Reduce([]*Partial{p}, nil, opts); err != nil {
		t.Fatalf("reducing one online partial: %v", err)
	}
}

// TestReduceLonePartialIdempotent: Reduce pools a lone partial's bursts
// in place instead of copying them, so reducing the same partial twice,
// with fresh clustering and against a model, must give deep-equal
// reports, each equal to the single-pass analysis.
func TestReduceLonePartialIdempotent(t *testing.T) {
	tr := shardTestTrace(t, "cg", 60, 4)
	opts := Options{}
	want, err := AnalyzeContext(context.Background(), tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	sh := Split(tr, 1)[0]
	p, err := MapShardContext(context.Background(), trace.NewTraceSource(sh.Trace), sh.Spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	model, err := TrainModelFromPartials([]*Partial{p}, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []*cluster.Model{nil, model} {
		first, err := Reduce([]*Partial{p}, m, opts)
		if err != nil {
			t.Fatal(err)
		}
		second, err := Reduce([]*Partial{p}, m, opts)
		if err != nil {
			t.Fatal(err)
		}
		normalizeReport(first, second)
		if deepeq.Diff(first, second) != "" {
			t.Fatalf("model=%v: reducing the same lone partial twice gave different reports", m != nil)
		}
		normalizeReport(want, first)
		if deepeq.Diff(want, first) != "" {
			t.Fatalf("model=%v: lone-partial Report differs from single-pass", m != nil)
		}
	}

	// A lone partial without its sample groups (as a worker may send
	// one) is still pooled like one whose groups are empty.
	bare, empty := *p, *p
	bare.Attached = nil
	empty.Attached = make([][]trace.Sample, len(p.Kept))
	got, err := Reduce([]*Partial{&bare}, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Reduce([]*Partial{&empty}, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	normalizeReport(got, ref)
	if got.Degraded || deepeq.Diff(got, ref) != "" {
		t.Fatalf("sample-less lone partial: degraded=%v warnings=%q, or differs from empty sample groups", got.Degraded, got.Warnings)
	}
}
