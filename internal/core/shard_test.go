package core

import (
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

// TestShardedEquivalence is the algebra's contract: Reduce over MapShard
// partials must reproduce the single-pass Report deep-equal — bit-identical
// floats — for 1, 2 and N shards, in both time and rank mode, and in all
// three phase-resolution flows: pooled clustering at reduce time (nil
// model), a broadcast model trained once on the pooled partials (including
// across a serialization round trip), and models trained independently per
// shard then merged.
func TestShardedEquivalence(t *testing.T) {
	for _, name := range []string{"stencil", "cg"} {
		tr := shardTestTrace(t, name, 60, 4)
		opts := Options{}
		want, err := Analyze(tr, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []ShardMode{ShardTime, ShardRank} {
			for _, n := range []int{1, 2, 5} {
				// Flow 1: pooled clustering at reduce time.
				got, err := AnalyzeSharded(tr, n, mode, opts)
				if err != nil {
					t.Fatalf("%s %v n=%d: %v", name, mode, n, err)
				}
				normalizeReport(want, got)
				if d := deepeq.Diff(want, got); d != "" {
					t.Fatalf("%s %v n=%d: sharded Report differs from single-pass at %s", name, mode, n, d)
				}

				shards := Split(tr, n, mode)
				parts := make([]*Partial, len(shards))
				for i, sh := range shards {
					if parts[i], err = MapShard(sh, opts); err != nil {
						t.Fatalf("%s %v n=%d shard %d: %v", name, mode, n, i, err)
					}
				}

				// Flow 2: train once on the pooled partials, broadcast, classify.
				model, err := TrainModelFromPartials(parts, opts)
				if err != nil {
					t.Fatalf("%s %v n=%d: train: %v", name, mode, n, err)
				}
				enc, err := model.Encode()
				if err != nil {
					t.Fatalf("%s %v n=%d: encode model: %v", name, mode, n, err)
				}
				wire, err := cluster.DecodeModel(enc)
				if err != nil {
					t.Fatalf("%s %v n=%d: decode model: %v", name, mode, n, err)
				}
				got, err = Reduce(parts, wire, opts)
				if err != nil {
					t.Fatalf("%s %v n=%d: reduce with broadcast model: %v", name, mode, n, err)
				}
				normalizeReport(want, got)
				if d := deepeq.Diff(want, got); d != "" {
					t.Fatalf("%s %v n=%d: broadcast-model Report differs from single-pass at %s", name, mode, n, d)
				}

				// Flow 3: train per shard independently, merge the models.
				// Every model retains its training bursts, so the merge is the
				// exact pooled retrain and classification stays bit-identical.
				var eff Options
				eff = opts
				eff.setDefaults()
				models := make([]*cluster.Model, len(parts))
				for i, p := range parts {
					models[i] = cluster.TrainModel(p.Kept, eff.Cluster)
				}
				merged, err := cluster.Merge(models, eff.Cluster)
				if err != nil {
					t.Fatalf("%s %v n=%d: merge models: %v", name, mode, n, err)
				}
				got, err = Reduce(parts, merged, opts)
				if err != nil {
					t.Fatalf("%s %v n=%d: reduce with merged model: %v", name, mode, n, err)
				}
				normalizeReport(want, got)
				if d := deepeq.Diff(want, got); d != "" {
					t.Fatalf("%s %v n=%d: merged-model Report differs from single-pass at %s", name, mode, n, d)
				}
			}
		}
	}
}

// TestShardBurstInvariance is the shard-boundary property: a burst
// straddling a time-window cut must land in exactly one partial, so
// permuting the shard count never changes the total (or per-rank, or
// kept) burst counts. Exercised across every app and a sweep of shard
// counts in both modes.
func TestShardBurstInvariance(t *testing.T) {
	for _, name := range apps.Names() {
		tr := shardTestTrace(t, name, 40, 4)
		opts := Options{}
		whole, err := MapShardContext(t.Context(), trace.NewTraceSource(tr), WholeSpec(), opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []ShardMode{ShardTime, ShardRank} {
			for n := 1; n <= 7; n++ {
				shards := Split(tr, n, mode)
				total, kept := 0, 0
				perRank := make([]int, tr.Meta.Ranks)
				for i, sh := range shards {
					p, err := MapShard(sh, opts)
					if err != nil {
						t.Fatalf("%s %v n=%d shard %d: %v", name, mode, n, i, err)
					}
					total += p.Bursts
					kept += len(p.Kept)
					for r := 0; r < tr.Meta.Ranks; r++ {
						perRank[r] += p.RankBursts[r]
					}
				}
				if total != whole.Bursts {
					t.Fatalf("%s %v n=%d: %d bursts across shards, want %d", name, mode, n, total, whole.Bursts)
				}
				if kept != len(whole.Kept) {
					t.Fatalf("%s %v n=%d: %d kept across shards, want %d", name, mode, n, kept, len(whole.Kept))
				}
				if !reflect.DeepEqual(perRank, whole.RankBursts) {
					t.Fatalf("%s %v n=%d: per-rank bursts %v, want %v", name, mode, n, perRank, whole.RankBursts)
				}
			}
		}
	}
}

// TestShardRecordConservation checks that Split is a partition: every
// event, sample and comm lands in exactly one shard.
func TestShardRecordConservation(t *testing.T) {
	tr := shardTestTrace(t, "stencil", 40, 4)
	for _, mode := range []ShardMode{ShardTime, ShardRank} {
		for _, n := range []int{2, 3, 6} {
			ev, sm, cm := 0, 0, 0
			for _, sh := range Split(tr, n, mode) {
				ev += len(sh.Trace.Events)
				sm += len(sh.Trace.Samples)
				cm += len(sh.Trace.Comms)
			}
			if ev != len(tr.Events) || sm != len(tr.Samples) || cm != len(tr.Comms) {
				t.Fatalf("%v n=%d: %d/%d/%d records across shards, want %d/%d/%d",
					mode, n, ev, sm, cm, len(tr.Events), len(tr.Samples), len(tr.Comms))
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
	shards := Split(tr, 3, ShardTime)
	parts := make([]*Partial, len(shards))
	for i, sh := range shards {
		var err error
		if parts[i], err = MapShard(sh, opts); err != nil {
			t.Fatal(err)
		}
	}
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
	p, err := MapShardContext(t.Context(), trace.NewTraceSource(tr), WholeSpec(), opts)
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
	want, err := Analyze(tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	p, err := MapShard(Split(tr, 1, ShardTime)[0], opts)
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
