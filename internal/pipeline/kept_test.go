package pipeline

import (
	"context"
	"fmt"
	"math/rand/v2"
	"reflect"
	"sort"
	"testing"

	"repro/internal/apps"
	"repro/internal/burst"
	"repro/internal/cluster"
	"repro/internal/online"
	"repro/internal/sim"
	"repro/internal/trace"
)

// stableByStartRank is the order the kept store replaced: a stable sort
// of the arrival order by (Start, Rank).
func stableByStartRank(bursts []burst.Burst) {
	sort.SliceStable(bursts, func(i, j int) bool {
		if bursts[i].Start != bursts[j].Start {
			return bursts[i].Start < bursts[j].Start
		}
		return bursts[i].Rank < bursts[j].Rank
	})
}

// TestKeptStoreGatherMatchesStableSort fills the store with bursts
// spanning several chunks, most of them tied on (Start, Rank) with
// others, and checks that gather returns the stable order in a slice of
// exactly their number, and that prefix labels in place within one chunk
// and across chunks.
func TestKeptStoreGatherMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(18, 2))
	for _, n := range []int{0, 1, keptChunk - 1, keptChunk, keptChunk + 1, 2*keptChunk + 37} {
		var s keptStore
		arrival := make([]burst.Burst, n)
		for i := range arrival {
			arrival[i] = burst.Burst{
				Rank:  int32(rng.IntN(3)),
				Index: i, // tells tied bursts apart
				Start: trace.Time(rng.IntN(1 + n/8)),
			}
			s.add(&arrival[i])
		}
		for _, m := range []int{min(n, 5), min(n, keptChunk+3)} {
			if m == 0 {
				continue
			}
			s.prefix(m, func(training []burst.Burst) {
				for i := range training {
					training[i].Cluster = 1 + i%7 + m
				}
			})
			for i := 0; i < n; i++ {
				if i < m {
					arrival[i].Cluster = 1 + i%7 + m
				}
				if got := s.at(i).Cluster; got != arrival[i].Cluster {
					t.Fatalf("n=%d prefix(%d): burst %d labelled %d, want %d", n, m, i, got, arrival[i].Cluster)
				}
			}
		}
		got := s.gather()
		stableByStartRank(arrival)
		if n == 0 {
			if got != nil {
				t.Fatalf("empty store gathered %v, want nil", got)
			}
			continue
		}
		if !reflect.DeepEqual(got, arrival) || cap(got) != n {
			t.Fatalf("n=%d: gathered order (len %d cap %d) differs from the stable (Start, Rank) sort", n, len(got), cap(got))
		}
		if s.n != 0 || s.chunks != nil {
			t.Fatalf("n=%d: store keeps %d bursts in %d chunks after gather", n, s.n, len(s.chunks))
		}
	}
}

// TestKeptOrderMatchesStableSort runs the pipeline over a trace whose
// kept bursts fill several chunks, in exact mode and in online mode with
// the training prefix inside the first chunk and spanning two. Kept must
// equal the arrival-order bursts, labelled the way each mode labels them
// (exact mode not at all; online mode the prefix by training it in
// place, the rest by the trained classifier), stably sorted by (Start,
// Rank).
func TestKeptOrderMatchesStableSort(t *testing.T) {
	app, err := apps.ByName("stencil", 200)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sim.Run(apps.DefaultTraceConfig(8), app)
	if err != nil {
		t.Fatal(err)
	}
	x, err := burst.NewExtractor(tr.Meta.Ranks)
	if err != nil {
		t.Fatal(err)
	}
	var arrival []burst.Burst
	for i := range tr.Events {
		b, ok, err := x.Add(&tr.Events[i])
		if err != nil {
			t.Fatal(err)
		}
		if ok && b.Duration() >= oracleMinBurst {
			arrival = append(arrival, b)
		}
	}
	if len(arrival) <= 2*keptChunk {
		t.Fatalf("%d kept bursts fill fewer than three chunks", len(arrival))
	}
	ccfg := cluster.Config{UseIPC: true, Parallelism: 2}
	for _, train := range []int{0, 512, keptChunk + 300} {
		t.Run(fmt.Sprintf("train=%d", train), func(t *testing.T) {
			want := append([]burst.Burst(nil), arrival...)
			cfg := Config{MinBurstDuration: oracleMinBurst, Cluster: ccfg, NoSamples: true, Parallelism: 2}
			if train > 0 {
				cfg.Online, cfg.TrainBursts = true, train
				cl, err := online.Train(want[:train], ccfg)
				if err != nil {
					t.Fatal(err)
				}
				for i := train; i < len(want); i++ {
					want[i].Cluster = cl.Model.Classify(&want[i])
				}
			}
			stableByStartRank(want)
			out, err := RunContext(context.Background(), trace.NewTraceSource(tr), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(out.Kept, want) {
				t.Fatalf("kept bursts (%d) differ from the stably sorted arrival order (%d)", len(out.Kept), len(want))
			}
		})
	}
}
