package structure

import (
	"math"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/burst"
	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/trace"
)

func TestMatchFraction(t *testing.T) {
	seq := []int{1, 2, 1, 2, 1, 2}
	if got := MatchFraction(seq, 2); got != 1 {
		t.Fatalf("lag 2 = %g", got)
	}
	if got := MatchFraction(seq, 1); got != 0 {
		t.Fatalf("lag 1 = %g", got)
	}
	if MatchFraction(seq, 0) != 0 || MatchFraction(seq, 6) != 0 || MatchFraction(seq, 9) != 0 {
		t.Fatal("invalid lags must return 0")
	}
}

func TestPeriodDetection(t *testing.T) {
	// Period 3 with one corrupted element.
	seq := []int{1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 9, 3, 1, 2, 3, 1, 2, 3}
	if p := Period(seq, 0.85); p != 3 {
		t.Fatalf("period = %d, want 3", p)
	}
	// Strictly random-ish sequence: no period.
	if p := Period([]int{1, 2, 3, 4, 5, 6, 7, 8}, 0); p != 0 {
		t.Fatalf("aperiodic sequence got period %d", p)
	}
	// Constant sequence: period 1.
	if p := Period([]int{5, 5, 5, 5, 5, 5}, 0); p != 1 {
		t.Fatalf("constant sequence period = %d", p)
	}
	if p := Period(nil, 0); p != 0 {
		t.Fatalf("empty period = %d", p)
	}
}

func TestLoopBodyMajority(t *testing.T) {
	seq := []int{1, 2, 1, 2, 1, 9, 1, 2} // one corruption at position 5
	body := LoopBody(seq, 2)
	if len(body) != 2 || body[0] != 1 || body[1] != 2 {
		t.Fatalf("body = %v", body)
	}
	if LoopBody(seq, 0) != nil || LoopBody(nil, 2) != nil {
		t.Fatal("degenerate LoopBody should be nil")
	}
}

func TestSequencesAndLoops(t *testing.T) {
	var bursts []burst.Burst
	// rank 0: 1 2 1 2 ... ; rank 1: 1 2 ... ; noise interleaved.
	for i := 0; i < 20; i++ {
		bursts = append(bursts, burst.Burst{
			Rank: 0, Start: trace.Time(i * 100), End: trace.Time(i*100 + 50),
			Cluster: 1 + i%2,
		})
		bursts = append(bursts, burst.Burst{
			Rank: 1, Start: trace.Time(i * 100), End: trace.Time(i*100 + 50),
			Cluster: 1 + i%2,
		})
	}
	bursts = append(bursts, burst.Burst{Rank: 0, Start: 5, End: 6, Cluster: 0}) // noise
	seqs := Sequences(bursts)
	if len(seqs) != 2 {
		t.Fatalf("sequences = %d", len(seqs))
	}
	if len(seqs[0].Clusters) != 20 {
		t.Fatalf("rank0 sequence length = %d (noise not skipped?)", len(seqs[0].Clusters))
	}
	loops := DetectLoops(seqs)
	for _, l := range loops {
		if l.Period != 2 || l.Repeats != 10 || l.Match != 1 {
			t.Fatalf("loop = %+v", l)
		}
		if !strings.Contains(l.String(), "[1 2] ×10") {
			t.Fatalf("loop string = %q", l.String())
		}
	}
	empty := Loop{Rank: 3}
	if !strings.Contains(empty.String(), "no repetition") {
		t.Fatalf("empty loop string = %q", empty.String())
	}
}

func TestSPMDScore(t *testing.T) {
	perfect := []Sequence{
		{Rank: 0, Clusters: []int{1, 2, 1, 2}},
		{Rank: 1, Clusters: []int{1, 2, 1, 2}},
	}
	if s := SPMDScore(perfect); s != 1 {
		t.Fatalf("perfect score = %g", s)
	}
	// One rank diverges at half the positions.
	mixed := []Sequence{
		{Rank: 0, Clusters: []int{1, 2, 1, 2}},
		{Rank: 1, Clusters: []int{1, 3, 1, 3}},
	}
	if s := SPMDScore(mixed); math.Abs(s-0.75) > 1e-12 {
		t.Fatalf("mixed score = %g, want 0.75", s)
	}
	// Length mismatch counts as disagreement on the tail.
	ragged := []Sequence{
		{Rank: 0, Clusters: []int{1, 1, 1, 1}},
		{Rank: 1, Clusters: []int{1, 1}},
	}
	if s := SPMDScore(ragged); math.Abs(s-0.75) > 1e-12 {
		t.Fatalf("ragged score = %g, want 0.75", s)
	}
	if s := SPMDScore(nil); s != 1 {
		t.Fatalf("empty score = %g", s)
	}
	if s := SPMDScore([]Sequence{{Rank: 0}}); s != 1 {
		t.Fatalf("no-burst score = %g", s)
	}
}

func TestIterationsFromMarkers(t *testing.T) {
	b := trace.NewBuilder("it", 2)
	for r := int32(0); r < 2; r++ {
		for i := 0; i < 5; i++ {
			b.Event(r, trace.Time(i*1000), trace.EvIteration, int64(i+1))
		}
	}
	tr := b.Build()
	st := Iterations(tr)
	if st.Count != 5 || !st.RanksAgree {
		t.Fatalf("stats = %+v", st)
	}
	if st.MeanDuration != 1000 || st.CV != 0 {
		t.Fatalf("durations = %+v", st)
	}
}

func TestIterationsDisagree(t *testing.T) {
	b := trace.NewBuilder("it", 2)
	b.Event(0, 0, trace.EvIteration, 1)
	b.Event(0, 100, trace.EvIteration, 2)
	b.Event(1, 0, trace.EvIteration, 1)
	tr := b.Build()
	st := Iterations(tr)
	if st.RanksAgree {
		t.Fatal("disagreement not flagged")
	}
	if st.Count != 1 {
		t.Fatalf("count = %d, want min across ranks", st.Count)
	}
}

func TestIterationsEmpty(t *testing.T) {
	b := trace.NewBuilder("it", 1)
	st := Iterations(b.Build())
	if st.Count != 0 || st.MeanDuration != 0 {
		t.Fatalf("empty stats = %+v", st)
	}
}

// TestStructureOnSimulatedApps: the full chain — simulate, cluster,
// detect loops — recovers each app's program structure.
func TestStructureOnSimulatedApps(t *testing.T) {
	wantPeriod := map[string]int{
		"stencil": 2, // pack, sweep (slivers are filtered)
		"nbody":   2, // forces, integrate
		"cg":      2, // spmv, axpy+precond
	}
	for _, app := range []sim.App{apps.NewStencil(40), apps.NewNBody(40), apps.NewCG(40)} {
		tr, err := sim.Run(apps.DefaultTraceConfig(4), app)
		if err != nil {
			t.Fatal(err)
		}
		all, err := burst.Extract(tr)
		if err != nil {
			t.Fatal(err)
		}
		kept, _ := burst.Filter{MinDuration: 50_000}.Apply(all)
		cluster.ClusterBursts(kept, cluster.Config{UseIPC: true})
		seqs := Sequences(kept)
		if len(seqs) != 4 {
			t.Fatalf("%s: sequences = %d", app.Name(), len(seqs))
		}
		loops := DetectLoops(seqs)
		for _, l := range loops {
			if l.Period != wantPeriod[app.Name()] {
				t.Fatalf("%s rank %d: period = %d, want %d (body %v)",
					app.Name(), l.Rank, l.Period, wantPeriod[app.Name()], l.Body)
			}
			if l.Match < 0.9 {
				t.Fatalf("%s: weak match %.2f", app.Name(), l.Match)
			}
		}
		ist := Iterations(tr)
		if ist.Count != 40 || !ist.RanksAgree {
			t.Fatalf("%s: iterations = %+v", app.Name(), ist)
		}
		if ist.CV > 0.25 {
			t.Fatalf("%s: iteration CV %.2f implausibly high", app.Name(), ist.CV)
		}
		if math.IsNaN(ist.MeanDuration) || ist.MeanDuration <= 0 {
			t.Fatalf("%s: mean iteration duration %v", app.Name(), ist.MeanDuration)
		}
	}
}
