package burst

import (
	"math/rand/v2"
	"sort"
	"testing"

	"repro/internal/counters"
	"repro/internal/kernels"
	"repro/internal/sim"
	"repro/internal/trace"
)

// buildTrace constructs a two-rank trace with known bursts:
//
//	rank 0: [0,100) compute(ins 1000) | MPI [100,120] | [120,300) compute(ins 4000) | MPI [300,310]
//	rank 1: [0, 50) compute(ins  500) | MPI [ 50,120] | [120,200) compute(ins 1600) | MPI [200,210]
func buildTrace(t *testing.T) *trace.Trace {
	t.Helper()
	b := trace.NewBuilder("bursts", 2)
	// rank 0
	b.Event(0, 10, trace.EvOracle, 7)
	b.Event(0, 90, trace.EvOracle, 0)
	b.EventC(0, 100, trace.EvMPI, int64(trace.MPIBarrier), []int64{1000, 200, 10, 1, 100})
	b.EventC(0, 120, trace.EvMPI, 0, []int64{1000, 240, 10, 1, 100})
	b.Event(0, 130, trace.EvOracle, 8)
	b.Event(0, 290, trace.EvOracle, 0)
	b.EventC(0, 300, trace.EvMPI, int64(trace.MPIAllreduce), []int64{5000, 600, 40, 4, 500})
	b.EventC(0, 310, trace.EvMPI, 0, []int64{5000, 620, 40, 4, 500})
	// rank 1
	b.EventC(1, 50, trace.EvMPI, int64(trace.MPIBarrier), []int64{500, 100, 5, 0, 50})
	b.EventC(1, 120, trace.EvMPI, 0, []int64{500, 240, 5, 0, 50})
	b.EventC(1, 200, trace.EvMPI, int64(trace.MPIAllreduce), []int64{2100, 400, 21, 2, 210})
	b.EventC(1, 210, trace.EvMPI, 0, []int64{2100, 420, 21, 2, 210})
	// samples
	b.Sample(0, 50, []int64{400, 100, 4, 0, 40}, []uint32{1})
	b.Sample(0, 200, []int64{2500, 400, 22, 2, 250}, []uint32{1})
	b.Sample(1, 150, []int64{1100, 300, 11, 1, 110}, nil)
	return b.Build()
}

func TestExtractBasic(t *testing.T) {
	tr := buildTrace(t)
	bursts, err := Extract(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(bursts) != 4 {
		t.Fatalf("bursts = %d, want 4", len(bursts))
	}
	// Global order: (0, rank0), (0, rank1)... starts: r0@0, r1@0, r1@120, r0@120
	b0 := bursts[0] // rank 0, [0,100)
	if b0.Rank != 0 || b0.Start != 0 || b0.End != 100 || b0.Index != 0 {
		t.Fatalf("burst0 = %+v", b0)
	}
	if b0.Instructions() != 1000 {
		t.Fatalf("burst0 ins = %d", b0.Instructions())
	}
	if b0.OracleID != 7 {
		t.Fatalf("burst0 oracle = %d", b0.OracleID)
	}
	b1 := bursts[1] // rank 1, [0,50)
	if b1.Rank != 1 || b1.End != 50 || b1.Instructions() != 500 {
		t.Fatalf("burst1 = %+v", b1)
	}
	// Second bursts use deltas from exit snapshots.
	var r0b2 *Burst
	for i := range bursts {
		if bursts[i].Rank == 0 && bursts[i].Index == 1 {
			r0b2 = &bursts[i]
		}
	}
	if r0b2 == nil {
		t.Fatal("rank 0 second burst missing")
	}
	if r0b2.Start != 120 || r0b2.End != 300 {
		t.Fatalf("r0 burst2 bounds = [%d,%d)", r0b2.Start, r0b2.End)
	}
	if r0b2.Instructions() != 4000 {
		t.Fatalf("r0 burst2 ins = %d", r0b2.Instructions())
	}
	if r0b2.OracleID != 8 {
		t.Fatalf("r0 burst2 oracle = %d", r0b2.OracleID)
	}
	if ipc := r0b2.IPC(); ipc != 4000.0/360.0 {
		t.Fatalf("r0 burst2 IPC = %g", ipc)
	}
}

func TestExtractSkipsZeroDuration(t *testing.T) {
	b := trace.NewBuilder("z", 1)
	b.EventC(0, 100, trace.EvMPI, int64(trace.MPIBarrier), []int64{10})
	b.EventC(0, 120, trace.EvMPI, 0, []int64{10})
	// Next MPI call immediately: zero-length burst at 120.
	b.EventC(0, 120, trace.EvMPI, int64(trace.MPIBarrier), []int64{10})
	b.EventC(0, 130, trace.EvMPI, 0, []int64{10})
	tr := b.Build()
	bursts, err := Extract(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(bursts) != 1 {
		t.Fatalf("bursts = %d, want 1 (zero-length skipped)", len(bursts))
	}
}

func TestExtractRequiresCounters(t *testing.T) {
	b := trace.NewBuilder("nc", 1)
	b.Event(0, 100, trace.EvMPI, int64(trace.MPIBarrier)) // no counters
	b.Event(0, 120, trace.EvMPI, 0)
	b.EventC(0, 200, trace.EvMPI, int64(trace.MPIBarrier), []int64{50})
	b.EventC(0, 230, trace.EvMPI, 0, []int64{50})
	tr := b.Build()
	bursts, err := Extract(tr)
	if err != nil {
		t.Fatal(err)
	}
	// First burst dropped (closing probe has no counters); burst [120,200)
	// dropped too (opening probe has no counters); only [230,...] would
	// need another MPI enter, so exactly zero complete bursts with
	// counters... wait: burst [120,200) opens at uncountered exit.
	if len(bursts) != 0 {
		t.Fatalf("bursts = %d, want 0", len(bursts))
	}
}

func TestFilterApplyAndCoverage(t *testing.T) {
	tr := buildTrace(t)
	bursts, err := Extract(tr)
	if err != nil {
		t.Fatal(err)
	}
	kept, dropped := Filter{MinDuration: 90}.Apply(bursts)
	if len(kept) != 2 || len(dropped) != 2 {
		t.Fatalf("kept/dropped = %d/%d", len(kept), len(dropped))
	}
	for _, d := range dropped {
		if d.Duration() >= 90 {
			t.Fatalf("dropped burst too long: %+v", d)
		}
	}
}

func TestAttachSamples(t *testing.T) {
	tr := buildTrace(t)
	bursts, err := Extract(tr)
	if err != nil {
		t.Fatal(err)
	}
	att := AttachSamples(tr, bursts)
	if len(att) != len(bursts) {
		t.Fatalf("attach len = %d", len(att))
	}
	for i, b := range bursts {
		for _, s := range att[i] {
			if s.Rank != b.Rank || s.Time < b.Start || s.Time >= b.End {
				t.Fatalf("sample %+v outside burst %+v", s, b)
			}
		}
	}
	// rank 0 first burst has the sample at t=50; second at t=200.
	var n0, n1 int
	for i, b := range bursts {
		if b.Rank == 0 && b.Index == 0 {
			n0 = len(att[i])
		}
		if b.Rank == 0 && b.Index == 1 {
			n1 = len(att[i])
		}
	}
	if n0 != 1 || n1 != 1 {
		t.Fatalf("rank0 burst samples = %d, %d; want 1, 1", n0, n1)
	}
}

func TestExtractOnSimulatedTrace(t *testing.T) {
	// End-to-end: bursts from a simulated run must match the kernels the
	// ranks computed, with oracle identity and per-kernel instruction
	// totals.
	kA := &kernels.Kernel{Name: "A", ID: 1, MeanDuration: 200_000}
	kA.Counters[counters.TotIns] = kernels.CounterSpec{Total: 300_000}
	kB := &kernels.Kernel{Name: "B", ID: 2, MeanDuration: 500_000}
	kB.Counters[counters.TotIns] = kernels.CounterSpec{Total: 2_000_000}

	app := &burstApp{ks: []*kernels.Kernel{kA, kB}}
	cfg := sim.DefaultConfig(4)
	cfg.Sampling.Period = 0
	cfg.Instr.EventOverhead = 0
	cfg.Sampling.Overhead = 0
	tr, err := sim.Run(cfg, app)
	if err != nil {
		t.Fatal(err)
	}
	bursts, err := Extract(tr)
	if err != nil {
		t.Fatal(err)
	}
	// 4 ranks × 3 iterations × 2 kernels = 24 bursts.
	if len(bursts) != 24 {
		t.Fatalf("bursts = %d, want 24", len(bursts))
	}
	for _, b := range bursts {
		switch b.OracleID {
		case 1:
			if b.Duration() != 200_000 || b.Instructions() != 300_000 {
				t.Fatalf("kernel A burst wrong: %+v", b)
			}
		case 2:
			if b.Duration() != 500_000 || b.Instructions() != 2_000_000 {
				t.Fatalf("kernel B burst wrong: %+v", b)
			}
		default:
			t.Fatalf("burst without oracle: %+v", b)
		}
	}
}

type burstApp struct {
	ks []*kernels.Kernel
}

func (a *burstApp) Name() string               { return "bursts" }
func (a *burstApp) Kernels() []*kernels.Kernel { return a.ks }
func (a *burstApp) Run(r *sim.Rank) {
	for i := 0; i < 3; i++ {
		r.Compute(a.ks[0])
		r.Barrier()
		r.Compute(a.ks[1])
		r.Allreduce(8)
	}
}

// TestSortMatchesStableSort pins the key sort to the stable
// (Start, Rank) sort it replaced: random bursts with many equal
// (Start, Rank) pairs, already-sorted and reversed inputs, so ties keep
// arrival order and the permutation's fixed points and long cycles are
// all exercised.
func TestSortMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(18, 1))
	for trial := 0; trial < 60; trial++ {
		n := rng.IntN(400)
		bursts := make([]Burst, n)
		for i := range bursts {
			bursts[i] = Burst{
				Rank:  int32(rng.IntN(1 + trial%4)),
				Index: i, // arrival order, to tell tied bursts apart
				Start: trace.Time(rng.IntN(1 + n/3)),
			}
		}
		switch trial % 3 {
		case 1:
			sort.SliceStable(bursts, func(i, j int) bool { return bursts[i].Start < bursts[j].Start })
		case 2:
			sort.SliceStable(bursts, func(i, j int) bool { return bursts[i].Start > bursts[j].Start })
		}
		want := append([]Burst(nil), bursts...)
		sort.SliceStable(want, func(i, j int) bool {
			if want[i].Start != want[j].Start {
				return want[i].Start < want[j].Start
			}
			return want[i].Rank < want[j].Rank
		})
		Sort(bursts)
		for i := range want {
			if bursts[i] != want[i] {
				t.Fatalf("trial %d n=%d: position %d holds burst %d (start %d rank %d), stable sort has %d",
					trial, n, i, bursts[i].Index, bursts[i].Start, bursts[i].Rank, want[i].Index)
			}
		}
	}
}
