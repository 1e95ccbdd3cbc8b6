package profile

import (
	"math"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/sim"
	"repro/internal/trace"
)

func TestComputeKnownTrace(t *testing.T) {
	b := trace.NewBuilder("p", 2)
	// rank 0: compute [0,100), barrier [100,150), compute [150,300),
	//         allreduce [300,340), trailing compute [340,400).
	b.Event(0, 100, trace.EvMPI, int64(trace.MPIBarrier))
	b.Event(0, 150, trace.EvMPI, 0)
	b.Event(0, 300, trace.EvMPI, int64(trace.MPIAllreduce))
	b.Event(0, 340, trace.EvMPI, 0)
	// rank 1: compute [0,50), barrier [50,150), compute to end.
	b.Event(1, 50, trace.EvMPI, int64(trace.MPIBarrier))
	b.Event(1, 150, trace.EvMPI, 0)
	b.Event(1, 400, trace.EvIteration, 1) // sets duration to 400
	tr := b.Build()

	p, err := Compute(tr)
	if err != nil {
		t.Fatal(err)
	}
	if p.Duration != 400 {
		t.Fatalf("duration = %d", p.Duration)
	}
	r0 := p.Ranks[0]
	if r0.ComputeTime != 100+150+60 || r0.MPITime != 50+40 || r0.MPICalls != 2 {
		t.Fatalf("rank0 = %+v", r0)
	}
	r1 := p.Ranks[1]
	if r1.ComputeTime != 50+250 || r1.MPITime != 100 || r1.MPICalls != 1 {
		t.Fatalf("rank1 = %+v", r1)
	}
	if p.TotalCompute != 310+300 || p.TotalMPI != 90+100 {
		t.Fatalf("totals = %d/%d", p.TotalCompute, p.TotalMPI)
	}
	// Ops sorted by time: barrier 150, allreduce 40.
	if len(p.Ops) != 2 || p.Ops[0].Op != trace.MPIBarrier || p.Ops[0].Time != 150 || p.Ops[0].Calls != 2 {
		t.Fatalf("ops = %+v", p.Ops)
	}
	if p.Ops[1].Op != trace.MPIAllreduce || p.Ops[1].Time != 40 {
		t.Fatalf("ops = %+v", p.Ops)
	}
	wantMPI := float64(190) / float64(800)
	if math.Abs(p.MPIFraction()-wantMPI) > 1e-12 {
		t.Fatalf("MPIFraction = %g, want %g", p.MPIFraction(), wantMPI)
	}
	// LB = mean(310,300)/max = 305/310.
	if math.Abs(p.LoadBalance()-305.0/310.0) > 1e-12 {
		t.Fatalf("LoadBalance = %g", p.LoadBalance())
	}
	out := p.Format()
	if !strings.Contains(out, "MPI_Barrier") || !strings.Contains(out, "load balance") {
		t.Fatalf("Format:\n%s", out)
	}
}

func TestComputeErrors(t *testing.T) {
	if _, err := Compute(&trace.Trace{}); err == nil {
		t.Fatal("no ranks accepted")
	}
	// Unbalanced MPI events.
	b := trace.NewBuilder("p", 1)
	b.Event(0, 10, trace.EvMPI, int64(trace.MPIBarrier))
	tr := b.Build()
	if _, err := Compute(tr); err == nil {
		t.Fatal("trace ending inside MPI accepted")
	}
	// Corrupt after build: double enter.
	b2 := trace.NewBuilder("p", 1)
	b2.Event(0, 10, trace.EvMPI, int64(trace.MPIBarrier))
	b2.Event(0, 20, trace.EvMPI, 0)
	tr2 := b2.Build()
	tr2.Events[1].Value = int64(trace.MPIBarrier)
	if _, err := Compute(tr2); err == nil {
		t.Fatal("double enter accepted")
	}
	tr2.Events[0].Value = 0
	tr2.Events[1].Value = 0
	if _, err := Compute(tr2); err == nil {
		t.Fatal("exit while outside accepted")
	}
}

func TestProfileOnSimulatedApps(t *testing.T) {
	for _, app := range []sim.App{apps.NewStencil(20), apps.NewNBody(20), apps.NewCG(20)} {
		cfg := apps.DefaultTraceConfig(8)
		tr, err := sim.Run(cfg, app)
		if err != nil {
			t.Fatal(err)
		}
		p, err := Compute(tr)
		if err != nil {
			t.Fatalf("%s: %v", app.Name(), err)
		}
		if p.MPIFraction() <= 0 || p.MPIFraction() >= 0.5 {
			t.Fatalf("%s: MPI fraction %.3f implausible", app.Name(), p.MPIFraction())
		}
		if lb := p.LoadBalance(); lb <= 0 || lb > 1 {
			t.Fatalf("%s: load balance %.3f out of range", app.Name(), lb)
		}
		// nbody's triangular imbalance must depress LB well below the
		// others.
		if app.Name() == "nbody" && p.LoadBalance() > 0.9 {
			t.Fatalf("nbody LB = %.3f, want < 0.9", p.LoadBalance())
		}
		if app.Name() == "stencil" && p.LoadBalance() < 0.95 {
			t.Fatalf("stencil LB = %.3f, want ≈ 1", p.LoadBalance())
		}
	}
}

func TestEmptyTraceProfile(t *testing.T) {
	b := trace.NewBuilder("e", 3)
	tr := b.Build()
	p, err := Compute(tr)
	if err != nil {
		t.Fatal(err)
	}
	if p.MPIFraction() != 0 || p.LoadBalance() != 1 {
		t.Fatalf("empty profile = %+v", p)
	}
}
