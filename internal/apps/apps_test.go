package apps

import (
	"testing"

	"repro/internal/burst"
	"repro/internal/sim"
	"repro/internal/trace"
)

func TestByName(t *testing.T) {
	for _, name := range Names() {
		app, err := ByName(name, 3)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if app.Name() != name {
			t.Fatalf("app name = %q, want %q", app.Name(), name)
		}
		for _, k := range app.Kernels() {
			if err := k.Validate(); err != nil {
				t.Fatalf("%s kernel: %v", name, err)
			}
		}
	}
	if _, err := ByName("nope", 1); err == nil {
		t.Fatal("unknown app accepted")
	}
}

func TestAppsRunAndProduceExpectedBursts(t *testing.T) {
	const ranks, iters = 4, 5
	wantPerIter := map[string]int{
		// pack + the ~100ns sliver between the two Sendrecvs + sweep.
		"stencil": 3,
		// forces + integrate.
		"nbody": 2,
		// spmv | allreduce | axpy+precond (one burst: no MPI in between).
		"cg": 2,
	}

	for _, app := range []sim.App{NewStencil(iters), NewNBody(iters), NewCG(iters)} {
		cfg := DefaultTraceConfig(ranks)
		tr, err := sim.Run(cfg, app)
		if err != nil {
			t.Fatalf("%s: %v", app.Name(), err)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("%s: %v", app.Name(), err)
		}
		bursts, err := burst.Extract(tr)
		if err != nil {
			t.Fatalf("%s: %v", app.Name(), err)
		}
		want := wantPerIter[app.Name()] * ranks * iters
		if len(bursts) != want {
			t.Fatalf("%s: bursts = %d, want %d", app.Name(), len(bursts), want)
		}
		// Iteration markers present on every rank.
		iterEvents := 0
		for _, e := range tr.Events {
			if e.Type == trace.EvIteration {
				iterEvents++
			}
		}
		if iterEvents != ranks*iters {
			t.Fatalf("%s: iteration events = %d, want %d", app.Name(), iterEvents, ranks*iters)
		}
	}
}

func TestConfigsDiffer(t *testing.T) {
	d := DefaultTraceConfig(8)
	f := FineTraceConfig(8)
	u := UninstrumentedConfig(8)
	if f.Sampling.Period >= d.Sampling.Period {
		t.Fatal("fine config must sample faster")
	}
	if u.Sampling.Period != 0 || u.Instr.EventOverhead != 0 {
		t.Fatal("uninstrumented config must disable observation")
	}
}

func TestNBodyImbalanceVisible(t *testing.T) {
	app := NewNBody(3)
	cfg := UninstrumentedConfig(8)
	cfg.Instr.Oracle = true
	tr, err := sim.Run(cfg, app)
	if err != nil {
		t.Fatal(err)
	}
	bursts, err := burst.Extract(tr)
	if err != nil {
		t.Fatal(err)
	}
	// Middle ranks' forces bursts must be longer than edge ranks'.
	var edge, mid float64
	var nEdge, nMid int
	for _, b := range bursts {
		if b.OracleID != 3 {
			continue
		}
		d := float64(b.Duration())
		switch b.Rank {
		case 0, 7:
			edge += d
			nEdge++
		case 3, 4:
			mid += d
			nMid++
		}
	}
	if nEdge == 0 || nMid == 0 {
		t.Fatal("missing forces bursts")
	}
	if mid/float64(nMid) < 1.2*edge/float64(nEdge) {
		t.Fatalf("imbalance not visible: mid %.0f vs edge %.0f", mid/float64(nMid), edge/float64(nEdge))
	}
}
