package sim

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/counters"
	"repro/internal/kernels"
	"repro/internal/trace"
)

// testApp is a configurable application for simulator tests.
type testApp struct {
	name string
	ks   []*kernels.Kernel
	run  func(r *Rank)
}

func (a *testApp) Name() string               { return a.name }
func (a *testApp) Kernels() []*kernels.Kernel { return a.ks }
func (a *testApp) Run(r *Rank)                { a.run(r) }

// simpleKernel builds a deterministic kernel with a linear instruction
// shape and a fixed instruction total.
func simpleKernel(name string, id int64, dur trace.Time, ins int64) *kernels.Kernel {
	k := &kernels.Kernel{Name: name, ID: id, MeanDuration: dur}
	k.Counters[counters.TotIns] = kernels.CounterSpec{Total: ins, Shape: counters.Linear(1, 3)}
	k.Counters[counters.L1DCM] = kernels.CounterSpec{Total: ins / 100, Shape: counters.ExpDecay(3, 0.2)}
	return k
}

// quietConfig disables sampling noise sources for exact-time assertions.
func quietConfig(ranks int) Config {
	cfg := DefaultConfig(ranks)
	cfg.Sampling.Period = 0
	cfg.Sampling.Overhead = 0
	cfg.Instr.EventOverhead = 0
	return cfg
}

func TestSingleRankComputeCounters(t *testing.T) {
	k := simpleKernel("k", 1, 1_000_000, 5_000_000)
	app := &testApp{name: "t", ks: []*kernels.Kernel{k}, run: func(r *Rank) {
		r.Compute(k)
		r.Barrier() // emit at least one MPI event so the trace has structure
	}}
	cfg := quietConfig(1)
	cfg.Sampling.Period = 100_000 // 100 µs → ~10 samples in the kernel
	tr, err := Run(cfg, app)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	samples := samplesOfRank(tr, 0)
	if len(samples) < 5 {
		t.Fatalf("too few samples: %d", len(samples))
	}
	// Each in-kernel sample's instruction count must match the analytic
	// integral of the shape at the sample's position.
	shape := k.ShapeOf(counters.TotIns)
	for _, s := range samples {
		if s.Time >= 1_000_000 {
			continue // after the kernel
		}
		u := float64(s.Time) / 1_000_000
		want := 5_000_000 * shape.Integral(u)
		got := float64(s.Counters[counters.TotIns])
		if math.Abs(got-want) > 1 {
			t.Fatalf("sample at u=%.3f: TOT_INS=%g, want %g", u, got, want)
		}
	}
	// Final counters: last sample during barrier (frozen) carries the full
	// total.
	last := samples[len(samples)-1]
	if last.Time > 1_000_000 && last.Counters[counters.TotIns] != 5_000_000 {
		t.Fatalf("final TOT_INS = %d, want 5000000", last.Counters[counters.TotIns])
	}
}

func TestDeterminism(t *testing.T) {
	k := simpleKernel("k", 1, 500_000, 1_000_000)
	k.NoiseCV = 0.1
	mk := func() App {
		return &testApp{name: "det", ks: []*kernels.Kernel{k}, run: func(r *Rank) {
			for i := 0; i < 5; i++ {
				r.Compute(k)
				r.Allreduce(8)
				next := (r.Rank() + 1) % r.Ranks()
				prev := (r.Rank() + r.Ranks() - 1) % r.Ranks()
				r.Sendrecv(next, 1024, prev, 7, 7)
			}
		}}
	}
	cfg := DefaultConfig(4)
	cfg.Sampling.Period = 50_000
	var bufs [2]bytes.Buffer
	for i := range bufs {
		tr, err := Run(cfg, mk())
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Write(&bufs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(bufs[0].Bytes(), bufs[1].Bytes()) {
		t.Fatal("two identical runs produced different traces")
	}
}

func TestSeedChangesTrace(t *testing.T) {
	k := simpleKernel("k", 1, 500_000, 1_000_000)
	k.NoiseCV = 0.1
	mk := func() App {
		return &testApp{name: "s", ks: []*kernels.Kernel{k}, run: func(r *Rank) {
			r.Compute(k)
			r.Barrier()
		}}
	}
	cfg := DefaultConfig(2)
	cfg.Sampling.Period = 50_000
	var bufs [2]bytes.Buffer
	for i := range bufs {
		cfg.Seed = uint64(i + 1)
		tr, err := Run(cfg, mk())
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Write(&bufs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if bytes.Equal(bufs[0].Bytes(), bufs[1].Bytes()) {
		t.Fatal("different seeds produced identical noisy traces")
	}
}

func TestBarrierSynchronizesToSlowest(t *testing.T) {
	fast := simpleKernel("fast", 1, 100_000, 1000)
	slow := simpleKernel("slow", 2, 900_000, 9000)
	app := &testApp{name: "bar", ks: []*kernels.Kernel{fast, slow}, run: func(r *Rank) {
		if r.Rank() == 0 {
			r.Compute(slow)
		} else {
			r.Compute(fast)
		}
		r.Barrier()
	}}
	cfg := quietConfig(4)
	tr, err := Run(cfg, app)
	if err != nil {
		t.Fatal(err)
	}
	// All barrier exits must coincide at slowest-entry + cost.
	var exits []trace.Time
	for _, e := range tr.Events {
		if e.Type == trace.EvMPI && e.Value == 0 {
			exits = append(exits, e.Time)
		}
	}
	if len(exits) != 4 {
		t.Fatalf("barrier exits = %d, want 4", len(exits))
	}
	for _, x := range exits[1:] {
		if x != exits[0] {
			t.Fatalf("barrier exits differ: %v", exits)
		}
	}
	wantCost := trace.Time(2) * cfg.Network.Latency // ceil(log2 4) = 2 stages
	if exits[0] != 900_000+wantCost {
		t.Fatalf("barrier exit = %d, want %d", exits[0], 900_000+wantCost)
	}
}

func TestEagerSendRecvTiming(t *testing.T) {
	k := simpleKernel("w", 1, 50_000, 100)
	app := &testApp{name: "p2p", ks: []*kernels.Kernel{k}, run: func(r *Rank) {
		if r.Rank() == 0 {
			r.Send(1, 1000, 5)
		} else {
			r.Compute(k) // receiver arrives late
			r.Recv(0, 5)
		}
	}}
	cfg := quietConfig(2)
	tr, err := Run(cfg, app)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Comms) != 1 {
		t.Fatalf("comms = %d, want 1", len(tr.Comms))
	}
	c := tr.Comms[0]
	if c.Src != 0 || c.Dst != 1 || c.Size != 1000 || c.Tag != 5 {
		t.Fatalf("comm = %+v", c)
	}
	if c.SendTime != 0 {
		t.Fatalf("SendTime = %d, want 0", c.SendTime)
	}
	// The comm record carries the physical data arrival:
	// send + latency + size/bw = 0 + 1000 + 1000 = 2000 (the receiver
	// only looked at the buffer at 50 µs, but the data was long there).
	if c.RecvTime != 2000 {
		t.Fatalf("RecvTime = %d, want 2000", c.RecvTime)
	}
}

func TestEagerRecvWaitsForArrival(t *testing.T) {
	k := simpleKernel("w", 1, 50_000, 100)
	app := &testApp{name: "p2p2", ks: []*kernels.Kernel{k}, run: func(r *Rank) {
		if r.Rank() == 0 {
			r.Compute(k) // sender is late
			r.Send(1, 1000, 5)
		} else {
			r.Recv(0, 5)
		}
	}}
	cfg := quietConfig(2)
	tr, err := Run(cfg, app)
	if err != nil {
		t.Fatal(err)
	}
	c := tr.Comms[0]
	// arrival = 50000 + 1000 (latency) + 1000 (transfer) = 52000
	if c.SendTime != 50_000 || c.RecvTime != 52_000 {
		t.Fatalf("comm times = %d → %d, want 50000 → 52000", c.SendTime, c.RecvTime)
	}
}

func TestRendezvousRingNoDeadlock(t *testing.T) {
	k := simpleKernel("w", 1, 10_000, 100)
	big := int64(1 << 20) // above the eager threshold
	app := &testApp{name: "ring", ks: []*kernels.Kernel{k}, run: func(r *Rank) {
		next := (r.Rank() + 1) % r.Ranks()
		prev := (r.Rank() + r.Ranks() - 1) % r.Ranks()
		for i := 0; i < 3; i++ {
			r.Compute(k)
			r.Sendrecv(next, big, prev, 9, 9)
		}
	}}
	cfg := quietConfig(8)
	tr, err := Run(cfg, app)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Comms) != 8*3 {
		t.Fatalf("comms = %d, want 24", len(tr.Comms))
	}
	for _, c := range tr.Comms {
		if c.RecvTime < c.SendTime+cfg.Network.Latency {
			t.Fatalf("rendezvous comm too fast: %+v", c)
		}
	}
}

func TestRendezvousBlocksSender(t *testing.T) {
	k := simpleKernel("w", 1, 100_000, 100)
	app := &testApp{name: "rdv", ks: []*kernels.Kernel{k}, run: func(r *Rank) {
		if r.Rank() == 0 {
			r.Send(1, 1<<20, 1) // rendezvous: must wait for receiver
			r.Barrier()
		} else {
			r.Compute(k)
			r.Recv(0, 1)
			r.Barrier()
		}
	}}
	cfg := quietConfig(2)
	tr, err := Run(cfg, app)
	if err != nil {
		t.Fatal(err)
	}
	// Sender's MPI_Send exit must be at the rendezvous completion, not at
	// time ~0: transfer starts at receiver readiness (100000).
	want := trace.Time(100_000) + cfg.Network.Latency + trace.Time(float64(1<<20)/cfg.Network.Bandwidth)
	var sendExit trace.Time
	ev0 := eventsOfRank(tr, 0)
	for i, e := range ev0 {
		if e.Type == trace.EvMPI && e.Value == int64(trace.MPISend) {
			sendExit = ev0[i+1].Time
			break
		}
	}
	if sendExit != want {
		t.Fatalf("send exit = %d, want %d", sendExit, want)
	}
}

func TestCollectiveMismatchFails(t *testing.T) {
	app := &testApp{name: "bad", ks: nil, run: func(r *Rank) {
		if r.Rank() == 0 {
			r.Allreduce(8)
		} else {
			r.Bcast(0, 8)
		}
	}}
	if _, err := Run(quietConfig(2), app); err == nil {
		t.Fatal("collective mismatch not reported")
	} else if !strings.Contains(err.Error(), "mismatch") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestAppPanicBecomesError(t *testing.T) {
	app := &testApp{name: "boom", ks: nil, run: func(r *Rank) {
		panic("kaboom")
	}}
	if _, err := Run(quietConfig(1), app); err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("err = %v", err)
	}
}

func TestInvalidKernelRejected(t *testing.T) {
	bad := &kernels.Kernel{Name: "", ID: 1, MeanDuration: 10}
	app := &testApp{name: "bad", ks: []*kernels.Kernel{bad}, run: func(r *Rank) {}}
	if _, err := Run(quietConfig(1), app); err == nil {
		t.Fatal("invalid kernel accepted")
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	app := &testApp{name: "x", ks: nil, run: func(r *Rank) {}}
	bads := []func(c *Config){
		func(c *Config) { c.Ranks = 0 },
		func(c *Config) { c.ClockGHz = 0 },
		func(c *Config) { c.Network.Bandwidth = 0 },
		func(c *Config) { c.Network.Latency = -1 },
		func(c *Config) { c.Sampling.Period = -1 },
		func(c *Config) { c.Sampling.Jitter = 1 },
		func(c *Config) { c.Sampling.Overhead = -1 },
		func(c *Config) { c.Sampling.Period = 100; c.Sampling.Overhead = 50 },
	}
	for i, mutate := range bads {
		cfg := quietConfig(2)
		mutate(&cfg)
		if _, err := Run(cfg, app); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestOracleEventsPairAndCount(t *testing.T) {
	k := simpleKernel("k", 7, 10_000, 100)
	const iters = 5
	app := &testApp{name: "oracle", ks: []*kernels.Kernel{k}, run: func(r *Rank) {
		for i := 0; i < iters; i++ {
			r.Compute(k)
			r.Barrier()
		}
	}}
	cfg := quietConfig(3)
	cfg.Instr.Oracle = true
	tr, err := Run(cfg, app)
	if err != nil {
		t.Fatal(err)
	}
	enters, exits := 0, 0
	for _, e := range tr.Events {
		if e.Type != trace.EvOracle {
			continue
		}
		if e.Value == 7 {
			enters++
		} else if e.Value == 0 {
			exits++
		} else {
			t.Fatalf("unexpected oracle value %d", e.Value)
		}
	}
	if enters != 3*iters || exits != 3*iters {
		t.Fatalf("oracle events = %d/%d, want %d/%d", enters, exits, 3*iters, 3*iters)
	}
}

func TestOracleDisabled(t *testing.T) {
	k := simpleKernel("k", 7, 10_000, 100)
	app := &testApp{name: "noor", ks: []*kernels.Kernel{k}, run: func(r *Rank) {
		r.Compute(k)
		r.Barrier()
	}}
	cfg := quietConfig(1)
	cfg.Instr.Oracle = false
	tr, err := Run(cfg, app)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range tr.Events {
		if e.Type == trace.EvOracle {
			t.Fatal("oracle event emitted while disabled")
		}
	}
}

func TestSamplingOverheadDilatesRun(t *testing.T) {
	k := simpleKernel("k", 1, 1_000_000, 1000)
	mk := func() App {
		return &testApp{name: "oh", ks: []*kernels.Kernel{k}, run: func(r *Rank) {
			for i := 0; i < 20; i++ {
				r.Compute(k)
			}
			r.Barrier()
		}}
	}
	base := quietConfig(1)
	trBase, err := Run(base, mk())
	if err != nil {
		t.Fatal(err)
	}
	heavy := quietConfig(1)
	heavy.Sampling.Period = 10_000 // 10 µs: fine-grain
	heavy.Sampling.Overhead = 2_000
	trHeavy, err := Run(heavy, mk())
	if err != nil {
		t.Fatal(err)
	}
	if trHeavy.Meta.Duration <= trBase.Meta.Duration {
		t.Fatalf("sampling overhead did not dilate: %d vs %d", trHeavy.Meta.Duration, trBase.Meta.Duration)
	}
	// Dilation should be roughly nSamples × overhead.
	extra := float64(trHeavy.Meta.Duration - trBase.Meta.Duration)
	want := float64(len(trHeavy.Samples)) * 2000
	if extra < want*0.5 || extra > want*1.5 {
		t.Fatalf("dilation %g, want ≈ %g", extra, want)
	}
}

func TestRegionEventsAndStacks(t *testing.T) {
	k := simpleKernel("k", 1, 100_000, 1000)
	app := &testApp{name: "reg", ks: []*kernels.Kernel{k}, run: func(r *Rank) {
		r.RegionEnter("solver")
		r.Compute(k)
		r.RegionExit()
		r.Barrier()
	}}
	cfg := quietConfig(1)
	cfg.Sampling.Period = 10_000
	tr, err := Run(cfg, app)
	if err != nil {
		t.Fatal(err)
	}
	var regEnter, regExit bool
	for _, e := range tr.Events {
		if e.Type == trace.EvRegion {
			if e.Value != 0 {
				regEnter = true
				if tr.Meta.RegionName(uint32(e.Value)) != "solver" {
					t.Fatalf("region name = %q", tr.Meta.RegionName(uint32(e.Value)))
				}
			} else {
				regExit = true
			}
		}
	}
	if !regEnter || !regExit {
		t.Fatal("region events missing")
	}
	// In-kernel samples must show [kernel, solver, main].
	found := false
	for _, s := range tr.Samples {
		if s.Time < 100_000 && len(s.Stack) == 3 {
			names := []string{
				tr.Meta.RegionName(s.Stack[0]),
				tr.Meta.RegionName(s.Stack[1]),
				tr.Meta.RegionName(s.Stack[2]),
			}
			if names[0] == "k" && names[1] == "solver" && names[2] == "main" {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("no sample carries the expected [k, solver, main] stack")
	}
}

func TestRegionExitWithoutEnterFails(t *testing.T) {
	app := &testApp{name: "bad", ks: nil, run: func(r *Rank) {
		r.RegionExit()
	}}
	if _, err := Run(quietConfig(1), app); err == nil {
		t.Fatal("unbalanced RegionExit accepted")
	}
}

func TestKernelRegionSpansInStacks(t *testing.T) {
	k := simpleKernel("k", 1, 1_000_000, 10_000)
	k.Regions = []kernels.RegionSpan{
		{UpTo: 0.5, Name: "first_half"},
		{UpTo: 1, Name: "second_half"},
	}
	app := &testApp{name: "spans", ks: []*kernels.Kernel{k}, run: func(r *Rank) {
		r.Compute(k)
		r.Barrier()
	}}
	cfg := quietConfig(1)
	cfg.Sampling.Period = 50_000
	tr, err := Run(cfg, app)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range tr.Samples {
		if s.Time >= 1_000_000 || len(s.Stack) < 2 {
			continue
		}
		top := tr.Meta.RegionName(s.Stack[0])
		u := float64(s.Time) / 1_000_000
		want := "first_half"
		if u >= 0.5 {
			want = "second_half"
		}
		// Samples right at the boundary may land either side due to the
		// sampling overhead shifting time; allow a small tolerance band.
		if math.Abs(u-0.5) < 0.02 {
			continue
		}
		if top != want {
			t.Fatalf("sample at u=%.3f has top frame %q, want %q", u, top, want)
		}
	}
}

func TestIterationEvents(t *testing.T) {
	app := &testApp{name: "it", ks: nil, run: func(r *Rank) {
		for i := 1; i <= 3; i++ {
			r.Iteration(i)
			r.Barrier()
		}
	}}
	tr, err := Run(quietConfig(2), app)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for _, e := range tr.Events {
		if e.Type == trace.EvIteration {
			count++
		}
	}
	if count != 6 {
		t.Fatalf("iteration events = %d, want 6", count)
	}
}

func TestImbalancedKernelDurations(t *testing.T) {
	k := simpleKernel("k", 1, 1_000_000, 1000)
	k.Imbalance = kernels.Linear(1) // last rank does 2×
	app := &testApp{name: "imb", ks: []*kernels.Kernel{k}, run: func(r *Rank) {
		r.Compute(k)
		r.Barrier()
	}}
	cfg := quietConfig(4)
	tr, err := Run(cfg, app)
	if err != nil {
		t.Fatal(err)
	}
	// First MPI enter per rank is the end of the compute burst.
	enters := map[int32]trace.Time{}
	for _, e := range tr.Events {
		if e.Type == trace.EvMPI && e.Value != 0 {
			if _, ok := enters[e.Rank]; !ok {
				enters[e.Rank] = e.Time
			}
		}
	}
	if enters[0] != 1_000_000 {
		t.Fatalf("rank 0 burst = %d, want 1000000", enters[0])
	}
	if enters[3] != 2_000_000 {
		t.Fatalf("rank 3 burst = %d, want 2000000", enters[3])
	}
}

func TestPeerOutOfRangeFails(t *testing.T) {
	app := &testApp{name: "peer", ks: nil, run: func(r *Rank) {
		r.Send(5, 10, 0)
	}}
	if _, err := Run(quietConfig(2), app); err == nil {
		t.Fatal("out-of-range peer accepted")
	}
}

func TestCyclesTrackWallTime(t *testing.T) {
	k := simpleKernel("k", 1, 1_000_000, 1000)
	app := &testApp{name: "cyc", ks: []*kernels.Kernel{k}, run: func(r *Rank) {
		r.Compute(k)
		r.Barrier()
	}}
	cfg := quietConfig(1)
	cfg.ClockGHz = 2.0
	cfg.Sampling.Period = 100_000
	tr, err := Run(cfg, app)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range tr.Samples {
		want := int64(float64(s.Time) * 2.0)
		if s.Counters[counters.TotCyc] != want {
			t.Fatalf("cycles at %d = %d, want %d", s.Time, s.Counters[counters.TotCyc], want)
		}
	}
}

func TestCollectivesRun(t *testing.T) {
	app := &testApp{name: "coll", ks: nil, run: func(r *Rank) {
		r.Bcast(0, 4096)
		r.Alltoall(512)
		r.Reduce(0, 2048)
		r.Barrier()
	}}
	tr, err := Run(quietConfig(4), app)
	if err != nil {
		t.Fatal(err)
	}
	ops := map[trace.MPIOp]int{}
	for _, e := range tr.Events {
		if e.Type == trace.EvMPI && e.Value != 0 {
			ops[trace.MPIOp(e.Value)]++
		}
	}
	if ops[trace.MPIBcast] != 4 || ops[trace.MPIAlltoall] != 4 ||
		ops[trace.MPIReduce] != 4 || ops[trace.MPIBarrier] != 4 {
		t.Fatalf("ops = %v", ops)
	}
}

// eventsOfRank returns rank's events in time order.
func eventsOfRank(tr *trace.Trace, rank int32) []trace.Event {
	var out []trace.Event
	for _, e := range tr.Events {
		if e.Rank == rank {
			out = append(out, e)
		}
	}
	return out
}

// samplesOfRank returns rank's samples in time order.
func samplesOfRank(tr *trace.Trace, rank int32) []trace.Sample {
	var out []trace.Sample
	for _, s := range tr.Samples {
		if s.Rank == rank {
			out = append(out, s)
		}
	}
	return out
}
