package main

import (
	"bytes"
	"fmt"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/session"
	"repro/internal/sim"
)

// workload is one named input and option set. The why next to each
// definition records what it was chosen to stress.
type workload struct {
	name    string
	why     string
	app     string
	ranks   int
	iters   int
	config  func(ranks int) sim.Config
	opts    core.Options
	appends int // > 0: a live session fed this many chunks, appendEvery apart
}

var workloads = []workload{
	{
		name: "coarse-large",
		why: "The bench-large preset (19.5 MB, 102k kept bursts). Clustering is ~85% of the analysis; " +
			"a 256-member silhouette sample keeps the exact O(n^2) kernel out of the run.",
		app: apps.BenchLargeApp, ranks: apps.BenchLargeRanks, iters: apps.BenchLargeIters,
		config: apps.DefaultTraceConfig,
		opts:   core.Options{Cluster: cluster.Config{SilhouetteSample: 256}},
	},
	{
		name: "fine-fold",
		why: "cg sampled every 50 us (7.4 MB, 224k samples, 3.2k bursts). Folding is ~65% of the analysis " +
			"and clustering under 10%, so fold and fit changes show here and not on coarse-large.",
		app: "cg", ranks: 8, iters: 200,
		config: apps.FineTraceConfig,
	},
	{
		name: "online-stream",
		why: "The bench-large bytes through the bounded-memory online mode. Decode, extract and on-arrival " +
			"classification are the whole run; clustering sees only the 512-burst training prefix.",
		app: apps.BenchLargeApp, ranks: apps.BenchLargeRanks, iters: apps.BenchLargeIters,
		config: apps.DefaultTraceConfig,
		opts:   core.Options{Stream: core.StreamOptions{Online: true}},
	},
	{
		name: "live-session",
		why: "stencil 8x800 (2.3 MB, 12.8k kept bursts) in ~120 open-loop appends to a journaling daemon. " +
			"Every snapshot re-analyzes the prefix, ~90% of it in the exact silhouette.",
		app: "stencil", ranks: 8, iters: 800,
		config:  apps.DefaultTraceConfig,
		appends: 120,
	},
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// input is what the program under test receives: encoded bytes only.
// The simulated *trace.Trace is dropped once encoded.
type input struct {
	enc     []byte                    // the whole trace
	chunks  [][]byte                  // live-session appends, in order
	kernels map[int64]*kernels.Kernel // ground truth by oracle id
}

// generate simulates the workload's application with the given seed and
// encodes the result. With seed 1 the coarse-large and online-stream
// bytes are those of tracegen -preset bench-large.
func (w *workload) generate(seed uint64) (*input, error) {
	app, err := apps.ByName(w.app, w.iters)
	if err != nil {
		return nil, err
	}
	cfg := w.config(w.ranks)
	cfg.Seed = seed
	tr, err := sim.Run(cfg, app)
	if err != nil {
		return nil, fmt.Errorf("simulate %s: %w", w.name, err)
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		return nil, fmt.Errorf("encode %s: %w", w.name, err)
	}
	in := &input{enc: buf.Bytes(), kernels: map[int64]*kernels.Kernel{}}
	for _, k := range app.Kernels() {
		in.kernels[k.ID] = k
	}
	if w.appends > 0 {
		for _, ch := range session.Chunks(tr, w.appends) {
			var cb bytes.Buffer
			if err := ch.Write(&cb); err != nil {
				return nil, fmt.Errorf("encode chunk: %w", err)
			}
			in.chunks = append(in.chunks, cb.Bytes())
		}
	}
	return in, nil
}
