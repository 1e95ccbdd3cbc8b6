package apps

// Bench-large preset: the tracegen configuration the large-scale
// benchmarks use (`make bench BENCH_SCALE=large`, tracegen -preset
// bench-large). 32 stencil ranks over 1600 iterations emit two kept
// computation bursts per rank per iteration (halo pack + sweep), i.e.
// ~100k clustered points — enough to exercise the indexed clustering
// kernels at the scale the sublinear paths are built for. Keeping the
// numbers here, next to the app definitions, lets the CLI and the bench
// harness generate the identical workload without sharing files.
const (
	BenchLargeApp   = "stencil"
	BenchLargeRanks = 32
	BenchLargeIters = 1600
)

// BenchLargeName is the -preset spelling tracegen accepts.
const BenchLargeName = "bench-large"
