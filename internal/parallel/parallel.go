// Package parallel is the small concurrency toolkit the analysis engine
// is built on: bounded index-space fan-out, chunked reduction, and a
// reusable float64 scratch-buffer pool.
//
// Everything here is designed so that callers can keep their output
// independent of the worker count: ForEach and ForEachChunk hand each
// index (or contiguous index range) to exactly one worker, so writing
// results into slot i of a pre-sized slice and reducing sequentially in
// index order yields byte-identical output whether the loop ran on 1 or
// 64 workers. That property is what lets core.AnalyzeContext guarantee
// that parallel and sequential runs produce deep-equal Reports.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a requested parallelism against a loop of n iterations:
// p <= 0 selects runtime.GOMAXPROCS(0), and the result is clamped to
// [1, n] (never more workers than iterations, never fewer than one).
func Workers(p, n int) int {
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if n > 0 && p > n {
		p = n
	}
	if p < 1 {
		p = 1
	}
	return p
}

// ForEach runs fn(i) for every i in [0, n) on at most p workers (p <= 0
// selects GOMAXPROCS). Indices are handed out dynamically, so uneven
// per-index costs balance across workers; iteration order is unspecified.
// fn must be safe for concurrent invocation on distinct indices. With
// p == 1 (or n <= 1) the loop runs inline on the calling goroutine, so
// sequential callers pay no synchronization cost.
func ForEach(n, p int, fn func(i int)) {
	p = Workers(p, n)
	if p == 1 || n <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(p)
	for w := 0; w < p; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// ForEachChunk splits [0, n) into at most p contiguous chunks and runs
// fn(lo, hi) for each — row-partitioned O(n²) loops (distance matrices,
// k-dist scans) amortize per-index dispatch this way while keeping each
// row's inner arithmetic in one goroutine. With p == 1 the single chunk
// runs inline.
func ForEachChunk(n, p int, fn func(lo, hi int)) {
	p = Workers(p, n)
	if p == 1 || n <= 1 {
		if n > 0 {
			fn(0, n)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(p)
	for c := 0; c < p; c++ {
		lo, hi := c*n/p, (c+1)*n/p
		go func() {
			defer wg.Done()
			if lo < hi {
				fn(lo, hi)
			}
		}()
	}
	wg.Wait()
}

// Reduce folds every index in [0, n) into per-chunk accumulators (init
// creates one, body consumes one index) and merges the chunk accumulators
// in ascending chunk order. For a fixed (n, p) the merge order is
// deterministic; for output that is identical across different p the
// merge must be order-independent (integer sums, min/max, set union) —
// floating-point sums are not, so reduce those via an indexed slice and a
// sequential pass instead.
func Reduce[A any](n, p int, init func() A, body func(acc A, i int) A, merge func(a, b A) A) A {
	p = Workers(p, n)
	if p == 1 || n <= 1 {
		acc := init()
		for i := 0; i < n; i++ {
			acc = body(acc, i)
		}
		return acc
	}
	accs := make([]A, p)
	var wg sync.WaitGroup
	wg.Add(p)
	for c := 0; c < p; c++ {
		c, lo, hi := c, c*n/p, (c+1)*n/p
		go func() {
			defer wg.Done()
			acc := init()
			for i := lo; i < hi; i++ {
				acc = body(acc, i)
			}
			accs[c] = acc
		}()
	}
	wg.Wait()
	out := accs[0]
	for _, a := range accs[1:] {
		out = merge(out, a)
	}
	return out
}

// PoolStats is a snapshot of one scratch-slice pool's cumulative
// activity: Gets and Puts count the checkout traffic, Misses the Gets
// that had to allocate because no pooled slice was large enough. A
// steady-state Miss rate near zero is what the pooled kernels are
// designed for; the observability layer exposes these as gauges.
type PoolStats struct {
	Gets, Puts, Misses uint64
}

// slicePool recycles scratch slices of one element type so hot loops
// (AutoEps's row copy, pruning scratch, per-rank aggregation,
// column-block arenas) stop re-allocating on every call.
type slicePool[T any] struct {
	p                  sync.Pool
	gets, puts, misses atomic.Uint64
}

// stats snapshots the pool's cumulative counters.
func (sp *slicePool[T]) stats() PoolStats {
	return PoolStats{Gets: sp.gets.Load(), Puts: sp.puts.Load(), Misses: sp.misses.Load()}
}

// get returns a zeroed slice of length n, reusing pooled capacity when
// possible.
func (sp *slicePool[T]) get(n int) []T {
	sp.gets.Add(1)
	var s []T
	if v := sp.p.Get(); v != nil {
		s = *(v.(*[]T))
	}
	if cap(s) < n {
		sp.misses.Add(1)
		return make([]T, n)
	}
	s = s[:n]
	var zero T
	for i := range s {
		s[i] = zero
	}
	return s
}

// put returns a slice obtained from get to the pool.
func (sp *slicePool[T]) put(s []T) {
	if cap(s) == 0 {
		return
	}
	sp.puts.Add(1)
	s = s[:0]
	sp.p.Put(&s)
}

// Pools reports a snapshot of every scratch-slice pool's cumulative
// statistics, keyed by element type name ("float64", "int", "int32",
// "int64", "uint8", "uint32"). The daemon's /metrics endpoint renders
// these as callback gauges; Gets − Puts of a pool is its current
// occupancy (slices checked out and not yet returned).
func Pools() map[string]PoolStats {
	return map[string]PoolStats{
		"float64": f64Pool.stats(),
		"int":     intPool.stats(),
		"int32":   int32Pool.stats(),
		"int64":   int64Pool.stats(),
		"uint8":   uint8Pool.stats(),
		"uint32":  uint32Pool.stats(),
	}
}

var (
	f64Pool    slicePool[float64]
	intPool    slicePool[int]
	int32Pool  slicePool[int32]
	int64Pool  slicePool[int64]
	uint8Pool  slicePool[uint8]
	uint32Pool slicePool[uint32]
)

// GetFloat64 returns a zeroed scratch slice of length n from the pool.
// Return it with PutFloat64 when done; the slice must not be retained or
// put back twice. Safe for concurrent use.
func GetFloat64(n int) []float64 { return f64Pool.get(n) }

// PutFloat64 returns a slice obtained from GetFloat64 to the pool.
func PutFloat64(s []float64) { f64Pool.put(s) }

// GetInt returns a zeroed []int scratch slice of length n from the pool;
// same contract as GetFloat64.
func GetInt(n int) []int { return intPool.get(n) }

// PutInt returns a slice obtained from GetInt to the pool.
func PutInt(s []int) { intPool.put(s) }

// GetInt32 returns a zeroed []int32 scratch slice of length n from the
// pool; same contract as GetFloat64. Index-heavy structures (neighbor
// adjacency, work queues) use int32 to halve their footprint at the
// million-point scale.
func GetInt32(n int) []int32 { return int32Pool.get(n) }

// PutInt32 returns a slice obtained from GetInt32 to the pool.
func PutInt32(s []int32) { int32Pool.put(s) }

// GetInt64 returns a zeroed []int64 scratch slice of length n from the
// pool; same contract as GetFloat64. The columnar trace blocks carve
// their timestamp, value and counter columns from this pool.
func GetInt64(n int) []int64 { return int64Pool.get(n) }

// PutInt64 returns a slice obtained from GetInt64 to the pool.
func PutInt64(s []int64) { int64Pool.put(s) }

// GetUint8 returns a zeroed []uint8 scratch slice of length n from the
// pool; same contract as GetFloat64. Backs the byte-wide columns (event
// types, counter flags) of the columnar trace blocks.
func GetUint8(n int) []uint8 { return uint8Pool.get(n) }

// PutUint8 returns a slice obtained from GetUint8 to the pool.
func PutUint8(s []uint8) { uint8Pool.put(s) }

// GetUint32 returns a zeroed []uint32 scratch slice of length n from the
// pool; same contract as GetFloat64. Backs the shared stack-frame arenas
// of the columnar trace blocks.
func GetUint32(n int) []uint32 { return uint32Pool.get(n) }

// PutUint32 returns a slice obtained from GetUint32 to the pool.
func PutUint32(s []uint32) { uint32Pool.put(s) }
