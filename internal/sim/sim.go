// Package sim is a deterministic discrete-event simulator of message-
// passing parallel applications. It stands in for the paper's real
// substrate (Extrae instrumenting native MPI applications with PAPI
// counters and signal-based sampling), which a Go reproduction cannot
// drive directly: the Go runtime's scheduler and garbage collector would
// perturb any in-process measurement, and native OpenMP/MPI codes are out
// of reach. Instead, applications written against the Rank API execute in
// virtual time; the simulator emits exactly the trace records the real
// tool chain emits — instrumentation events at MPI boundaries, periodic
// samples with hardware-counter snapshots and call stacks, and
// communication records — while also knowing the analytic ground truth of
// every kernel's internal evolution.
//
// Determinism: given the same Config (including Seed) and App, the
// produced trace is bit-for-bit identical across runs. Ranks execute as
// goroutines but interact only through virtual-time rendezvous whose
// results are order-independent (collective exits are maxima over entry
// times; point-to-point matching is FIFO per sender).
package sim

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/kernels"
	"repro/internal/trace"
)

// NetworkConfig models the interconnect.
type NetworkConfig struct {
	// Latency is the one-way message latency.
	Latency trace.Time
	// Bandwidth is the link bandwidth in bytes per nanosecond (1.0 = 1 GB/s).
	Bandwidth float64
	// EagerThreshold is the message size (bytes) up to which sends complete
	// without waiting for the receiver (eager protocol); larger messages
	// rendezvous.
	EagerThreshold int64
}

// SamplingConfig models the timer-based sampler.
type SamplingConfig struct {
	// Period is the nominal sampling period; 0 disables sampling.
	Period trace.Time
	// Jitter is the relative uniform jitter applied to each inter-sample
	// gap (0.05 = ±5%), decorrelating the sampling clock from phase
	// boundaries as a free-running OS timer would.
	Jitter float64
	// Overhead is the virtual-time cost charged to the application for
	// taking one sample (signal delivery + unwinding + counter reads).
	Overhead trace.Time
}

// InstrConfig models the instrumentation probes.
type InstrConfig struct {
	// EventOverhead is the virtual-time cost of emitting one
	// instrumentation event (probe entry or exit).
	EventOverhead trace.Time
	// Oracle controls emission of ground-truth EvOracle kernel identity
	// events. They cost nothing and are never consumed by the analysis
	// pipeline — only by tests and accuracy evaluation.
	Oracle bool
}

// PerturbConfig injects a reproducible behavior change into selected
// iterations — the controlled "regression" half of a two-run
// differential experiment. On a selected iteration, every matching
// kernel instance is slowed by inserting a counter-free stall of
// (Factor−1)× its nominal duration at normalized position At inside
// the instance: the instance's mean counter rates drop by 1/Factor and
// the folded rate curves dip around At, which is exactly the signal
// cross-run diffing must localize. Selection is a pure hash of
// (Seed, iteration) — it consumes no simulator randomness, so the
// unperturbed iterations of a perturbed run stay bit-identical to the
// baseline run's.
type PerturbConfig struct {
	// Factor is the slowdown of selected instances (2 = twice as slow);
	// 0 or 1 disables perturbation entirely.
	Factor float64
	// Fraction is the fraction of iterations selected, in (0,1].
	Fraction float64
	// Kernel restricts the perturbation to one kernel name ("" = all).
	Kernel string
	// At is the normalized position inside the instance where the stall
	// is inserted, in [0,1].
	At float64
	// Seed seeds iteration selection, independently of Config.Seed.
	Seed uint64
}

func (p *PerturbConfig) enabled() bool { return p.Factor > 1 && p.Fraction > 0 }

// Selected reports whether iteration n (1-based; 0 = before the first
// marker) is perturbed. It is a pure function of (Seed, n) — every rank
// agrees without consuming any rng stream (splitmix64 finalizer).
func (p *PerturbConfig) Selected(n int) bool {
	if !p.enabled() || n <= 0 {
		return false
	}
	x := p.Seed ^ (uint64(n) * 0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11)/(1<<53) < p.Fraction
}

// Config parameterizes a simulated run.
type Config struct {
	Ranks    int
	Seed     uint64
	ClockGHz float64 // core clock in cycles per nanosecond
	Network  NetworkConfig
	Sampling SamplingConfig
	Instr    InstrConfig
	Perturb  PerturbConfig
}

// DefaultConfig returns a reasonable cluster-node configuration: 2.5 GHz
// cores, 1 µs / 1 GB/s network, 32 KiB eager threshold, 20 ms sampling
// with ±5% jitter and 2 µs per-sample cost, 100 ns per probe event.
func DefaultConfig(ranks int) Config {
	return Config{
		Ranks:    ranks,
		Seed:     1,
		ClockGHz: 2.5,
		Network: NetworkConfig{
			Latency:        1000, // 1 µs
			Bandwidth:      1.0,  // 1 GB/s
			EagerThreshold: 32 << 10,
		},
		Sampling: SamplingConfig{
			Period:   20_000_000, // 20 ms
			Jitter:   0.05,
			Overhead: 2000, // 2 µs
		},
		Instr: InstrConfig{
			EventOverhead: 100,
			Oracle:        true,
		},
	}
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if c.Ranks < 1 {
		return fmt.Errorf("sim: need at least 1 rank, got %d", c.Ranks)
	}
	if c.ClockGHz <= 0 {
		return fmt.Errorf("sim: non-positive clock %g", c.ClockGHz)
	}
	if c.Network.Bandwidth <= 0 {
		return fmt.Errorf("sim: non-positive bandwidth %g", c.Network.Bandwidth)
	}
	if c.Network.Latency < 0 {
		return fmt.Errorf("sim: negative latency %d", c.Network.Latency)
	}
	if c.Sampling.Period < 0 {
		return fmt.Errorf("sim: negative sampling period %d", c.Sampling.Period)
	}
	if c.Sampling.Jitter < 0 || c.Sampling.Jitter >= 1 {
		return fmt.Errorf("sim: sampling jitter %g outside [0,1)", c.Sampling.Jitter)
	}
	if c.Sampling.Overhead < 0 || c.Instr.EventOverhead < 0 {
		return fmt.Errorf("sim: negative overhead")
	}
	if c.Sampling.Period > 0 && c.Sampling.Overhead*2 >= c.Sampling.Period {
		return fmt.Errorf("sim: sampling overhead %d too large for period %d (the sampler would consume the machine)",
			c.Sampling.Overhead, c.Sampling.Period)
	}
	if p := &c.Perturb; p.Factor != 0 {
		if p.Factor < 1 {
			return fmt.Errorf("sim: perturb factor %g below 1 (perturbation only slows instances down)", p.Factor)
		}
		if p.Fraction < 0 || p.Fraction > 1 {
			return fmt.Errorf("sim: perturb fraction %g outside [0,1]", p.Fraction)
		}
		if p.At < 0 || p.At > 1 {
			return fmt.Errorf("sim: perturb position %g outside [0,1]", p.At)
		}
	}
	return nil
}

// App is a simulated parallel application. Run is invoked once per rank,
// concurrently; it must use only the Rank API for inter-rank interaction.
// Kernels must declare every kernel Run computes so the simulator can
// pre-intern region names deterministically and expose ground truth.
type App interface {
	Name() string
	Kernels() []*kernels.Kernel
	Run(r *Rank)
}

// Run executes the application under the configuration and returns the
// assembled, validated trace.
func Run(cfg Config, app App) (*trace.Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ks := app.Kernels()
	for _, k := range ks {
		if err := k.Validate(); err != nil {
			return nil, fmt.Errorf("sim: app %q: %w", app.Name(), err)
		}
	}

	eng := newEngine(&cfg)
	eng.internFixedRegions(ks)

	ranks := make([]*Rank, cfg.Ranks)
	for i := range ranks {
		ranks[i] = newRank(i, &cfg, eng)
	}

	var wg sync.WaitGroup
	errCh := make(chan error, cfg.Ranks)
	for _, r := range ranks {
		wg.Add(1)
		go func(r *Rank) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errCh <- fmt.Errorf("sim: rank %d panicked: %v", r.id, p)
				}
			}()
			app.Run(r)
		}(r)
	}
	wg.Wait()
	close(errCh)
	if err := <-errCh; err != nil {
		return nil, err
	}

	// Assemble the trace deterministically: regions in interning order,
	// then per-rank record streams.
	b := trace.NewBuilder(app.Name(), cfg.Ranks)
	b.SetSeed(cfg.Seed)
	b.SetSamplePeriod(cfg.Sampling.Period)
	b.SetParam("clock_ghz", fmt.Sprintf("%g", cfg.ClockGHz))
	b.SetParam("sample_overhead_ns", fmt.Sprintf("%d", cfg.Sampling.Overhead))
	b.SetParam("event_overhead_ns", fmt.Sprintf("%d", cfg.Instr.EventOverhead))
	if cfg.Perturb.enabled() {
		b.SetParam("perturb_factor", fmt.Sprintf("%g", cfg.Perturb.Factor))
		b.SetParam("perturb_fraction", fmt.Sprintf("%g", cfg.Perturb.Fraction))
		b.SetParam("perturb_at", fmt.Sprintf("%g", cfg.Perturb.At))
		b.SetParam("perturb_seed", fmt.Sprintf("%d", cfg.Perturb.Seed))
		if cfg.Perturb.Kernel != "" {
			b.SetParam("perturb_kernel", cfg.Perturb.Kernel)
		}
	}
	for _, name := range eng.regionNames() {
		b.Region(name)
	}
	for _, r := range ranks {
		for _, e := range r.events {
			if e.HasCounters {
				b.EventC(e.Rank, e.Time, e.Type, e.Value, e.Counters[:])
			} else {
				b.Event(e.Rank, e.Time, e.Type, e.Value)
			}
		}
		for _, s := range r.samples {
			b.Sample(s.Rank, s.Time, s.Counters[:], s.Stack)
		}
		for _, c := range r.comms {
			b.Comm(c.Src, c.Dst, c.SendTime, c.RecvTime, c.Size, c.Tag)
		}
	}
	tr := b.Build()
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("sim: produced invalid trace: %w", err)
	}
	return tr, nil
}

// sortedKernelNames returns kernel names in deterministic order.
func sortedKernelNames(ks []*kernels.Kernel) []string {
	names := make([]string, len(ks))
	for i, k := range ks {
		names[i] = k.Name
	}
	sort.Strings(names)
	return names
}
