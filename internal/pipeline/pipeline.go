// Package pipeline is the streaming analysis engine: a set of composable
// stages connected by bounded channels that turn a stream of trace
// record blocks (trace.Source) into the measured Outcome that
// core.Reduce resolves phases over and builds reports from. Batch and
// streaming analysis run through the exact same stages — batch feeds an
// in-memory TraceSource, streaming a decoding StreamReader, both filling
// the same column blocks — so there is one implementation of extraction,
// sample attachment and incremental folding to test and to trust.
//
// The flow is decode → extract → phase (gather the kept bursts; an
// online run also trains and classifies) → fold (attach samples, or fold
// them incrementally online). An exact run resolves no phases: it is the
// map half of core's algebra, and core.Reduce clusters its bursts. Stages run
// concurrently; the bounded channels give backpressure, so a fast
// decoder cannot outrun a slow analysis stage by more than a few blocks
// and the engine's working set stays constant. Record batches travel in
// pooled blocks recycled by the final stage, keeping the steady-state
// allocation rate of a streaming run near zero.
package pipeline

import (
	"context"
	"log/slog"
	"sync"
	"time"
)

// Metrics records one stage's observability counters, carried into the
// Report so users can see where records and time went.
type Metrics struct {
	// Stage is the stage name ("decode", "extract", ...).
	Stage string
	// RecordsIn and RecordsOut count the logical records (events,
	// samples, comms, bursts, instances — whatever the stage consumes and
	// produces), not channel messages.
	RecordsIn, RecordsOut int64
	// Bytes is the encoded input bytes attributed to the stage (decode
	// reports the trace size when known; other stages report 0).
	Bytes int64
	// Wall is the stage's wall-clock time from start to completion. Since
	// stages run concurrently, stage walls overlap and do not sum to the
	// pipeline's elapsed time.
	Wall time.Duration
}

// Pipeline coordinates a set of concurrently-running stages: it
// propagates the first error, signals cancellation so upstream stages
// unblock from full channels, and collects per-stage metrics in spawn
// order.
type Pipeline struct {
	// Logger, when non-nil, receives a debug record per completed stage
	// (name, records in/out, wall time) — the live view of the same
	// counters the Report carries. Set it before the first Go call.
	Logger *slog.Logger

	wg    sync.WaitGroup
	once  sync.Once
	quit  chan struct{} // closed when any stage fails; senders select on it
	errMu sync.Mutex
	err   error // guarded by errMu: a Watch goroutine can fail the
	// pipeline (cancelled context) concurrently with wait reading the
	// result after the last stage returned.
	metrics []*Metrics
}

// New creates an empty pipeline.
func New() *Pipeline {
	return &Pipeline{quit: make(chan struct{})}
}

// Watch ties the pipeline to ctx: when ctx is cancelled the pipeline
// fails with ctx.Err(), which closes quit and releases every sender
// blocked on a full channel, so the stages drain and exit promptly.
// The returned stop function releases the watcher goroutine; call it
// once the pipeline is done (typically deferred next to wait).
func (p *Pipeline) Watch(ctx context.Context) (stop func()) {
	if ctx == nil || ctx.Done() == nil {
		return func() {}
	}
	done := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			p.fail(ctx.Err())
		case <-done:
		case <-p.quit:
		}
	}()
	return func() { close(done) }
}

// fail records the first error and releases every blocked sender.
func (p *Pipeline) fail(err error) {
	p.once.Do(func() {
		p.errMu.Lock()
		p.err = err
		p.errMu.Unlock()
		close(p.quit)
	})
}

// loadErr reads the latched error under the lock.
func (p *Pipeline) loadErr() error {
	p.errMu.Lock()
	defer p.errMu.Unlock()
	return p.err
}

// Go runs fn as a named stage. fn owns the returned Metrics for counting
// and must return promptly once the pipeline fails. Stage wall time is
// measured around fn.
func (p *Pipeline) Go(name string, fn func(m *Metrics) error) {
	m := &Metrics{Stage: name}
	p.metrics = append(p.metrics, m)
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		start := time.Now()
		err := fn(m)
		m.Wall = time.Since(start)
		if err != nil {
			p.fail(err)
		}
		if p.Logger != nil {
			p.Logger.Debug("stage done", "stage", name,
				"records_in", m.RecordsIn, "records_out", m.RecordsOut,
				"wall", m.Wall, "err", err)
		}
	}()
}

// wait blocks until every stage has returned and reports the first
// error, if any.
func (p *Pipeline) wait() error {
	p.wg.Wait()
	return p.loadErr()
}

// Metrics returns the per-stage counters in spawn order; call it only
// after wait.
func (p *Pipeline) Metrics() []Metrics {
	out := make([]Metrics, len(p.metrics))
	for i, m := range p.metrics {
		out[i] = *m
	}
	return out
}

// Stage wires fn as a transforming stage: it consumes every item from
// in, may emit items downstream via ctx.Emit, and has flush called once
// after in is drained (barrier work — clustering, final flushes — goes
// there; flush may be nil). The output channel is bounded by buf and
// closed when the stage returns, and emission aborts cleanly when the
// pipeline is cancelled.
func Stage[In, Out any](p *Pipeline, name string, buf int, in <-chan In,
	fn func(ctx *StageCtx[Out], v In) error,
	flush func(ctx *StageCtx[Out]) error) <-chan Out {

	out := make(chan Out, buf)
	p.Go(name, func(m *Metrics) error {
		defer close(out)
		ctx := &StageCtx[Out]{p: p, out: out, Metrics: m}
		for v := range in {
			if err := fn(ctx, v); err != nil {
				return err
			}
			if ctx.stopped {
				return nil
			}
		}
		if flush != nil {
			return flush(ctx)
		}
		return nil
	})
	return out
}

// Sink is Stage with no downstream: the terminal stage of a pipeline.
func Sink[In any](p *Pipeline, name string, in <-chan In,
	fn func(m *Metrics, v In) error,
	flush func(m *Metrics) error) {

	p.Go(name, func(m *Metrics) error {
		for v := range in {
			if err := fn(m, v); err != nil {
				return err
			}
		}
		if flush != nil {
			return flush(m)
		}
		return nil
	})
}

// StageCtx is the emission side handed to a stage body.
type StageCtx[Out any] struct {
	p       *Pipeline
	out     chan<- Out
	stopped bool
	// Metrics is the stage's counter block; bodies update RecordsIn and
	// RecordsOut themselves since only they know the record granularity.
	Metrics *Metrics
}

// Emit sends v downstream, blocking under backpressure. It returns false
// when the pipeline was cancelled; the stage should then return nil
// promptly (the failing stage already carries the error).
func (c *StageCtx[Out]) Emit(v Out) bool {
	select {
	case c.out <- v:
		return true
	case <-c.p.quit:
		c.stopped = true
		return false
	}
}
