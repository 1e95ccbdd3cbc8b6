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
	"errors"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrStalled is the failure a stall watchdog injects when no stage has
// made progress for the configured timeout — typically an upload that
// went quiet without disconnecting. Errors returned by a watched
// pipeline wrap it and name the stages that were still running.
var ErrStalled = errors.New("pipeline stalled")

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
	// pipeline (cancelled context) concurrently with waitOrAbandon
	// reading the result after the last stage returned.
	metrics []*Metrics

	// progress counts stage work items (blocks moved, records sunk); the
	// stall watchdog watches it tick. stages tracks which stages are
	// still running so a stall error can name the culprits.
	progress atomic.Int64
	stages   []*stageState
}

// stageState is one stage's liveness flag for the stall watchdog.
type stageState struct {
	name string
	done atomic.Bool
}

// New creates an empty pipeline.
func New() *Pipeline {
	return &Pipeline{quit: make(chan struct{})}
}

// Watch ties the pipeline to ctx: when ctx is cancelled the pipeline
// fails with ctx.Err(), which closes quit and releases every sender
// blocked on a full channel, so the stages drain and exit promptly.
// The returned stop function releases the watcher goroutine; call it
// once the pipeline is done (typically deferred next to waitOrAbandon).
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
	st := &stageState{name: name}
	p.stages = append(p.stages, st)
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		defer st.done.Store(true)
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

// beat records one unit of stage progress for the stall watchdog.
func (p *Pipeline) beat() { p.progress.Add(1) }

// liveStages names the stages that have not yet returned.
func (p *Pipeline) liveStages() string {
	var names []string
	for _, st := range p.stages {
		if !st.done.Load() {
			names = append(names, st.name)
		}
	}
	if len(names) == 0 {
		return "unknown"
	}
	return strings.Join(names, ", ")
}

// WatchStall arms a progress watchdog: if no stage moves any work for
// timeout, the pipeline fails with an error wrapping ErrStalled that
// names the stages still running — turning a silently wedged input into
// a diagnosable failure. A timeout of 0 disables the watchdog. Arm it
// only after the last stage has been spawned (the stage list must be
// complete), and pick a timeout comfortably above the longest gap
// between work items — the barrier stages (clustering at the
// event→sample boundary) do minutes-free stretches of CPU work on huge
// traces without moving blocks. The returned stop function releases the
// watchdog goroutine; defer it next to waitOrAbandon.
func (p *Pipeline) WatchStall(timeout time.Duration) (stop func()) {
	if timeout <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	go func() {
		period := timeout / 4
		if period < time.Millisecond {
			period = time.Millisecond
		}
		tick := time.NewTicker(period)
		defer tick.Stop()
		last := p.progress.Load()
		lastChange := time.Now()
		for {
			select {
			case <-done:
				return
			case <-p.quit:
				return
			case <-tick.C:
				if cur := p.progress.Load(); cur != last {
					last, lastChange = cur, time.Now()
					continue
				}
				if time.Since(lastChange) >= timeout {
					p.fail(fmt.Errorf("%w: no progress for %v in stage(s): %s",
						ErrStalled, timeout, p.liveStages()))
					return
				}
			}
		}
	}()
	return func() { close(done) }
}

// stallGrace is how long waitOrAbandon gives a stalled pipeline's stages
// to drain before abandoning them.
const stallGrace = 250 * time.Millisecond

// waitOrAbandon blocks until every stage has returned and reports the
// first error, if any, except that a pipeline failed by the stall
// watchdog is abandoned after a short grace period instead of being
// waited on forever: the very condition the watchdog detects — a stage
// wedged in an uninterruptible read — also prevents that stage from ever
// returning. Abandoning leaks the wedged goroutine until its read
// unblocks; the alternative is hanging the caller with it.
func (p *Pipeline) waitOrAbandon() error {
	done := make(chan struct{})
	go func() {
		p.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return p.loadErr()
	case <-p.quit:
	}
	// An error is latched; the stages normally drain in microseconds.
	select {
	case <-done:
		return p.loadErr()
	case <-time.After(stallGrace):
	}
	if err := p.loadErr(); errors.Is(err, ErrStalled) {
		return err
	}
	<-done
	return p.loadErr()
}

// Metrics returns the per-stage counters in spawn order; call it only
// after waitOrAbandon.
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
			p.beat()
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
		c.p.beat()
		return true
	case <-c.p.quit:
		c.stopped = true
		return false
	}
}
