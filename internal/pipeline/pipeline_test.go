package pipeline

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// source feeds 0..n-1 into a bounded channel honoring cancellation.
func source(p *Pipeline, n, buf int) <-chan int {
	out := make(chan int, buf)
	p.Go("source", func(m *Metrics) error {
		defer close(out)
		for i := 0; i < n; i++ {
			select {
			case out <- i:
				m.RecordsOut++
			case <-p.quit:
				return nil
			}
		}
		return nil
	})
	return out
}

// TestStageChain runs a three-stage chain — source → double → sum — and
// checks values, per-stage counters, spawn-order metrics, and that flush
// runs exactly once after the input drains.
func TestStageChain(t *testing.T) {
	p := New()
	in := source(p, 100, 4)
	flushed := 0
	doubled := Stage(p, "double", 4, in,
		func(ctx *StageCtx[int], v int) error {
			ctx.Metrics.RecordsIn++
			if ctx.Emit(2 * v) {
				ctx.Metrics.RecordsOut++
			}
			return nil
		},
		func(ctx *StageCtx[int]) error { flushed++; return nil })
	sum := 0
	Sink(p, "sum", doubled,
		func(m *Metrics, v int) error { m.RecordsIn++; sum += v; return nil },
		nil)
	if err := p.wait(); err != nil {
		t.Fatal(err)
	}
	if want := 100 * 99; sum != want {
		t.Fatalf("sum = %d, want %d", sum, want)
	}
	if flushed != 1 {
		t.Fatalf("flush ran %d times", flushed)
	}
	ms := p.Metrics()
	if len(ms) != 3 || ms[0].Stage != "source" || ms[1].Stage != "double" || ms[2].Stage != "sum" {
		t.Fatalf("metrics order = %+v", ms)
	}
	if ms[1].RecordsIn != 100 || ms[1].RecordsOut != 100 || ms[2].RecordsIn != 100 {
		t.Fatalf("counters: double %d/%d, sum in %d",
			ms[1].RecordsIn, ms[1].RecordsOut, ms[2].RecordsIn)
	}
	for _, m := range ms {
		if m.Wall <= 0 {
			t.Fatalf("stage %s has no wall time", m.Stage)
		}
	}
}

// TestSinkErrorUnblocksUpstream is the cancellation contract: when the
// terminal stage fails early, upstream stages blocked on full bounded
// channels must observe Quit and return instead of deadlocking, and Wait
// must report the sink's error.
func TestSinkErrorUnblocksUpstream(t *testing.T) {
	boom := errors.New("boom")
	p := New()
	in := source(p, 1_000_000, 1) // far more than the buffers can hold
	mid := Stage(p, "relay", 1, in,
		func(ctx *StageCtx[int], v int) error { ctx.Emit(v); return nil },
		nil)
	n := 0
	Sink(p, "fail", mid,
		func(m *Metrics, v int) error {
			n++
			if n == 3 {
				return boom
			}
			return nil
		},
		nil)

	done := make(chan error, 1)
	go func() { done <- p.wait() }()
	select {
	case err := <-done:
		if !errors.Is(err, boom) {
			t.Fatalf("Wait = %v, want boom", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pipeline deadlocked after sink error")
	}
}

// TestMidStageError checks a transforming stage's error propagates as the
// pipeline error and its downstream channel still closes, so the sink's
// range loop terminates.
func TestMidStageError(t *testing.T) {
	p := New()
	in := source(p, 50, 4)
	mid := Stage(p, "explode", 4, in,
		func(ctx *StageCtx[int], v int) error {
			if v == 10 {
				return errors.New("explode: v=10")
			}
			ctx.Emit(v)
			return nil
		},
		nil)
	Sink(p, "drain", mid, func(m *Metrics, v int) error { return nil }, nil)
	err := p.wait()
	if err == nil || !strings.Contains(err.Error(), "explode") {
		t.Fatalf("Wait = %v", err)
	}
}

// TestFlushErrorPropagates checks barrier-work failures (clustering at
// the event→sample boundary, final instance flushes) surface like any
// stage error.
func TestFlushErrorPropagates(t *testing.T) {
	p := New()
	in := source(p, 5, 4)
	out := Stage(p, "flushfail", 4, in,
		func(ctx *StageCtx[int], v int) error { return nil },
		func(ctx *StageCtx[int]) error { return errors.New("flush failed") })
	Sink(p, "drain", out, func(m *Metrics, v int) error { return nil }, nil)
	if err := p.wait(); err == nil || !strings.Contains(err.Error(), "flush failed") {
		t.Fatalf("Wait = %v", err)
	}
}

// TestFirstErrorWins checks only the first failure is reported even when
// several stages fail as cancellation tears the pipeline down.
func TestFirstErrorWins(t *testing.T) {
	first := errors.New("first")
	p := New()
	p.fail(first)
	p.fail(errors.New("second"))
	if err := p.wait(); !errors.Is(err, first) {
		t.Fatalf("Wait = %v, want first", err)
	}
}
