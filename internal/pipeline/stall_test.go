package pipeline

import (
	"context"
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
)

// stallSource serves one block of three events, then blocks NextBlock
// until released — the shape of an upload that goes quiet without
// disconnecting.
type stallSource struct {
	*trace.TraceSource
	release chan struct{}
}

func (s *stallSource) NextBlock(blk *trace.ColBlock) error {
	if err := s.TraceSource.NextBlock(blk); err != io.EOF {
		return err
	}
	<-s.release
	return io.EOF
}

func TestWatchStallNamesStalledStage(t *testing.T) {
	b := trace.NewBuilder("stall", 1)
	for i := 1; i <= 3; i++ {
		b.Event(0, trace.Time(i), trace.EvIteration, int64(i))
	}
	src := &stallSource{TraceSource: trace.NewTraceSource(b.Build()), release: make(chan struct{})}
	defer close(src.release) // unwedge the abandoned decode goroutine

	start := time.Now()
	done := make(chan error, 1)
	go func() {
		_, err := RunContext(context.Background(), src, Config{StallTimeout: 100 * time.Millisecond})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrStalled) {
			t.Fatalf("err = %v, want ErrStalled", err)
		}
		if !strings.Contains(err.Error(), "decode") {
			t.Errorf("stall error %q does not name the decode stage", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stalled pipeline hung instead of failing")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("stall detection took %v", elapsed)
	}
}

func TestWatchStallDisabledByDefault(t *testing.T) {
	// StallTimeout 0 must not arm a watchdog; a normal run completes.
	tr := trace.NewBuilder("ok", 1)
	tr.Event(0, 0, trace.EvIteration, 1)
	tr.Event(0, 10, trace.EvMPI, int64(trace.MPIBarrier))
	tr.Event(0, 20, trace.EvMPI, 0)
	out, err := RunContext(context.Background(), trace.NewTraceSource(tr.Build()), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if out == nil {
		t.Fatal("nil outcome")
	}
}

func TestWatchStallNotTriggeredByProgress(t *testing.T) {
	// A slow-but-progressing source must survive a watchdog whose timeout
	// exceeds the per-record gap.
	b := trace.NewBuilder("slow", 1)
	for i := 0; i < 20; i++ {
		t0 := trace.Time(i * 100)
		b.Event(0, t0, trace.EvIteration, int64(i+1))
		b.Event(0, t0+10, trace.EvMPI, int64(trace.MPIBarrier))
		b.Event(0, t0+20, trace.EvMPI, 0)
	}
	src := &slowSource{inner: trace.NewTraceSource(b.Build()), delay: 2 * time.Millisecond}
	out, err := RunContext(context.Background(), src, Config{StallTimeout: 2 * time.Second, BatchSize: 1})
	if err != nil {
		t.Fatalf("watchdog misfired on a progressing run: %v", err)
	}
	if out.Records.Events == 0 {
		t.Fatal("no records processed")
	}
}

// slowSource delays every block to simulate a trickling input.
type slowSource struct {
	inner *trace.TraceSource
	delay time.Duration
}

func (s *slowSource) Meta() *trace.Metadata { return s.inner.Meta() }

func (s *slowSource) NextBlock(blk *trace.ColBlock) error {
	time.Sleep(s.delay)
	return s.inner.NextBlock(blk)
}
