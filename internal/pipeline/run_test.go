package pipeline

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The RunContext tests drive each way a run can end and check that it
// returns its error and no Outcome, that no read of the source is still
// in progress when it returns, and that the read-ahead goroutine is gone
// afterwards. make check runs them under -race -count 20.

// scriptedSource serves the first after blocks of a real source, then
// hands every later call to next.
type scriptedSource struct {
	trace.Source
	after  int
	next   func(blk *trace.ColBlock) error
	n      int
	inRead atomic.Int32 // NextBlock calls in progress
}

func (s *scriptedSource) NextBlock(blk *trace.ColBlock) error {
	s.inRead.Add(1)
	defer s.inRead.Add(-1)
	if s.n < s.after {
		s.n++
		return s.Source.NextBlock(blk)
	}
	return s.next(blk)
}

// runTrace is a stencil trace whose events fill more blocks than a run
// makes, so the decoder waits for blocks to come back.
func runTrace(t *testing.T) *trace.Trace {
	t.Helper()
	app, err := apps.ByName("stencil", 200)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sim.Run(apps.DefaultTraceConfig(8), app)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) <= 2*numBlocks*blockRows {
		t.Fatalf("%d events fill too few blocks", len(tr.Events))
	}
	return tr
}

// runFailed calls RunContext and checks that it fails with no Outcome
// and leaves no read in progress and no goroutine behind; it returns the
// error.
func runFailed(t *testing.T, ctx context.Context, src *scriptedSource, cfg Config, before int) error {
	t.Helper()
	out, err := RunContext(ctx, src, cfg)
	if n := src.inRead.Load(); n != 0 {
		t.Fatalf("RunContext returned with %d source reads in progress", n)
	}
	if err == nil {
		t.Fatal("RunContext returned no error")
	}
	if out != nil {
		t.Fatalf("RunContext returned a partial Outcome with error %v", err)
	}
	settled(t, before)
	return err
}

// settled waits for the goroutine count to fall to before. The
// read-ahead goroutine has closed its channel by the time RunContext
// returns; this gives it the moment it needs to exit.
func settled(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after the run, %d before:\n%s",
				runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

func TestRunContextSourceError(t *testing.T) {
	boom := errors.New("boom")
	src := &scriptedSource{
		Source: trace.NewTraceSource(runTrace(t)),
		after:  3,
		next:   func(*trace.ColBlock) error { return boom },
	}
	before := runtime.NumGoroutine()
	if err := runFailed(t, context.Background(), src, Config{}, before); !errors.Is(err, boom) {
		t.Fatalf("error %v, want the source's", err)
	}
}

// TestRunContextExtractError runs an unchecked source, as a shard of a
// split is, whose second block names a rank out of range: the
// extractor's error ends the run while the decoder is in a slow read
// ahead of it, which the run must wait for.
func TestRunContextExtractError(t *testing.T) {
	tr := runTrace(t)
	tr.Events[blockRows+10].Rank = 99
	inner := trace.NewTraceSource(tr)
	src := &scriptedSource{
		Source: inner,
		after:  2,
		next: func(blk *trace.ColBlock) error {
			time.Sleep(20 * time.Millisecond)
			return inner.NextBlock(blk)
		},
	}
	before := runtime.NumGoroutine()
	err := runFailed(t, context.Background(), src, Config{Resume: true}, before)
	if !strings.Contains(err.Error(), "rank 99 out of range") {
		t.Fatalf("error %v, want the extractor's", err)
	}
}

// TestRunContextCancelDuringRead cancels while the decoder is blocked in
// a read, which then fails as a request body does when its client goes:
// the context's error outranks the read's.
func TestRunContextCancelDuringRead(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	blocked := make(chan struct{})
	src := &scriptedSource{
		Source: trace.NewTraceSource(runTrace(t)),
		after:  2,
		next: func(*trace.ColBlock) error {
			close(blocked)
			<-ctx.Done()
			return errors.New("connection reset")
		},
	}
	before := runtime.NumGoroutine()
	go func() {
		<-blocked
		cancel()
	}()
	if err := runFailed(t, ctx, src, Config{}, before); !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v, want context.Canceled", err)
	}
}

// TestRunContextCancelDuringLoop cancels while the loop works through an
// endless stream of sample blocks: the run must notice at a block
// boundary and stop the decoder, which would otherwise never end.
func TestRunContextCancelDuringLoop(t *testing.T) {
	samples := &trace.Trace{Meta: trace.Metadata{App: "samples", Ranks: 1}}
	for i := range blockRows {
		samples.Samples = append(samples.Samples, trace.Sample{Time: trace.Time(i)})
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	blocks := 0
	src := &scriptedSource{
		Source: trace.NewTraceSource(samples),
		next: func(blk *trace.ColBlock) error {
			if blocks++; blocks == 50 {
				cancel()
			}
			return trace.NewTraceSource(samples).NextBlock(blk)
		},
	}
	before := runtime.NumGoroutine()
	if err := runFailed(t, ctx, src, Config{}, before); !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v, want context.Canceled", err)
	}
}

// TestRunContextWalls checks a clean run's stage list, and that the
// extract, phase and fold walls, summed calls on one goroutine, fit in
// the call's elapsed time.
func TestRunContextWalls(t *testing.T) {
	tr := runTrace(t)
	before := runtime.NumGoroutine()
	start := time.Now()
	out, err := RunContext(context.Background(), trace.NewTraceSource(tr), Config{})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	settled(t, before)
	var names []string
	var loop time.Duration
	for i, m := range out.Stages {
		names = append(names, m.Stage)
		if i > 0 {
			loop += m.Wall
		}
	}
	if got := strings.Join(names, " "); got != "decode extract cluster attach" {
		t.Fatalf("stages %q", got)
	}
	if loop > elapsed {
		t.Fatalf("extract, phase and fold walls sum to %v, more than the run's %v", loop, elapsed)
	}
	records := int64(len(tr.Events) + len(tr.Samples) + len(tr.Comms))
	if got := out.Stages[0].RecordsOut; got != records {
		t.Fatalf("decode emitted %d records, want %d", got, records)
	}
}
