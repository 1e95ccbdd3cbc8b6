package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/sim"
)

// stallingReader serves its buffered prefix and then blocks until ctx
// is cancelled, returning the context error — the shape of an HTTP
// request body whose client stopped sending and then disconnected.
type stallingReader struct {
	ctx  context.Context
	data []byte
	off  int
}

func (sr *stallingReader) Read(p []byte) (int, error) {
	if sr.off < len(sr.data) {
		n := copy(p, sr.data[sr.off:])
		sr.off += n
		return n, nil
	}
	<-sr.ctx.Done()
	return 0, sr.ctx.Err()
}

// encodeTestTrace simulates a small app and returns the encoded trace.
func encodeTestTrace(t *testing.T) []byte {
	t.Helper()
	app, err := apps.ByName("stencil", 20)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sim.Run(apps.DefaultTraceConfig(2), app)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestAnalyzeStreamContextCancelMidStream(t *testing.T) {
	enc := encodeTestTrace(t)
	ctx, cancel := context.WithCancel(context.Background())

	// Serve half the trace, then stall; cancel shortly after the
	// pipeline has started consuming.
	src := &stallingReader{ctx: ctx, data: enc[:len(enc)/2]}
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()

	start := time.Now()
	rep, err := AnalyzeStreamContext(ctx, src, Options{})
	if err == nil {
		t.Fatal("cancelled analysis returned no error")
	}
	if rep != nil {
		t.Fatal("cancelled analysis returned a partial report")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not unwrap to context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v; the pipeline did not stop promptly", elapsed)
	}
}

func TestAnalyzeStreamContextPreCancelled(t *testing.T) {
	enc := encodeTestTrace(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := AnalyzeStreamContext(ctx, bytes.NewReader(enc), Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled context: got %v, want context.Canceled", err)
	}
}

func TestAnalyzeContextDeadline(t *testing.T) {
	enc := encodeTestTrace(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond) // ensure the deadline has passed
	_, err := AnalyzeStreamContext(ctx, bytes.NewReader(enc), Options{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline: got %v, want context.DeadlineExceeded", err)
	}
}

func TestAnalyzeStreamContextCompletesUncancelled(t *testing.T) {
	enc := encodeTestTrace(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rep, err := AnalyzeStreamContext(ctx, bytes.NewReader(enc), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Bursts == 0 {
		t.Fatal("uncancelled context run produced an empty report")
	}
}

// TestStreamDecodeIndependentOfContext pins that a cancellable context
// does not change how an encoded trace decodes: a corrupt section count
// is judged against the input's size either way, so strict decoding
// fails with the same error and lenient decoding salvages with the same
// warnings under context.Background and under context.WithCancel.
func TestStreamDecodeIndependentOfContext(t *testing.T) {
	tr := simTrace(t, "stencil", 4, 20)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	enc := withEventCount(t, buf.Bytes(), 1<<33)

	for _, lenient := range []bool{false, true} {
		run := func(ctx context.Context) (string, []string) {
			rep, err := AnalyzeStreamContext(ctx, bytes.NewReader(enc), Options{Lenient: lenient})
			if err != nil {
				return err.Error(), nil
			}
			return "", rep.Warnings
		}
		bgErr, bgWarn := run(context.Background())
		ctx, cancel := context.WithCancel(context.Background())
		ctxErr, ctxWarn := run(ctx)
		cancel()
		if bgErr != ctxErr || !slices.Equal(bgWarn, ctxWarn) {
			t.Errorf("lenient=%v: background gave error %q, warnings %q; cancellable context gave %q, %q",
				lenient, bgErr, bgWarn, ctxErr, ctxWarn)
		}
		// Both must have judged the count against the input size.
		if !lenient && !strings.Contains(bgErr, "exceeds remaining input") {
			t.Errorf("strict error %q does not reject the count against the input size", bgErr)
		}
		if lenient && !slices.ContainsFunc(bgWarn, func(w string) bool {
			return strings.Contains(w, "declared impossible record counts")
		}) {
			t.Errorf("lenient warnings %q do not report the clamped count", bgWarn)
		}
	}
}

// withEventCount returns enc with its event-section count rewritten.
func withEventCount(t *testing.T, enc []byte, count uint64) []byte {
	t.Helper()
	metaLen, n := binary.Uvarint(enc[4:])
	if n <= 0 {
		t.Fatal("no metadata length after the magic")
	}
	at := 4 + n + int(metaLen)
	_, m := binary.Uvarint(enc[at:])
	if m <= 0 {
		t.Fatal("no event count after the metadata")
	}
	out := binary.AppendUvarint(append([]byte(nil), enc[:at]...), count)
	return append(out, enc[at+m:]...)
}
