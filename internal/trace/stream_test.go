package trace

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"testing"
)

// TestStreamReaderMatchesTraceSource is the streaming decoder's core
// contract: the rows it yields from an encoded trace are identical —
// same kinds, order, and contents — to the in-memory trace's rows
// through TraceSource, and it consumes exactly the encoded bytes.
func TestStreamReaderMatchesTraceSource(t *testing.T) {
	tr := buildSmallTrace(t)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	encoded := buf.Len()

	sr, err := NewStreamReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if sr.Meta().App != tr.Meta.App || sr.Meta().Ranks != tr.Meta.Ranks {
		t.Fatalf("stream meta %+v does not match trace", sr.Meta())
	}
	got := collectBlocks(t, sr, 4)
	want := collectBlocks(t, NewTraceSource(tr), 4)
	if len(got) != len(want) {
		t.Fatalf("stream yielded %d records, trace source %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("record %d differs:\nstream %+v\ntrace  %+v", i, got[i], want[i])
		}
	}
	if sr.BytesRead() != int64(encoded) {
		t.Fatalf("BytesRead = %d, encoded size %d", sr.BytesRead(), encoded)
	}
	// The terminal state is sticky.
	blk := NewColBlock(4)
	defer blk.Release()
	if err := sr.NextBlock(blk); err != io.EOF {
		t.Fatalf("NextBlock after EOF = %v", err)
	}
}

// TestStreamWriterByteIdentical pins the StreamWriter's contract: writing
// a trace record-at-a-time produces exactly the bytes Trace.Write does.
func TestStreamWriterByteIdentical(t *testing.T) {
	tr := buildSmallTrace(t)
	var want bytes.Buffer
	if err := tr.Write(&want); err != nil {
		t.Fatal(err)
	}

	var got bytes.Buffer
	sw, err := NewStreamWriter(&got, &tr.Meta)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Begin(KindEvent, len(tr.Events)); err != nil {
		t.Fatal(err)
	}
	for i := range tr.Events {
		if err := sw.WriteEvent(&tr.Events[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Begin(KindSample, len(tr.Samples)); err != nil {
		t.Fatal(err)
	}
	for i := range tr.Samples {
		if err := sw.WriteSample(&tr.Samples[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Begin(KindComm, len(tr.Comms)); err != nil {
		t.Fatal(err)
	}
	for i := range tr.Comms {
		if err := sw.WriteComm(&tr.Comms[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatalf("StreamWriter output differs from Trace.Write (%d vs %d bytes)", got.Len(), want.Len())
	}
}

// TestStreamWriterMisuse checks the writer rejects out-of-order and
// over-count usage instead of producing a corrupt stream.
func TestStreamWriterMisuse(t *testing.T) {
	newWriter := func() *StreamWriter {
		sw, err := NewStreamWriter(io.Discard, &Metadata{App: "x", Ranks: 1})
		if err != nil {
			t.Fatal(err)
		}
		return sw
	}
	if err := newWriter().Begin(KindSample, 0); err == nil {
		t.Error("Begin(sample) before events accepted")
	}
	if err := newWriter().WriteEvent(&Event{}); err == nil {
		t.Error("WriteEvent before Begin accepted")
	}
	sw := newWriter()
	if err := sw.Begin(KindEvent, 1); err != nil {
		t.Fatal(err)
	}
	if err := sw.WriteEvent(&Event{}); err != nil {
		t.Fatal(err)
	}
	if err := sw.WriteEvent(&Event{Time: 1}); err == nil {
		t.Error("extra event beyond declared count accepted")
	}
	sw2 := newWriter()
	if err := sw2.Begin(KindEvent, 1); err != nil {
		t.Fatal(err)
	}
	if err := sw2.Close(); err == nil {
		t.Error("Close with an incomplete section accepted")
	}
}

// corruptCountInput builds an input whose event-section count claims far
// more records than the stream can hold.
func corruptCountInput(t *testing.T, count uint64) []byte {
	t.Helper()
	mj, err := json.Marshal(&Metadata{App: "x", Ranks: 1})
	if err != nil {
		t.Fatal(err)
	}
	raw := append([]byte{}, magic[:]...)
	raw = binary.AppendUvarint(raw, uint64(len(mj)))
	raw = append(raw, mj...)
	raw = binary.AppendUvarint(raw, count)
	// A few plausible record bytes so decoding would "work" for a while
	// if the count were trusted.
	return append(raw, 0, 0, byte(EvMPI), 2, 0)
}

// TestCorruptCountRejectedBeforeAllocation is the hardening contract: a
// section count exceeding what the remaining input could possibly encode
// fails with ErrBadFormat immediately — ReadFrom must not size a
// multi-GB slice from an attacker-controlled header.
func TestCorruptCountRejectedBeforeAllocation(t *testing.T) {
	raw := corruptCountInput(t, 1<<30) // claims 2^30 events in a ~60-byte input
	_, err := ReadFrom(bytes.NewReader(raw))
	if err == nil {
		t.Fatal("corrupt count decoded successfully")
	}
	if !errors.Is(err, ErrBadFormat) {
		t.Fatalf("error %v does not wrap ErrBadFormat", err)
	}

	// Counts beyond the absolute cap are rejected even when the input
	// size is unknown (e.g. a pipe).
	raw = corruptCountInput(t, 1<<40)
	_, err = ReadFrom(hideLen{bytes.NewReader(raw)})
	if err == nil || !errors.Is(err, ErrBadFormat) {
		t.Fatalf("oversized count with unknown input size: err = %v", err)
	}
}

// hideLen masks the underlying reader's Len so NewStreamReader cannot
// discover the input size — the pipe case.
type hideLen struct{ r io.Reader }

func (h hideLen) Read(p []byte) (int, error) { return h.r.Read(p) }

// TestPreallocHintBounded checks the collect-path allocation hint is
// clamped by the remaining input even when the declared count is
// plausible for the validator but still inflated.
func TestPreallocHintBounded(t *testing.T) {
	tr := buildSmallTrace(t)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	sr, err := NewStreamReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	blk := NewColBlock(1)
	defer blk.Release()
	if err := sr.NextBlock(blk); err != nil {
		t.Fatal(err)
	}
	if hint := sr.PreallocHint(KindEvent); hint > buf.Len() {
		t.Fatalf("PreallocHint(event) = %d exceeds total input size %d", hint, buf.Len())
	}
}
