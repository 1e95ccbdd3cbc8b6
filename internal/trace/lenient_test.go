package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
)

// featuredTrace builds a trace exercising every record shape: events
// with and without counters, samples with and without stacks, comms.
func featuredTrace(t testing.TB, iters int) *Trace {
	t.Helper()
	b := NewBuilder("lenient", 2)
	b.SetSamplePeriod(1000)
	rA := b.Region("solve")
	rB := b.Region("main")
	base := Time(0)
	for i := 0; i < iters; i++ {
		c := int64(i) * 1000 // running counter base keeps streams monotone
		b.Event(0, base, EvIteration, int64(i+1))
		b.EventC(0, base+10, EvMPI, int64(MPIBarrier), []int64{c + 50, c + 100, c + 2, c + 1, c + 10})
		b.Event(1, base+12, EvMPI, int64(MPIBarrier))
		b.EventC(0, base+20, EvMPI, 0, []int64{c + 60, c + 120, c + 3, c + 2, c + 20})
		b.Event(1, base+25, EvMPI, 0)
		b.Sample(0, base+500, []int64{c + 100, c + 200, c + 5, c + 1, c + 50}, []uint32{rA, rB})
		b.Sample(1, base+700, []int64{c + 90, c + 180, c + 3, c + 1, c + 40}, nil)
		b.Comm(0, 1, base+800, base+850, 4096, 7)
		base += 1000
	}
	return b.Build()
}

func encodeTrace(t testing.TB, tr *Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestLenientCleanInputMatchesStrict(t *testing.T) {
	enc := encodeTrace(t, featuredTrace(t, 10))
	want, err := ReadFrom(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	got, st, err := ReadFromLenient(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	if st.Degraded() {
		t.Fatalf("clean input reported degraded stats: %+v", st)
	}
	if !reflect.DeepEqual(want.Events, got.Events) ||
		!reflect.DeepEqual(want.Samples, got.Samples) ||
		!reflect.DeepEqual(want.Comms, got.Comms) {
		t.Fatal("lenient decode of clean input differs from strict")
	}
}

func TestLenientTruncatedInput(t *testing.T) {
	full := featuredTrace(t, 10)
	enc := encodeTrace(t, full)
	// Strict decoding of every truncation must fail; lenient decoding
	// must salvage a prefix, flag Truncated, and never panic.
	for _, frac := range []int{35, 60, 90} {
		cut := len(enc) * frac / 100
		if _, err := ReadFrom(bytes.NewReader(enc[:cut])); err == nil {
			t.Fatalf("strict decode of %d%% truncation unexpectedly succeeded", frac)
		} else if !errors.Is(err, ErrBadFormat) {
			t.Fatalf("strict truncation error does not wrap ErrBadFormat: %v", err)
		}
		tr, st, err := ReadFromLenient(bytes.NewReader(enc[:cut]))
		if err != nil {
			t.Fatalf("lenient decode of %d%% truncation failed: %v", frac, err)
		}
		if !st.Truncated || !st.Degraded() {
			t.Fatalf("%d%% truncation: stats %+v missing Truncated/Degraded", frac, st)
		}
		total := len(tr.Events) + len(tr.Samples) + len(tr.Comms)
		if total == 0 {
			t.Fatalf("%d%% truncation salvaged nothing", frac)
		}
		if len(tr.Events) > len(full.Events) {
			t.Fatalf("%d%% truncation yielded more events than the original", frac)
		}
		// Salvaged records must be a clean prefix-or-subset: re-encoding
		// must work (monotone timestamps preserved).
		encodeTrace(t, tr)
	}
}

// TestTrailingBytes appends bytes no section accounts for to a clean
// trace: strict decoding fails and names the byte where they start,
// lenient decoding returns the clean trace and counts them. A read that
// fails after the last section fails both modes.
func TestTrailingBytes(t *testing.T) {
	enc := encodeTrace(t, featuredTrace(t, 10))
	want, err := ReadFrom(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	buf := append(append([]byte(nil), enc...), bytes.Repeat([]byte{0x5a}, 5000)...)
	for _, rd := range decodeReaders {
		_, err := ReadFrom(rd.wrap(buf))
		if !errors.Is(err, ErrBadFormat) || !strings.Contains(err.Error(), fmt.Sprintf("at byte %d", len(enc))) {
			t.Fatalf("%s reader: strict decode with a tail: error %v, want ErrBadFormat at byte %d",
				rd.name, err, len(enc))
		}
		got, st, err := ReadFromLenient(rd.wrap(buf))
		if err != nil {
			t.Fatal(err)
		}
		if st.TrailingBytes != 5000 || !st.Degraded() {
			t.Fatalf("%s reader: lenient stats %+v, want 5000 trailing bytes", rd.name, st)
		}
		if w := st.Warnings(); len(w) != 1 || w[0] != "salvage decode: skipped 5000 trailing bytes after the comm section" {
			t.Fatalf("%s reader: lenient warnings %q", rd.name, w)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s reader: lenient decode with a tail differs from the clean decode", rd.name)
		}
	}
	for _, mode := range []Mode{Strict, Lenient} {
		sr, err := NewStreamReaderMode(io.MultiReader(bytes.NewReader(enc), iotest.ErrReader(errTransient)), mode)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := readAll(sr); !errors.Is(err, errTransient) || !errors.Is(err, ErrBadFormat) {
			t.Fatalf("%v mode: a read failing after the last section gave %v, want the read error", mode, err)
		}
	}
}

func TestLenientBitFlips(t *testing.T) {
	full := featuredTrace(t, 10)
	enc := encodeTrace(t, full)
	// Flip bits across the record region (past the header third of the
	// file); every outcome must be panic-free, and whatever is salvaged
	// must still be a canonically-ordered, re-encodable trace.
	for pos := len(enc) / 3; pos < len(enc); pos += 97 {
		for _, bit := range []uint{0, 3, 7} {
			mut := append([]byte(nil), enc...)
			mut[pos] ^= 1 << bit
			tr, _, err := ReadFromLenient(bytes.NewReader(mut))
			if err != nil {
				t.Fatalf("lenient decode failed at pos %d bit %d: %v", pos, bit, err)
			}
			encodeTrace(t, tr)
		}
	}
}

func TestLenientDropsImplausibleRecords(t *testing.T) {
	// Hand-encode a trace whose metadata says 1 rank but whose event
	// section contains a rank-5 event: strict returns it, lenient drops it.
	meta := &Metadata{App: "x", Ranks: 1, Duration: 1000}
	var buf bytes.Buffer
	sw, err := NewStreamWriter(&buf, meta)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Begin(KindEvent, 2); err != nil {
		t.Fatal(err)
	}
	good := Event{Rank: 0, Time: 10, Type: EvIteration, Value: 1}
	bad := Event{Rank: 5, Time: 20, Type: EvIteration, Value: 2}
	if err := sw.WriteEvent(&good); err != nil {
		t.Fatal(err)
	}
	if err := sw.WriteEvent(&bad); err != nil {
		t.Fatal(err)
	}
	for k := KindSample; k < numKinds; k++ {
		if err := sw.Begin(k, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}

	strictTr, err := ReadFrom(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(strictTr.Events) != 2 {
		t.Fatalf("strict decode returned %d events, want 2", len(strictTr.Events))
	}

	tr, st, err := ReadFromLenient(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) != 1 || tr.Events[0] != good {
		t.Fatalf("lenient decode kept %v, want only the in-range event", tr.Events)
	}
	if st.DroppedEvents != 1 || !st.Degraded() {
		t.Fatalf("stats %+v, want DroppedEvents=1", st)
	}
}

func TestLenientCorruptSectionCountClamped(t *testing.T) {
	// Replace an empty trace's final section count with a huge varint:
	// strict rejects, lenient clamps and finishes.
	enc := encodeTrace(t, NewBuilder("c", 1).Build())
	mut := append(append([]byte(nil), enc[:len(enc)-1]...), 0xff, 0xff, 0xff, 0xff, 0x0f)
	if _, err := ReadFrom(bytes.NewReader(mut)); err == nil {
		t.Fatal("strict decode of corrupt count unexpectedly succeeded")
	}
	_, st, err := ReadFromLenient(bytes.NewReader(mut))
	if err != nil {
		t.Fatal(err)
	}
	if !st.Degraded() {
		t.Fatalf("corrupt section count not reflected in stats: %+v", st)
	}
}

func TestLenientHeaderCorruptionStillFatal(t *testing.T) {
	enc := encodeTrace(t, featuredTrace(t, 1))
	mut := append([]byte(nil), enc...)
	mut[1] ^= 0xff // inside the magic
	if _, _, err := ReadFromLenient(bytes.NewReader(mut)); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("lenient decode of corrupt magic: err=%v, want ErrBadFormat", err)
	}
}

func TestLenientStreamReaderEOFSticky(t *testing.T) {
	enc := encodeTrace(t, featuredTrace(t, 2))
	sr, err := NewStreamReaderMode(bytes.NewReader(enc[:len(enc)*2/3]), Lenient)
	if err != nil {
		t.Fatal(err)
	}
	blk := NewColBlock(3)
	defer blk.Release()
	for {
		if err := sr.NextBlock(blk); err != nil {
			if err != io.EOF {
				t.Fatalf("lenient NextBlock error: %v", err)
			}
			break
		}
	}
	if err := sr.NextBlock(blk); err != io.EOF {
		t.Fatalf("EOF not sticky: %v", err)
	}
	if !sr.stats.Truncated {
		t.Fatalf("stats %+v missing Truncated", sr.stats)
	}
}

func TestBadRecordErrorUnwrapping(t *testing.T) {
	err := badf(io.ErrUnexpectedEOF, "event %d time: %v", 3, io.ErrUnexpectedEOF)
	if !errors.Is(err, ErrBadFormat) {
		t.Error("badf error does not match ErrBadFormat")
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Error("badf error does not expose its cause")
	}
	want := ErrBadFormat.Error() + ": event 3 time: unexpected EOF"
	if err.Error() != want {
		t.Errorf("badf message %q, want %q", err.Error(), want)
	}
}
