package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"
)

// appendEvent, appendSample and appendComm add one row to b the way the
// block sources do: room guards the row, put writes it.
func appendEvent(b *ColBlock, e *Event) error {
	if err := b.room(KindEvent); err != nil {
		return err
	}
	b.putEvent(e)
	return nil
}

func appendSample(b *ColBlock, s *Sample) error {
	if err := b.room(KindSample); err != nil {
		return err
	}
	b.putSample(s)
	return nil
}

func appendComm(b *ColBlock, c *Comm) error {
	if err := b.room(KindComm); err != nil {
		return err
	}
	b.putComm(c)
	return nil
}

// checkCols validates that every column the block's kind uses covers all
// n valid rows.
func (b *ColBlock) checkCols() error {
	if b.rows(b.kind) < b.n {
		return fmt.Errorf("%w: %v columns shorter than %d rows", ErrColumnMismatch, b.kind, b.n)
	}
	return nil
}

// Validate checks the block's structural invariants: all used columns
// cover Len() rows, and for sample blocks the CSR stack offsets are
// monotone and within the frame arena. The block tests and
// FuzzReadIntoBlock check every block they see with it.
func (b *ColBlock) Validate() error {
	if b.n < 0 || b.n > b.capacity {
		return fmt.Errorf("trace: block length %d outside [0, %d]", b.n, b.capacity)
	}
	if err := b.checkCols(); err != nil {
		return err
	}
	if b.kind == KindSample && b.n > 0 {
		if b.StackOff[0] != 0 {
			return fmt.Errorf("%w: StackOff[0] = %d, want 0", ErrColumnMismatch, b.StackOff[0])
		}
		for i := 0; i < b.n; i++ {
			lo, hi := b.StackOff[i], b.StackOff[i+1]
			if lo > hi || int(hi) > len(b.Frames) {
				return fmt.Errorf("%w: StackOff[%d:%d] = [%d, %d] outside frame arena of %d",
					ErrColumnMismatch, i, i+1, lo, hi, len(b.Frames))
			}
		}
	}
	return nil
}

// colFeaturedTrace builds a small trace exercising every record shape:
// events with and without counters, samples with and without stacks,
// and comms.
func colFeaturedTrace(t testing.TB) *Trace {
	t.Helper()
	b := NewBuilder("colblock", 2)
	b.SetSamplePeriod(1000)
	rA := b.Region("solve")
	rB := b.Region("main")
	b.Event(0, 0, EvIteration, 1)
	b.EventC(0, 10, EvMPI, int64(MPIBarrier), []int64{50, 100, 2, 1, 10})
	b.Event(1, 12, EvMPI, int64(MPIBarrier))
	b.EventC(0, 20, EvMPI, 0, []int64{50, 120, 2, 1, 10})
	b.Event(1, 25, EvMPI, 0)
	b.Sample(0, 500, []int64{100, 200, 5, 1, 50}, []uint32{rA, rB})
	b.Sample(1, 700, []int64{90, 180, 3, 1, 40}, nil)
	b.Sample(0, 1500, []int64{150, 300, 7, 2, 70}, []uint32{rA})
	b.Comm(0, 1, 800, 850, 4096, 7)
	b.Comm(1, 0, 900, 960, 128, 8)
	return b.Build()
}

// traceRecords lists tr's records in section order.
func traceRecords(tr *Trace) []Record {
	var out []Record
	for _, e := range tr.Events {
		out = append(out, Record{Kind: KindEvent, Event: e})
	}
	for _, s := range tr.Samples {
		out = append(out, normRecord(&Record{Kind: KindSample, Sample: s}))
	}
	for _, c := range tr.Comms {
		out = append(out, Record{Kind: KindComm, Comm: c})
	}
	return out
}

// normRecord deep-copies rec's active variant into a fresh Record so
// comparisons ignore stale storage in the inactive variants (the record
// decoder is allowed to reuse them).
func normRecord(rec *Record) Record {
	out := Record{Kind: rec.Kind}
	switch rec.Kind {
	case KindEvent:
		out.Event = rec.Event
	case KindSample:
		out.Sample = rec.Sample
		out.Sample.Stack = append([]uint32(nil), rec.Sample.Stack...)
		if len(out.Sample.Stack) == 0 {
			out.Sample.Stack = nil
		}
	case KindComm:
		out.Comm = rec.Comm
	}
	return out
}

// collectBlocks drains src block-at-a-time through blocks of capacity
// blockCap, reconstructing rows with RecordAt. Every block is validated
// before use.
func collectBlocks(t *testing.T, src Source, blockCap int) []Record {
	t.Helper()
	blk := NewColBlock(blockCap)
	defer blk.Release()
	var out []Record
	for {
		err := src.NextBlock(blk)
		if errors.Is(err, io.EOF) {
			return out
		}
		if err != nil {
			t.Fatalf("NextBlock: %v", err)
		}
		if err := blk.Validate(); err != nil {
			t.Fatalf("Validate: %v", err)
		}
		for i := 0; i < blk.Len(); i++ {
			var rec Record
			if err := blk.RecordAt(i, &rec); err != nil {
				t.Fatalf("RecordAt(%d): %v", i, err)
			}
			out = append(out, normRecord(&rec))
		}
	}
}

// TestColBlockRoundTrip checks that an in-memory trace's records pushed
// through TraceSource.NextBlock reconstruct exactly, across block
// capacities that do and do not divide the section sizes.
func TestColBlockRoundTrip(t *testing.T) {
	tr := colFeaturedTrace(t)
	want := traceRecords(tr)
	for _, capacity := range []int{1, 2, 3, 64} {
		got := collectBlocks(t, NewTraceSource(tr), capacity)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("cap %d: block round trip diverged from the trace", capacity)
		}
	}
}

// TestStreamReaderNextBlock checks that the strict decode-into-block
// path yields exactly the rows the record decoder yields.
func TestStreamReaderNextBlock(t *testing.T) {
	enc := encodeTrace(t, colFeaturedTrace(t))
	want := oracleDecode(bytes.NewReader(enc), Strict)
	if want.err != nil || len(want.records) == 0 {
		t.Fatalf("record decoder: %d records, error %v", len(want.records), want.err)
	}
	for _, capacity := range []int{1, 3, 256} {
		got := blockDecode(t, bytes.NewReader(enc), Strict, capacity)
		if msg := want.diff(got); msg != "" {
			t.Fatalf("cap %d: %s", capacity, msg)
		}
	}
}

// TestStreamReaderNextBlockLenient checks that the lenient block path
// salvages exactly the rows the lenient record decoder salvages,
// including identical DecodeStats, on truncated and bit-flipped input.
func TestStreamReaderNextBlockLenient(t *testing.T) {
	enc := encodeTrace(t, colFeaturedTrace(t))
	damaged := [][]byte{enc}
	for _, frac := range []int{30, 55, 80, 95} {
		damaged = append(damaged, enc[:len(enc)*frac/100])
	}
	for _, pos := range []int{len(enc) / 2, len(enc) * 2 / 3, len(enc) - 5} {
		mut := append([]byte(nil), enc...)
		mut[pos] ^= 0x40
		damaged = append(damaged, mut)
	}
	for di, data := range damaged {
		want := oracleDecode(bytes.NewReader(data), Lenient)
		if msg := want.diff(blockDecode(t, bytes.NewReader(data), Lenient, 3)); msg != "" {
			t.Fatalf("input %d: %s", di, msg)
		}
	}
}

// TestColBlockColumnMismatch locks the satellite fix: a block whose
// parallel columns were shortened must reject appends and row reads with
// ErrColumnMismatch instead of indexing out of range.
func TestColBlockColumnMismatch(t *testing.T) {
	ev := Event{Rank: 1, Time: 10, Type: EvMPI, Value: 3}
	sm := Sample{Rank: 0, Time: 20, Stack: []uint32{1}}
	cm := Comm{Src: 0, Dst: 1, SendTime: 5, RecvTime: 9, Size: 64, Tag: 2}

	tamper := []struct {
		name string
		kind Kind
		mod  func(b *ColBlock)
	}{
		{"times", KindEvent, func(b *ColBlock) { b.Times = b.Times[:0] }},
		{"ranks", KindSample, func(b *ColBlock) { b.Ranks = b.Ranks[:1] }},
		{"flags", KindEvent, func(b *ColBlock) { b.Flags = b.Flags[:1] }},
		{"values", KindEvent, func(b *ColBlock) { b.Values = nil }},
		{"ctrs", KindSample, func(b *ColBlock) { b.Ctrs[2] = b.Ctrs[2][:1] }},
		{"stackoff", KindSample, func(b *ColBlock) { b.StackOff = b.StackOff[:1] }},
		{"recvs", KindComm, func(b *ColBlock) { b.Recvs = nil }},
		{"tags", KindComm, func(b *ColBlock) { b.Tags = b.Tags[:1] }},
	}
	for _, tc := range tamper {
		t.Run(tc.name, func(t *testing.T) {
			b := NewColBlock(8)
			defer b.Release()
			b.Reset(tc.kind)
			appendOne := func() error {
				switch tc.kind {
				case KindEvent:
					return appendEvent(b, &ev)
				case KindSample:
					return appendSample(b, &sm)
				default:
					return appendComm(b, &cm)
				}
			}
			if err := appendOne(); err != nil {
				t.Fatalf("append to fresh block: %v", err)
			}
			tc.mod(b)
			if err := appendOne(); !errors.Is(err, ErrColumnMismatch) {
				t.Fatalf("append to tampered block: got %v, want ErrColumnMismatch", err)
			}
			if err := b.Validate(); !errors.Is(err, ErrColumnMismatch) {
				// Tampering that still covers the existing row is legal for
				// Validate; only appends must fail. Times/Ranks/StackOff cuts
				// below the row count must be caught though.
				if tc.name == "times" || tc.name == "stackoff" {
					t.Fatalf("Validate after %s cut: got %v, want ErrColumnMismatch", tc.name, err)
				}
			}
		})
	}
}

// TestColBlockFullAndKind covers the remaining append guards: capacity
// exhaustion and kind mixing.
func TestColBlockFullAndKind(t *testing.T) {
	b := NewColBlock(2)
	defer b.Release()
	ev := Event{Rank: 0, Time: 1}
	if err := appendEvent(b, &ev); err != nil {
		t.Fatal(err)
	}
	sm := Sample{Rank: 0, Time: 2}
	if err := appendSample(b, &sm); err == nil {
		t.Fatal("appending a sample to an event block succeeded")
	}
	if err := appendEvent(b, &ev); err != nil {
		t.Fatal(err)
	}
	if err := appendEvent(b, &ev); !errors.Is(err, ErrBlockFull) {
		t.Fatalf("append past capacity: got %v, want ErrBlockFull", err)
	}
	if got := b.Len(); got != 2 {
		t.Fatalf("Len = %d, want 2", got)
	}
	b.Reset(KindSample)
	if b.Len() != 0 || b.Kind() != KindSample {
		t.Fatalf("Reset left Len=%d Kind=%v", b.Len(), b.Kind())
	}
	if err := appendSample(b, &sm); err != nil {
		t.Fatalf("append after Reset: %v", err)
	}
	var rec Record
	if err := b.RecordAt(1, &rec); err == nil {
		t.Fatal("RecordAt past Len succeeded")
	}
}

// TestColBlockFrameArenaGrowth checks that deep stacks overflow the
// initial frame arena correctly: the CSR offsets stay consistent and all
// frames survive the arena re-carve.
func TestColBlockFrameArenaGrowth(t *testing.T) {
	b := NewColBlock(4) // initial frame arena capacity 4
	defer b.Release()
	b.Reset(KindSample)
	stacks := [][]uint32{
		{1, 2, 3},
		{4, 5, 6, 7, 8},
		nil,
		{9},
	}
	for i, st := range stacks {
		s := Sample{Rank: int32(i), Time: Time(i * 10), Stack: st}
		if err := appendSample(b, &s); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	for i, st := range stacks {
		var rec Record
		if err := b.RecordAt(i, &rec); err != nil {
			t.Fatal(err)
		}
		got := rec.Sample.Stack
		if len(st) == 0 {
			if got != nil {
				t.Fatalf("row %d: empty stack reconstructed as %v", i, got)
			}
			continue
		}
		if !reflect.DeepEqual(append([]uint32(nil), st...), append([]uint32(nil), got...)) {
			t.Fatalf("row %d: stack %v, want %v", i, got, st)
		}
	}
}
