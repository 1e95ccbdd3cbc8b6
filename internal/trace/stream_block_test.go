package trace

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"
	"testing"
	"testing/iotest"
)

// errTransient is the one-shot read failure flakyReader injects.
var errTransient = errors.New("transient")

// flakyReader serves at most 4 KiB per Read and fails exactly once, at
// the first Read that starts at or past half of the input. The bufio
// reader under a StreamReader keeps that error until it is returned and
// then forgets it, so a decoder that triggers a fill without looking at
// the error would decode on as if nothing had happened.
type flakyReader struct {
	data   []byte
	off    int
	failed bool
}

func (r *flakyReader) Read(p []byte) (int, error) {
	if !r.failed && r.off >= len(r.data)/2 {
		r.failed = true
		return 0, errTransient
	}
	if r.off >= len(r.data) {
		return 0, io.EOF
	}
	n := copy(p[:min(len(p), 4096)], r.data[r.off:])
	r.off += n
	return n, nil
}

// counterTrace has n counter-carrying events over two ranks.
func counterTrace(n int) *Trace {
	b := NewBuilder("flaky", 2)
	for i := 0; i < n; i++ {
		c := int64(i) * 1000
		b.EventC(int32(i%2), Time(i/2*100), EvMPI, int64(i%3), []int64{c + 1, 2*c + 3, c / 7, c / 50, c / 3})
	}
	return b.Build()
}

// TestNextBlockReturnsReadError checks that a read error met while the
// block decoder refills its buffer ends a strict decode with that
// error, as the record decoder reports it, and that a lenient decode
// resynchronizes past it exactly as the record decoder does.
func TestNextBlockReturnsReadError(t *testing.T) {
	enc := encodeTrace(t, counterTrace(40000))

	// Recorded with the byte-at-a-time NextBlock the window parser
	// replaced; the record decoder agrees.
	const want = "trace: malformed trace data: event 20317 rank: transient"
	oracle := oracleDecode(&flakyReader{data: enc}, Strict)
	if oracle.err == nil || oracle.err.Error() != want {
		t.Fatalf("record decoder: %v, want %q", oracle.err, want)
	}
	for _, capacity := range []int{1, 7, 4096} {
		got := blockDecode(t, &flakyReader{data: enc}, Strict, capacity)
		if !errors.Is(got.err, errTransient) || !errors.Is(got.err, ErrBadFormat) {
			t.Fatalf("capacity %d: strict NextBlock ended with %v, want the read error", capacity, got.err)
		}
		if msg := oracle.diff(got); msg != "" {
			t.Fatalf("capacity %d: strict: %s", capacity, msg)
		}

		lenient := oracleDecode(&flakyReader{data: enc}, Lenient)
		got = blockDecode(t, &flakyReader{data: enc}, Lenient, capacity)
		if msg := lenient.diff(got); msg != "" {
			t.Fatalf("capacity %d: lenient: %s", capacity, msg)
		}
		if got.stats.Resyncs == 0 {
			t.Fatalf("capacity %d: lenient decode met no resync: %+v", capacity, got.stats)
		}
	}
}

// TestNextBlockMatchesOracleAcrossBufferEdges decodes a trace larger
// than the 1 MiB read buffer, so buffer refills fall inside records and
// those records take the byte-at-a-time path: clean, truncated just past
// the first refill and bit-flipped just before it, in both modes,
// through a plain and a half-reading reader.
func TestNextBlockMatchesOracleAcrossBufferEdges(t *testing.T) {
	const edge = 1 << 20
	enc := encodeTrace(t, featuredTrace(t, 12000))
	if len(enc) < edge+edge/8 {
		t.Fatalf("trace is %d bytes, want well over the %d-byte read buffer", len(enc), edge)
	}

	// Some record must straddle the first refill.
	sr, err := NewStreamReader(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	straddles := false
	for rec := (Record{}); ; {
		before := sr.BytesRead()
		if err := sr.Next(&rec); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		straddles = straddles || before < edge && sr.BytesRead() > edge
	}
	if !straddles {
		t.Fatal("no record straddles the first buffer refill")
	}

	flipped := append([]byte(nil), enc...)
	flipped[edge-2] ^= 0x80
	inputs := map[string][]byte{
		"clean":     enc,
		"truncated": enc[:edge+5],
		"flipped":   flipped,
	}
	readers := map[string]func([]byte) io.Reader{
		"bytes": func(b []byte) io.Reader { return bytes.NewReader(b) },
		"half":  func(b []byte) io.Reader { return iotest.HalfReader(bytes.NewReader(b)) },
	}
	for name, data := range inputs {
		for rname, wrap := range readers {
			for _, mode := range []Mode{Strict, Lenient} {
				want := oracleDecode(wrap(data), mode)
				got := blockDecode(t, wrap(data), mode, 256)
				if msg := want.diff(got); msg != "" {
					t.Fatalf("%s input, %s reader, %v mode: %s", name, rname, mode, msg)
				}
			}
		}
	}
}

// TestLenientDropIgnoresStaleStackOffsets drops an implausible event
// from a recycled block whose stack offsets still hold an earlier
// sample block's values: the drop must leave the event block without
// frames.
func TestLenientDropIgnoresStaleStackOffsets(t *testing.T) {
	meta := &Metadata{App: "x", Ranks: 1, Duration: 1000}
	var buf bytes.Buffer
	sw, err := NewStreamWriter(&buf, meta)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Begin(KindEvent, 2); err != nil {
		t.Fatal(err)
	}
	for _, e := range []Event{{Rank: 0, Time: 10}, {Rank: 5, Time: 20}} {
		if err := sw.WriteEvent(&e); err != nil {
			t.Fatal(err)
		}
	}
	for k := KindSample; k < numKinds; k++ {
		if err := sw.Begin(k, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}

	sr, err := NewStreamReaderMode(bytes.NewReader(buf.Bytes()), Lenient)
	if err != nil {
		t.Fatal(err)
	}
	blk := NewColBlock(8)
	defer blk.Release()
	blk.StackOff[1], blk.StackOff[2] = 3, 5 // left over from a sample block
	if err := sr.NextBlock(blk); err != nil {
		t.Fatal(err)
	}
	if blk.Len() != 1 || sr.stats.DroppedEvents != 1 {
		t.Fatalf("kept %d rows, stats %+v; want the rank-5 event dropped", blk.Len(), sr.stats)
	}
	checkFrames(t, blk)
}

// TestNextBlockMatchesOracleOnCraftedRecords decodes hand-made records
// that each fail one check of the decoder, or one of lenient mode's
// fences, with the record in the read buffer (bytes.Reader) and with
// every record split across refills (iotest.OneByteReader). Both modes
// must match the record decoder.
func TestNextBlockMatchesOracleOnCraftedRecords(t *testing.T) {
	overflow := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}
	deep := make([]byte, 1025)
	for i := range deep {
		deep[i] = byte(i % 100)
	}
	cases := []struct {
		name                   string
		events, samples, comms [][]byte
	}{
		{name: "event delta overflow", events: [][]byte{
			rawEvent(5, 0, 0), rawEvent(1<<63, 1, 0), rawEvent(5, 0, 0)}},
		{name: "event time overflow", events: [][]byte{
			rawEvent(math.MaxInt64, 0, 0), rawEvent(1, 1, 0), rawEvent(0, 1, 0)}},
		{name: "event counter flag", events: [][]byte{
			rawEvent(5, 0, 0), rawEvent(5, 1, 2), rawEvent(5, 0, 0)}},
		{name: "event counter overflow", events: [][]byte{
			rawEvent(5, 0, 1, 1, 2, 3, 4, 5), append(rawEvent(5, 1, 1, 1, 2), overflow...), rawEvent(5, 0, 0)}},
		{name: "event sort fence", events: [][]byte{
			rawEvent(10, 1, 0), rawEvent(0, 0, 0), rawEvent(0, 1, 0), rawEvent(0, 0, 0), rawEvent(1, 0, 0)}},
		{name: "event ranges", events: [][]byte{
			rawEvent(5, 2, 0), rawEvent(5, 1, 0), rawEvent(2_000_000, 0, 0), rawEvent(5, 0, 0)}},
		{name: "sample stack too deep", samples: [][]byte{
			rawSample(5, 0, 1025, deep), rawSample(5, 1, 1, []byte{7}), rawSample(5, 0, 0, nil)}},
		{name: "sample frame overflow", samples: [][]byte{
			rawSample(5, 0, 2, []byte{1, 2}), rawSample(5, 1, 3, append([]byte{3}, overflow...)),
			rawSample(5, 0, 2, []byte{4, 5}), rawSample(5, 1, 1, []byte{6})}},
		{name: "sample delta overflow", samples: [][]byte{
			rawSample(5, 0, 1, []byte{1}), rawSample(1<<63, 1, 0, nil), rawSample(5, 0, 1, []byte{2})}},
		{name: "sample sort fence", samples: [][]byte{
			rawSample(10, 1, 1, []byte{1}), rawSample(0, 0, 2, []byte{2, 3}), rawSample(0, 1, 1, []byte{4})}},
		{name: "comm fences", comms: [][]byte{
			rawComm(5, 10, 0, 1, 64), rawComm(5, -5, 0, 1, 64), rawComm(5, 10, 0, 1, -1),
			rawComm(5, 10, 0, 7, 64), rawComm(2_000_000, 1, 1, 0, 8), rawComm(5, 10, 1, 0, 8)}},
		{name: "comm delta overflow", comms: [][]byte{
			rawComm(5, 10, 0, 1, 64), rawComm(1<<63, 1, 1, 0, 8), rawComm(5, 10, 1, 0, 8)}},
	}
	for _, tc := range cases {
		data := rawTrace(t, tc.events, tc.samples, tc.comms)
		for _, rd := range decodeReaders {
			for _, mode := range []Mode{Strict, Lenient} {
				want := oracleDecode(rd.wrap(data), mode)
				for _, capacity := range []int{2, 256} {
					got := blockDecode(t, rd.wrap(data), mode, capacity)
					if msg := want.diff(got); msg != "" {
						t.Fatalf("%s, %s reader, %v mode, capacity %d: %s", tc.name, rd.name, mode, capacity, msg)
					}
				}
			}
		}
	}
}

// rawTrace encodes a two-rank trace of duration 1e6 ns whose sections
// hold the given raw records.
func rawTrace(t *testing.T, sections ...[][]byte) []byte {
	t.Helper()
	mj, err := json.Marshal(&Metadata{App: "raw", Ranks: 2, Duration: 1_000_000})
	if err != nil {
		t.Fatal(err)
	}
	out := binary.AppendUvarint(append([]byte(nil), magic[:]...), uint64(len(mj)))
	out = append(out, mj...)
	for _, recs := range sections {
		out = binary.AppendUvarint(out, uint64(len(recs)))
		for _, r := range recs {
			out = append(out, r...)
		}
	}
	return out
}

// rawEvent encodes an MPI event; its counters follow the flag as given.
func rawEvent(dt, rank uint64, flag byte, ctrs ...int64) []byte {
	b := binary.AppendUvarint(nil, dt)
	b = binary.AppendUvarint(b, rank)
	b = append(b, byte(EvMPI))
	b = binary.AppendVarint(b, 3)
	b = append(b, flag)
	for _, c := range ctrs {
		b = binary.AppendVarint(b, c)
	}
	return b
}

// rawSample encodes a sample declaring depth frames, followed by the raw
// frame bytes.
func rawSample(dt, rank, depth uint64, frames []byte) []byte {
	b := binary.AppendUvarint(nil, dt)
	b = binary.AppendUvarint(b, rank)
	for c := int64(1); c <= 5; c++ {
		b = binary.AppendVarint(b, c*100)
	}
	b = binary.AppendUvarint(b, depth)
	return append(b, frames...)
}

// rawComm encodes a comm record with tag 9.
func rawComm(dt uint64, latency int64, src, dst uint64, size int64) []byte {
	b := binary.AppendUvarint(nil, dt)
	b = binary.AppendVarint(b, latency)
	b = binary.AppendUvarint(b, src)
	b = binary.AppendUvarint(b, dst)
	b = binary.AppendVarint(b, size)
	return binary.AppendVarint(b, 9)
}
