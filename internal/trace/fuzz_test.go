package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"
	"testing/iotest"
)

// FuzzReadFrom fuzzes the binary trace decoder. Two properties must hold
// for arbitrary input: decoding never panics or over-allocates (the
// section-count validation caps allocations by the input size), and any
// input that decodes successfully re-encodes and re-decodes to the same
// trace — the decoder accepts nothing the encoder cannot reproduce.
//
// The seed corpus is the decoder corpus (addDecoderSeeds).
func FuzzReadFrom(f *testing.F) {
	addDecoderSeeds(f)

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadFrom(bytes.NewReader(data))
		if err != nil {
			return // malformed input rejected cleanly
		}
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			t.Fatalf("decoded trace failed to re-encode: %v", err)
		}
		tr2, err := ReadFrom(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded trace failed to decode: %v", err)
		}
		if !reflect.DeepEqual(tr.Meta, tr2.Meta) ||
			!reflect.DeepEqual(tr.Events, tr2.Events) ||
			!reflect.DeepEqual(tr.Samples, tr2.Samples) ||
			!reflect.DeepEqual(tr.Comms, tr2.Comms) {
			t.Fatal("decode → encode → decode is not a fixed point")
		}
	})
}

// addDecoderSeeds seeds f with the decoder corpus, built from the same
// Builder the example generators use: a fully featured small trace (all
// three record kinds, counters, stacks), an empty trace, a corrupt-count
// header and the damaged shapes of addDamagedSeeds. It returns the
// featured trace.
func addDecoderSeeds(f *testing.F) *Trace {
	seed := func(tr *Trace) {
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}

	// Fully featured trace (events with and without counters, samples
	// with and without stacks, comms) — mirrors the example apps' shape.
	b := NewBuilder("fuzz", 2)
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
	b.Comm(0, 1, 800, 850, 4096, 7)
	featured := b.Build()
	seed(featured)

	seed(NewBuilder("empty", 1).Build())

	// A corrupt header claiming far more events than the input holds.
	var corrupt bytes.Buffer
	if err := NewBuilder("c", 1).Build().Write(&corrupt); err != nil {
		f.Fatal(err)
	}
	raw := corrupt.Bytes()
	f.Add(append(raw[:len(raw)-3], 0xff, 0xff, 0xff, 0xff, 0x0f))

	addDamagedSeeds(f, featured)
	return featured
}

// FuzzCheckedMatchesValidate fuzzes the two drivers of Validate's
// checker against each other. For every input that strict ReadFrom
// decodes, Trace.Validate on the decoded trace and Checked over a
// StreamReader of the same bytes, read to the end in blocks of several
// capacities, must give the same error text, or both none: a strict
// check ends the stream with it, a lenient one reports it from Err once
// the stream has ended. The corpus is the decoder corpus plus the
// featured trace broken by several of Validate's rules.
func FuzzCheckedMatchesValidate(f *testing.F) {
	featured := addDecoderSeeds(f)
	for _, edit := range []func(tr *Trace){
		func(tr *Trace) { tr.Meta.Duration-- },
		func(tr *Trace) { tr.Events[1].Value = 0 },
		func(tr *Trace) { tr.Events[3].Counters[1] = 99 },
		func(tr *Trace) { tr.Samples[1].Rank = 0 },
		func(tr *Trace) { tr.Comms[0].Size = -1 },
	} {
		tr := *featured
		tr.Events = append([]Event(nil), featured.Events...)
		tr.Samples = append([]Sample(nil), featured.Samples...)
		tr.Comms = append([]Comm(nil), featured.Comms...)
		edit(&tr)
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadFrom(bytes.NewReader(data))
		if err != nil {
			return
		}
		want := errText(tr.Validate())
		for _, mode := range []Mode{Strict, Lenient} {
			for _, capacity := range []int{1, 7, 256} {
				sr, err := NewStreamReader(bytes.NewReader(data))
				if err != nil {
					t.Fatalf("ReadFrom decoded what NewStreamReader refuses: %v", err)
				}
				src := Checked(sr, mode)
				blk := NewColBlock(capacity)
				var end error
				for end == nil {
					end = src.NextBlock(blk)
				}
				blk.Release()
				got := src.Err()
				if mode == Strict && end != io.EOF && end != got {
					t.Fatalf("strict check ended the stream with %v, not its violation %v", end, got)
				}
				if mode == Lenient && end != io.EOF {
					t.Fatalf("lenient check ended the stream with %v", end)
				}
				if errText(got) != want {
					t.Fatalf("%v check, capacity %d: %q; Validate: %q", mode, capacity, errText(got), want)
				}
			}
		}
	})
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// addDamagedSeeds seeds the corpus with realistic fault shapes: the
// featured trace truncated at several depths, with single bits flipped
// across the record region, and followed by bytes no section accounts
// for (a short tail, and a second copy of the trace) — the damage the
// lenient decoder is built to absorb.
func addDamagedSeeds(f *testing.F, tr *Trace) {
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		f.Fatal(err)
	}
	enc := buf.Bytes()
	for _, frac := range []int{30, 55, 80, 95} {
		f.Add(append([]byte(nil), enc[:len(enc)*frac/100]...))
	}
	for _, pos := range []int{len(enc) / 2, len(enc) * 2 / 3, len(enc) - 5} {
		if pos < 0 || pos >= len(enc) {
			continue
		}
		mut := append([]byte(nil), enc...)
		mut[pos] ^= 0x40
		f.Add(mut)
	}
	f.Add(append(append([]byte(nil), enc...), 0x01, 0x80, 0x7f))
	f.Add(append(append([]byte(nil), enc...), enc...))
}

// FuzzReadIntoBlock fuzzes the block decoder against the record decoder
// it replaced (the oracle in oracle_test.go), in both modes. For
// arbitrary input, fed through every reader of decodeReaders at several
// block capacities, NextBlock must never panic, every block it returns
// must pass Validate, and it must show exactly what the record decoder
// shows: the same records, the same terminal error (text, and errors.Is
// against io.EOF, io.ErrUnexpectedEOF and ErrBadFormat), the same
// BytesRead and the same DecodeStats.
func FuzzReadIntoBlock(f *testing.F) {
	seed := func(tr *Trace) {
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	b := NewBuilder("fuzz-block", 2)
	b.SetSamplePeriod(1000)
	rA := b.Region("solve")
	rB := b.Region("main")
	b.Event(0, 0, EvIteration, 1)
	b.EventC(0, 10, EvMPI, int64(MPIBarrier), []int64{50, 100, 2, 1, 10})
	b.Event(0, 20, EvMPI, 0)
	b.Sample(0, 500, []int64{100, 200, 5, 1, 50}, []uint32{rA, rB})
	b.Sample(1, 700, []int64{90, 180, 3, 1, 40}, nil)
	b.Comm(0, 1, 800, 850, 4096, 7)
	featured := b.Build()
	seed(featured)
	seed(NewBuilder("empty", 1).Build())
	addDamagedSeeds(f, featured)

	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := NewStreamReader(bytes.NewReader(data)); err != nil {
			// Both decoders share the header code, so header damage fails
			// them alike. Behind a reader that hides the input size, that
			// code would allocate whatever metadata length the damage
			// declares, up to 1 GiB.
			return
		}
		for _, mode := range []Mode{Strict, Lenient} {
			for _, rd := range decodeReaders {
				want := oracleDecode(rd.wrap(data), mode)
				for _, capacity := range []int{1, 7, 256} {
					got := blockDecode(t, rd.wrap(data), mode, capacity)
					if msg := want.diff(got); msg != "" {
						t.Fatalf("%v mode, %s reader, capacity %d: %s", mode, rd.name, capacity, msg)
					}
				}
			}
		}
	})
}

// decodeReaders feed an input to a decoder the ways it meets one: with
// a known size, with the size hidden, one byte per Read (no record ever
// sits whole in the read buffer), and half of each requested length.
var decodeReaders = []struct {
	name string
	wrap func([]byte) io.Reader
}{
	{"bytes", func(b []byte) io.Reader { return bytes.NewReader(b) }},
	{"hidden-len", func(b []byte) io.Reader { return hideLen{bytes.NewReader(b)} }},
	{"one-byte", func(b []byte) io.Reader { return iotest.OneByteReader(bytes.NewReader(b)) }},
	{"half", func(b []byte) io.Reader { return iotest.HalfReader(bytes.NewReader(b)) }},
}

// decodeOutcome is everything one decode of an input shows its caller.
type decodeOutcome struct {
	records []Record
	err     error // the error that ended the stream; nil at io.EOF
	read    int64 // BytesRead at the end
	stats   DecodeStats
}

// oracleDecode decodes r to the end with the record decoder.
func oracleDecode(r io.Reader, mode Mode) decodeOutcome {
	sr, err := NewStreamReaderMode(r, mode)
	if err != nil {
		return decodeOutcome{err: err}
	}
	var out decodeOutcome
	var rec Record
	for {
		err := sr.Next(&rec)
		if err == io.EOF {
			break
		}
		if err != nil {
			out.err = err
			break
		}
		out.records = append(out.records, normRecord(&rec))
	}
	out.read, out.stats = sr.BytesRead(), sr.stats
	return out
}

// blockDecode decodes r to the end with NextBlock into blocks of the
// given capacity, checking every block and the stickiness of the end.
func blockDecode(t *testing.T, r io.Reader, mode Mode, capacity int) decodeOutcome {
	t.Helper()
	sr, err := NewStreamReaderMode(r, mode)
	if err != nil {
		return decodeOutcome{err: err}
	}
	blk := NewColBlock(capacity)
	defer blk.Release()
	var out decodeOutcome
	for {
		err := sr.NextBlock(blk)
		if verr := blk.Validate(); verr != nil {
			t.Fatalf("invalid block from decoder: %v", verr)
		}
		checkFrames(t, blk)
		for i := 0; i < blk.Len(); i++ {
			var rec Record
			if err := blk.RecordAt(i, &rec); err != nil {
				t.Fatalf("RecordAt(%d): %v", i, err)
			}
			out.records = append(out.records, normRecord(&rec))
		}
		if err == io.EOF && blk.Len() > 0 {
			t.Fatal("NextBlock returned io.EOF with rows")
		}
		if err != nil {
			if again := sr.NextBlock(blk); again != err || blk.Len() != 0 {
				t.Fatalf("end of stream not sticky: %v, then %v with %d rows", err, again, blk.Len())
			}
			if err != io.EOF {
				out.err = err
			}
			break
		}
		if blk.Len() == 0 {
			t.Fatal("NextBlock returned an empty block without an error")
		}
	}
	out.read, out.stats = sr.BytesRead(), sr.stats
	return out
}

// checkFrames fails unless blk's frame arena holds exactly its rows'
// frames: none outside a sample block.
func checkFrames(t *testing.T, blk *ColBlock) {
	t.Helper()
	frames := 0
	if blk.Kind() == KindSample {
		frames = int(blk.StackOff[blk.Len()])
	}
	if len(blk.Frames) != frames {
		t.Fatalf("%v block of %d rows holds %d frames, want %d", blk.Kind(), blk.Len(), len(blk.Frames), frames)
	}
}

// diff describes how got departs from o, or returns "" when they agree.
func (o decodeOutcome) diff(got decodeOutcome) string {
	if len(o.records) != len(got.records) {
		return fmt.Sprintf("oracle decoded %d records, NextBlock %d (errors %v / %v)",
			len(o.records), len(got.records), o.err, got.err)
	}
	for i := range o.records {
		if !reflect.DeepEqual(o.records[i], got.records[i]) {
			return fmt.Sprintf("record %d diverged:\noracle    %+v\nNextBlock %+v", i, o.records[i], got.records[i])
		}
	}
	if (o.err == nil) != (got.err == nil) || o.err != nil && o.err.Error() != got.err.Error() {
		return fmt.Sprintf("error %v, oracle %v", got.err, o.err)
	}
	for _, target := range []error{io.EOF, io.ErrUnexpectedEOF, ErrBadFormat} {
		if errors.Is(o.err, target) != errors.Is(got.err, target) {
			return fmt.Sprintf("errors.Is(%v, %v) differs from the oracle's %v", got.err, target, o.err)
		}
	}
	if o.read != got.read {
		return fmt.Sprintf("BytesRead %d, oracle %d", got.read, o.read)
	}
	if o.stats != got.stats {
		return fmt.Sprintf("DecodeStats %+v, oracle %+v", got.stats, o.stats)
	}
	return ""
}

// FuzzReadFromLenient fuzzes the salvage decoder. For arbitrary input it
// must never panic or hang, and its DecodeStats must be consistent: a
// decode that reports no salvage action (not Degraded) must be
// bit-for-bit equivalent to a strict decode of the same input, and any
// salvaged trace must re-encode cleanly (canonical order preserved).
func FuzzReadFromLenient(f *testing.F) {
	seed := func(tr *Trace) {
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	b := NewBuilder("fuzz-lenient", 2)
	b.SetSamplePeriod(1000)
	rA := b.Region("solve")
	b.Event(0, 0, EvIteration, 1)
	b.EventC(0, 10, EvMPI, int64(MPIBarrier), []int64{50, 100, 2, 1, 10})
	b.Event(0, 20, EvMPI, 0)
	b.Sample(0, 500, []int64{100, 200, 5, 1, 50}, []uint32{rA})
	b.Comm(0, 1, 800, 850, 4096, 7)
	featured := b.Build()
	seed(featured)
	seed(NewBuilder("empty", 1).Build())
	addDamagedSeeds(f, featured)

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, st, err := ReadFromLenient(bytes.NewReader(data))
		if err != nil {
			// Only header corruption may fail, and it must be a clean
			// wrapped format error.
			if !errors.Is(err, ErrBadFormat) {
				t.Fatalf("lenient decode failed with non-format error: %v", err)
			}
			return
		}
		if st.Dropped() < 0 || st.Resyncs < 0 || st.BadSections < 0 {
			t.Fatalf("inconsistent stats: %+v", st)
		}
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			t.Fatalf("salvaged trace failed to re-encode: %v", err)
		}
		if !st.Degraded() {
			strict, err := ReadFrom(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("clean lenient decode but strict decode failed: %v", err)
			}
			if !reflect.DeepEqual(tr.Events, strict.Events) ||
				!reflect.DeepEqual(tr.Samples, strict.Samples) ||
				!reflect.DeepEqual(tr.Comms, strict.Comms) {
				t.Fatal("non-degraded lenient decode differs from strict decode")
			}
		}
	})
}
