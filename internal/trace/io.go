package trace

import (
	"errors"
	"io"
	"os"
)

// Binary trace format ("UVT1"):
//
//	magic       [4]byte  "UVT1"
//	metaLen     uvarint
//	meta        JSON (Metadata)
//	eventCount  uvarint, then events   (delta-encoded times per record)
//	sampleCount uvarint, then samples
//	commCount   uvarint, then comms
//
// Integers use varint/uvarint encoding; timestamps within each section are
// delta-encoded against the previous record in the section (records are
// stored in canonical sorted order, so deltas are non-negative and small).
//
// The encoder and decoder proper live in stream.go and stream_block.go
// (StreamWriter, record by record; StreamReader, into column blocks);
// this file keeps the whole-trace convenience wrappers over them.

var magic = [4]byte{'U', 'V', 'T', '1'}

// ErrBadFormat is wrapped by all decode errors caused by malformed input.
var ErrBadFormat = errors.New("trace: malformed trace data")

// Write encodes the trace to w in the binary format. The trace must be
// sorted (Build and ReadFrom both guarantee this).
func (tr *Trace) Write(w io.Writer) error {
	sw, err := NewStreamWriter(w, &tr.Meta)
	if err != nil {
		return err
	}
	if err := sw.Begin(KindEvent, len(tr.Events)); err != nil {
		return err
	}
	for i := range tr.Events {
		if err := sw.WriteEvent(&tr.Events[i]); err != nil {
			return err
		}
	}
	if err := sw.Begin(KindSample, len(tr.Samples)); err != nil {
		return err
	}
	for i := range tr.Samples {
		if err := sw.WriteSample(&tr.Samples[i]); err != nil {
			return err
		}
	}
	if err := sw.Begin(KindComm, len(tr.Comms)); err != nil {
		return err
	}
	for i := range tr.Comms {
		if err := sw.WriteComm(&tr.Comms[i]); err != nil {
			return err
		}
	}
	return sw.Close()
}

// ReadFrom decodes a trace from r. When r's total size is discoverable
// (in-memory readers, regular files) declared record counts are checked
// against it before slices are sized, so corrupt headers cannot trigger
// huge allocations.
func ReadFrom(r io.Reader) (*Trace, error) {
	sr, err := NewStreamReader(r)
	if err != nil {
		return nil, err
	}
	return readAll(sr)
}

// readAll drains a StreamReader into an in-memory Trace. Each sample
// owns a copy of its stack; an empty stack stays nil.
func readAll(sr *StreamReader) (*Trace, error) {
	tr := &Trace{Meta: *sr.Meta()}
	blk := NewColBlock(BlockRows)
	defer blk.Release()
	for {
		err := sr.NextBlock(blk)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		switch blk.Kind() {
		case KindEvent:
			if tr.Events == nil {
				tr.Events = make([]Event, 0, sr.PreallocHint(KindEvent))
			}
			for i := 0; i < blk.Len(); i++ {
				tr.Events = append(tr.Events, blk.eventAt(i))
			}
		case KindSample:
			if tr.Samples == nil {
				tr.Samples = make([]Sample, 0, sr.PreallocHint(KindSample))
			}
			for i := 0; i < blk.Len(); i++ {
				s := blk.sampleAt(i)
				if s.Stack != nil {
					s.Stack = append([]uint32(nil), s.Stack...)
				}
				tr.Samples = append(tr.Samples, s)
			}
		case KindComm:
			if tr.Comms == nil {
				tr.Comms = make([]Comm, 0, sr.PreallocHint(KindComm))
			}
			for i := 0; i < blk.Len(); i++ {
				tr.Comms = append(tr.Comms, blk.commAt(i))
			}
		}
	}
	if tr.Events == nil {
		tr.Events = []Event{}
	}
	if tr.Samples == nil {
		tr.Samples = []Sample{}
	}
	if tr.Comms == nil {
		tr.Comms = []Comm{}
	}
	return tr, nil
}

// WriteFile writes the trace to a file.
func (tr *Trace) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile reads a trace from a file.
func ReadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadFrom(f)
}

func min64(a uint64, b int) int {
	if a < uint64(b) {
		return int(a)
	}
	return b
}
