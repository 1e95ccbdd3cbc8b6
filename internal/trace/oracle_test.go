package trace

// The record decoder: the record-at-a-time decode path the block decoder
// replaced, kept here verbatim as the oracle the block decoder is fuzzed
// and tested against. It shares the stream's header, section-count and
// delta helpers (beginSection, advance, truncate) with NextBlock, and
// reads the same bytes one at a time through bufio.Reader.ReadByte.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/counters"
)

// Record is one trace record of any kind. Only the variant selected by
// Kind is meaningful; the other two may hold stale data from a previous
// use of the same Record value.
type Record struct {
	Kind   Kind
	Event  Event
	Sample Sample
	Comm   Comm
}

// Next implements Source: it decodes the next record in section order,
// returning io.EOF after the final comm record. The sample stack buffer
// in rec is reused across calls — copy it to retain it.
func (sr *StreamReader) Next(rec *Record) error {
	if sr.err != nil {
		return sr.err
	}
	if sr.mode == Lenient {
		return sr.nextLenient(rec)
	}
	return sr.nextStrict(rec)
}

func (sr *StreamReader) nextStrict(rec *Record) error {
	for sr.left == 0 {
		if sr.counted {
			sr.kind++
			sr.counted = false
		}
		if sr.kind >= numKinds {
			return sr.fail(sr.end())
		}
		if err := sr.beginSection(); err != nil {
			return sr.fail(err)
		}
	}
	var err error
	switch sr.kind {
	case KindEvent:
		err = sr.readEvent(rec)
	case KindSample:
		err = sr.readSample(rec)
	default:
		err = sr.readComm(rec)
	}
	if err != nil {
		return sr.fail(err)
	}
	sr.idx++
	sr.left--
	return nil
}

// nextLenient is the salvage decode loop: structurally corrupt records
// are dropped with the cursor resynchronizing at the next varint
// boundary, semantically impossible records (rank out of range, time
// past the trace end, sort-order violations) are dropped in place, and
// truncation ends the stream gracefully with Stats().Truncated set.
func (sr *StreamReader) nextLenient(rec *Record) error {
	for {
		for sr.left == 0 {
			if sr.counted {
				sr.kind++
				sr.counted = false
			}
			if sr.kind >= numKinds {
				return sr.fail(sr.end())
			}
			if err := sr.beginSection(); err != nil {
				// A section header that cannot be decoded leaves no way to
				// locate later sections: salvage what was read so far.
				sr.truncate()
				return sr.fail(io.EOF)
			}
		}
		prev0, prevRank0 := sr.prev, sr.prevRank
		var err error
		switch sr.kind {
		case KindEvent:
			err = sr.readEvent(rec)
		case KindSample:
			err = sr.readSample(rec)
		default:
			err = sr.readComm(rec)
		}
		if err == nil {
			sr.idx++
			sr.left--
			if !sr.plausible(rec, prev0) {
				// Decoded but semantically impossible — drop it and undo its
				// effect on the delta base so one corrupt timestamp cannot
				// poison the rest of the section.
				sr.prev, sr.prevRank = prev0, prevRank0
				sr.dropOne(sr.kind)
				continue
			}
			sr.noteAccepted(rec)
			return nil
		}
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			// The input ends mid-record: everything decoded so far stands.
			sr.truncate()
			return sr.fail(io.EOF)
		}
		// In-place corruption: drop the record and resume decoding at the
		// cursor, giving up once the resync budget is spent.
		sr.stats.Resyncs++
		sr.dropOne(sr.kind)
		sr.idx++
		sr.left--
		if sr.stats.Resyncs >= maxLenientResyncs {
			sr.truncate()
			return sr.fail(io.EOF)
		}
	}
}

// plausible applies the semantic fences of lenient mode: ranks must be
// inside the metadata's range, timestamps must not pass the declared
// duration, and the section's (time, rank) sort order must hold — the
// same invariants Trace.Validate demands, checked record-by-record so a
// corrupt-but-decodable record is dropped instead of poisoning analysis.
// prevTime is the delta base before this record was decoded, i.e. the
// previous accepted record's timestamp.
func (sr *StreamReader) plausible(rec *Record, prevTime Time) bool {
	ranks := int32(sr.meta.Ranks)
	end := sr.meta.Duration
	switch rec.Kind {
	case KindEvent:
		e := &rec.Event
		if ranks > 0 && (e.Rank < 0 || e.Rank >= ranks) {
			return false
		}
		if end > 0 && e.Time > end {
			return false
		}
		if e.Time == prevTime && sr.idx > 1 && e.Rank < sr.prevRank {
			return false
		}
	case KindSample:
		s := &rec.Sample
		if ranks > 0 && (s.Rank < 0 || s.Rank >= ranks) {
			return false
		}
		if end > 0 && s.Time > end {
			return false
		}
		if s.Time == prevTime && sr.idx > 1 && s.Rank < sr.prevRank {
			return false
		}
	case KindComm:
		c := &rec.Comm
		if ranks > 0 && (c.Src < 0 || c.Src >= ranks || c.Dst < 0 || c.Dst >= ranks) {
			return false
		}
		if c.RecvTime < c.SendTime || c.Size < 0 {
			return false
		}
		if end > 0 && (c.SendTime > end || c.RecvTime > end) {
			return false
		}
	}
	return true
}

// noteAccepted records the sort-fence state of a record that was
// returned to the caller.
func (sr *StreamReader) noteAccepted(rec *Record) {
	switch rec.Kind {
	case KindEvent:
		sr.prevRank = rec.Event.Rank
	case KindSample:
		sr.prevRank = rec.Sample.Rank
	default:
		sr.prevRank = rec.Comm.Src
	}
}

func (sr *StreamReader) readEvent(rec *Record) error {
	i := sr.idx
	dt, err := binary.ReadUvarint(sr.br)
	if err != nil {
		return badf(err, "event %d time: %v", i, err)
	}
	rank, err := binary.ReadUvarint(sr.br)
	if err != nil {
		return badf(err, "event %d rank: %v", i, err)
	}
	typ, err := sr.br.ReadByte()
	if err != nil {
		return badf(err, "event %d type: %v", i, err)
	}
	val, err := binary.ReadVarint(sr.br)
	if err != nil {
		return badf(err, "event %d value: %v", i, err)
	}
	flag, err := sr.br.ReadByte()
	if err != nil {
		return badf(err, "event %d counter flag: %v", i, err)
	}
	t, err := sr.advance(dt, "time")
	if err != nil {
		return err
	}
	e := &rec.Event
	*e = Event{Rank: int32(rank), Time: t, Type: EventType(typ), Value: val}
	switch flag {
	case 0:
	case 1:
		e.HasCounters = true
		for c := 0; c < int(counters.NumCounters); c++ {
			v, err := binary.ReadVarint(sr.br)
			if err != nil {
				return badf(err, "event %d counter %d: %v", i, c, err)
			}
			e.Counters[c] = v
		}
	default:
		return badf(nil, "event %d has invalid counter flag %d", i, flag)
	}
	rec.Kind = KindEvent
	return nil
}

func (sr *StreamReader) readSample(rec *Record) error {
	i := sr.idx
	dt, err := binary.ReadUvarint(sr.br)
	if err != nil {
		return badf(err, "sample %d time: %v", i, err)
	}
	rank, err := binary.ReadUvarint(sr.br)
	if err != nil {
		return badf(err, "sample %d rank: %v", i, err)
	}
	t, err := sr.advance(dt, "time")
	if err != nil {
		return err
	}
	s := &rec.Sample
	s.Time = t
	s.Rank = int32(rank)
	for c := 0; c < int(counters.NumCounters); c++ {
		v, err := binary.ReadVarint(sr.br)
		if err != nil {
			return badf(err, "sample %d counter %d: %v", i, c, err)
		}
		s.Counters[c] = v
	}
	depth, err := binary.ReadUvarint(sr.br)
	if err != nil {
		return badf(err, "sample %d stack depth: %v", i, err)
	}
	if depth > 1024 {
		return badf(nil, "sample %d stack depth %d too large", i, depth)
	}
	s.Stack = s.Stack[:0]
	for d := uint64(0); d < depth; d++ {
		f, err := binary.ReadUvarint(sr.br)
		if err != nil {
			return badf(err, "sample %d frame %d: %v", i, d, err)
		}
		s.Stack = append(s.Stack, uint32(f))
	}
	if depth == 0 {
		s.Stack = nil
	}
	rec.Kind = KindSample
	return nil
}

func (sr *StreamReader) readComm(rec *Record) error {
	i := sr.idx
	dt, err := binary.ReadUvarint(sr.br)
	if err != nil {
		return badf(err, "comm %d send time: %v", i, err)
	}
	lat, err := binary.ReadVarint(sr.br)
	if err != nil {
		return badf(err, "comm %d latency: %v", i, err)
	}
	src, err := binary.ReadUvarint(sr.br)
	if err != nil {
		return badf(err, "comm %d src: %v", i, err)
	}
	dst, err := binary.ReadUvarint(sr.br)
	if err != nil {
		return badf(err, "comm %d dst: %v", i, err)
	}
	size, err := binary.ReadVarint(sr.br)
	if err != nil {
		return badf(err, "comm %d size: %v", i, err)
	}
	tag, err := binary.ReadVarint(sr.br)
	if err != nil {
		return badf(err, "comm %d tag: %v", i, err)
	}
	t, err := sr.advance(dt, "send time")
	if err != nil {
		return err
	}
	rec.Comm = Comm{
		Src: int32(src), Dst: int32(dst),
		SendTime: t, RecvTime: t + Time(lat),
		Size: size, Tag: int32(tag),
	}
	rec.Kind = KindComm
	return nil
}

// RecordAt reconstructs row i as a Record, for comparisons with the
// record decoder. A sample's Stack aliases the block's frame arena and
// is nil when the stack is empty, as the record decoder returns it.
func (b *ColBlock) RecordAt(i int, rec *Record) error {
	if i < 0 || i >= b.n {
		return fmt.Errorf("trace: block row %d out of range [0, %d)", i, b.n)
	}
	if err := b.checkCols(); err != nil {
		return err
	}
	rec.Kind = b.kind
	switch b.kind {
	case KindEvent:
		rec.Event = b.eventAt(i)
	case KindSample:
		rec.Sample = b.sampleAt(i)
	case KindComm:
		rec.Comm = b.commAt(i)
	}
	return nil
}

// readAllRecords is readAll as it was written over the record decoder,
// kept as readAll's oracle.
func readAllRecords(sr *StreamReader) (*Trace, error) {
	tr := &Trace{Meta: *sr.Meta()}
	var rec Record
	for {
		err := sr.Next(&rec)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		switch rec.Kind {
		case KindEvent:
			if tr.Events == nil {
				tr.Events = make([]Event, 0, sr.PreallocHint(KindEvent))
			}
			tr.Events = append(tr.Events, rec.Event)
		case KindSample:
			if tr.Samples == nil {
				tr.Samples = make([]Sample, 0, sr.PreallocHint(KindSample))
			}
			s := rec.Sample
			if len(s.Stack) > 0 {
				// The reader reuses the record's stack buffer; own a copy.
				s.Stack = append([]uint32(nil), s.Stack...)
			}
			tr.Samples = append(tr.Samples, s)
		case KindComm:
			if tr.Comms == nil {
				tr.Comms = make([]Comm, 0, sr.PreallocHint(KindComm))
			}
			tr.Comms = append(tr.Comms, rec.Comm)
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
