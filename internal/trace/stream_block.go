package trace

import (
	"encoding/binary"
	"errors"
	"io"

	"repro/internal/counters"
)

// NextBlock implements Source: it decodes the next run of same-kind
// records straight into blk's columns, resetting blk first. A block ends
// at the section boundary or at its capacity, whichever comes first, so
// every block is homogeneous in kind.
//
// Each record is parsed from the bytes the read buffer already holds
// (bufio.Reader.Peek of at most Buffered(), which never reads, so a read
// error can never be swallowed). A record that straddles the buffer's
// end, or that fails any check, is decoded again from its first byte by
// the byte-at-a-time read*Cols path, which reads the same bytes and so
// yields the same values, error text and cursor position.
//
// In Lenient mode undecodable records are dropped with the cursor
// resynchronizing where the byte path stopped, implausible rows are
// dropped in place (see plausibleRow), and truncation ends the stream
// with a nil error for the rows already in blk. NextBlock returns io.EOF
// only when no rows were produced; on a decode error the rows already in
// blk are valid.
func (sr *StreamReader) NextBlock(blk *ColBlock) error {
	// Empty the block up front so a recycled block never carries stale
	// rows out of an EOF or error return.
	blk.Reset(blk.kind)
	if sr.err != nil {
		return sr.err
	}
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
				if sr.mode != Lenient {
					return sr.fail(err)
				}
				// A section header that cannot be decoded leaves no way to
				// locate later sections: salvage what was read so far.
				sr.truncate()
				return sr.fail(io.EOF)
			}
		}
		blk.Reset(sr.kind)
		err := sr.decodeRows(blk)
		if err == io.EOF && blk.n > 0 {
			return nil // the partial block stands; the next call reports io.EOF
		}
		if err != nil || blk.n > 0 {
			return err
		}
		// Lenient mode dropped the rest of the section: go on to the next.
	}
}

// maxLenientResyncs caps how many corrupt records a lenient decode may
// drop-and-resync past before declaring the rest of the stream unusable.
// Varints are self-delimiting, so a resync usually realigns within a
// record or two; a stream that keeps failing past this bound is noise.
const maxLenientResyncs = 1 << 16

// decodeRows decodes records of the current section into b until the
// section ends or b is full.
func (sr *StreamReader) decodeRows(b *ColBlock) error {
	rows := b.rows(sr.kind) // the columns are checked once per block
	lenient := sr.mode == Lenient
	for sr.left > 0 && b.n < b.capacity {
		if b.n >= rows {
			// Shortened columns are a caller-side block problem, not
			// stream corruption: report it without poisoning the reader.
			return b.room(sr.kind)
		}
		prev, prevRank := sr.prev, sr.prevRank
		if err := sr.decodeRow(b); err != nil {
			if !lenient {
				return sr.fail(err)
			}
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				// The input ends mid-record: everything decoded so far stands.
				sr.truncate()
				return sr.fail(io.EOF)
			}
			// In-place corruption: drop the record and resume decoding at
			// the cursor, giving up once the resync budget is spent.
			sr.stats.Resyncs++
			sr.dropOne(sr.kind)
			sr.idx++
			sr.left--
			if sr.stats.Resyncs >= maxLenientResyncs {
				sr.truncate()
				return sr.fail(io.EOF)
			}
			continue
		}
		sr.idx++
		sr.left--
		if !lenient {
			continue
		}
		j := b.n - 1
		if !sr.plausibleRow(b, j, prev) {
			// Decoded but semantically impossible: drop the row and undo
			// its effect on the delta base, so one corrupt timestamp
			// cannot poison the rest of the section.
			b.n = j
			if sr.kind == KindSample {
				b.Frames = b.Frames[:b.StackOff[j]]
			}
			sr.prev, sr.prevRank = prev, prevRank
			sr.dropOne(sr.kind)
			continue
		}
		sr.prevRank = b.Ranks[j]
	}
	return nil
}

// decodeRow decodes one record of the current section as row b.Len(),
// from the buffered bytes when they hold all of it and byte by byte
// otherwise.
func (sr *StreamReader) decodeRow(b *ColBlock) error {
	// Peek up to Buffered() never reads, so it returns no error.
	w, _ := sr.br.Peek(sr.br.Buffered())
	var n int
	switch sr.kind {
	case KindEvent:
		if n = sr.sliceEvent(b, w); n == 0 {
			return sr.readEventCols(b)
		}
	case KindSample:
		if n = sr.sliceSample(b, w); n == 0 {
			return sr.readSampleCols(b)
		}
	default:
		if n = sr.sliceComm(b, w); n == 0 {
			return sr.readCommCols(b)
		}
	}
	sr.br.Discard(n) // n <= Buffered(): no read
	return nil
}

// sliceEvent decodes the event at the start of p as row b.Len() and
// returns its encoded length. It returns 0, leaving the reader state
// untouched, when p does not hold the whole record or the record fails a
// check of readEventCols; the caller then decodes it with readEventCols.
func (sr *StreamReader) sliceEvent(b *ColBlock, p []byte) int {
	dt, n := binary.Uvarint(p)
	if n <= 0 {
		return 0
	}
	rank, m := binary.Uvarint(p[n:])
	if m <= 0 || n+m >= len(p) {
		return 0
	}
	n += m
	typ := p[n]
	val, m := binary.Varint(p[n+1:])
	if m <= 0 || n+1+m >= len(p) {
		return 0
	}
	n += 1 + m
	flag := p[n]
	n++
	if flag > 1 || overflows(sr.prev, dt) {
		return 0
	}
	j := b.n
	for c := range b.Ctrs {
		var v int64
		if flag == 1 {
			if v, m = binary.Varint(p[n:]); m <= 0 {
				return 0
			}
			n += m
		}
		b.Ctrs[c][j] = v
	}
	sr.prev += Time(dt)
	b.Times[j] = int64(sr.prev)
	b.Ranks[j] = int32(rank)
	b.Types[j] = typ
	b.Values[j] = val
	b.Flags[j] = flag
	b.n = j + 1
	return n
}

// sliceSample is sliceEvent for a sample; its frames go straight into
// the frame arena and are rolled back when the record is refused.
func (sr *StreamReader) sliceSample(b *ColBlock, p []byte) int {
	dt, n := binary.Uvarint(p)
	if n <= 0 {
		return 0
	}
	rank, m := binary.Uvarint(p[n:])
	if m <= 0 || overflows(sr.prev, dt) {
		return 0
	}
	n += m
	j := b.n
	for c := range b.Ctrs {
		v, m := binary.Varint(p[n:])
		if m <= 0 {
			return 0
		}
		n += m
		b.Ctrs[c][j] = v
	}
	depth, m := binary.Uvarint(p[n:])
	// Every frame takes at least one byte, so a depth beyond the window
	// cannot fit.
	if m <= 0 || depth > 1024 || depth > uint64(len(p)-n-m) {
		return 0
	}
	n += m
	start := len(b.Frames)
	b.growFrames(int(depth))
	for d := uint64(0); d < depth; d++ {
		f, m := binary.Uvarint(p[n:])
		if m <= 0 {
			b.Frames = b.Frames[:start]
			return 0
		}
		n += m
		b.Frames = append(b.Frames, uint32(f))
	}
	sr.prev += Time(dt)
	b.Times[j] = int64(sr.prev)
	b.Ranks[j] = int32(rank)
	b.StackOff[j+1] = int32(len(b.Frames))
	b.n = j + 1
	return n
}

// sliceComm is sliceEvent for a comm record.
func (sr *StreamReader) sliceComm(b *ColBlock, p []byte) int {
	var v [6]uint64 // send delta, latency, src, dst, size, tag
	n := 0
	for i := range v {
		x, m := binary.Uvarint(p[n:])
		if m <= 0 {
			return 0
		}
		n += m
		v[i] = x
	}
	if overflows(sr.prev, v[0]) {
		return 0
	}
	sr.prev += Time(v[0])
	j := b.n
	b.Times[j] = int64(sr.prev)
	b.Recvs[j] = int64(sr.prev + Time(unzigzag(v[1])))
	b.Ranks[j] = int32(v[2])
	b.Dsts[j] = int32(v[3])
	b.Sizes[j] = unzigzag(v[4])
	b.Tags[j] = int32(unzigzag(v[5]))
	b.n = j + 1
	return n
}

// unzigzag maps a uvarint to the varint it encodes, as binary.Varint
// does.
func unzigzag(ux uint64) int64 {
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x
}

// plausibleRow applies the semantic fences of lenient mode to row j:
// ranks must be inside the metadata's range, timestamps must not pass
// the declared duration, and the section's (time, rank) sort order must
// hold. These are the row-local rules of Trace.Validate (sharing its
// predicates), checked row by row so a corrupt-but-decodable record is
// dropped instead of poisoning analysis; a metadata rank count or
// duration that is not positive fences nothing. prevTime is the delta
// base before the row was decoded, i.e. the previous accepted row's
// timestamp.
func (sr *StreamReader) plausibleRow(b *ColBlock, j int, prevTime Time) bool {
	ranks := int32(sr.meta.Ranks)
	end := sr.meta.Duration
	rank, t := b.Ranks[j], Time(b.Times[j])
	if sr.kind == KindComm {
		dst, recv := b.Dsts[j], Time(b.Recvs[j])
		if ranks > 0 && !(rankOK(rank, ranks) && rankOK(dst, ranks)) {
			return false
		}
		if recv < t || b.Sizes[j] < 0 {
			return false
		}
		return end <= 0 || (t <= end && recv <= end)
	}
	if ranks > 0 && !rankOK(rank, ranks) {
		return false
	}
	if end > 0 && t > end {
		return false
	}
	return sr.idx <= 1 || !sortsBefore(t, rank, prevTime, sr.prevRank)
}

// readEventCols decodes one event into b's columns byte by byte through
// the read buffer, which it refills as needed. Its read order, checks and
// error messages match the record decoder the tests keep as an oracle; a
// decode error leaves b.Len() unchanged.
func (sr *StreamReader) readEventCols(b *ColBlock) error {
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
	j := b.n
	b.Times[j] = int64(t)
	b.Ranks[j] = int32(rank)
	b.Types[j] = typ
	b.Values[j] = val
	switch flag {
	case 0:
		b.Flags[j] = 0
		for c := range b.Ctrs {
			b.Ctrs[c][j] = 0
		}
	case 1:
		b.Flags[j] = 1
		for c := 0; c < int(counters.NumCounters); c++ {
			v, err := binary.ReadVarint(sr.br)
			if err != nil {
				return badf(err, "event %d counter %d: %v", i, c, err)
			}
			b.Ctrs[c][j] = v
		}
	default:
		return badf(nil, "event %d has invalid counter flag %d", i, flag)
	}
	b.n = j + 1
	return nil
}

// readSampleCols decodes one sample into b's columns byte by byte; stack
// frames go straight into the block's CSR arena. On a mid-record error
// the arena is rolled back so the rows already in b stay valid.
func (sr *StreamReader) readSampleCols(b *ColBlock) error {
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
	j := b.n
	b.Times[j] = int64(t)
	b.Ranks[j] = int32(rank)
	for c := 0; c < int(counters.NumCounters); c++ {
		v, err := binary.ReadVarint(sr.br)
		if err != nil {
			return badf(err, "sample %d counter %d: %v", i, c, err)
		}
		b.Ctrs[c][j] = v
	}
	depth, err := binary.ReadUvarint(sr.br)
	if err != nil {
		return badf(err, "sample %d stack depth: %v", i, err)
	}
	if depth > 1024 {
		return badf(nil, "sample %d stack depth %d too large", i, depth)
	}
	start := len(b.Frames)
	b.growFrames(int(depth))
	for d := uint64(0); d < depth; d++ {
		f, err := binary.ReadUvarint(sr.br)
		if err != nil {
			b.Frames = b.Frames[:start]
			return badf(err, "sample %d frame %d: %v", i, d, err)
		}
		b.Frames = append(b.Frames, uint32(f))
	}
	b.StackOff[j+1] = int32(len(b.Frames))
	b.n = j + 1
	return nil
}

// readCommCols decodes one comm record into b's columns byte by byte.
func (sr *StreamReader) readCommCols(b *ColBlock) error {
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
	j := b.n
	b.Times[j] = int64(t)
	b.Recvs[j] = int64(t + Time(lat))
	b.Ranks[j] = int32(src)
	b.Dsts[j] = int32(dst)
	b.Sizes[j] = size
	b.Tags[j] = int32(tag)
	b.n = j + 1
	return nil
}
