package trace

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/counters"
)

// Kind identifies a record variant: event, sample or comm. A ColBlock
// holds rows of one Kind. The binary format stores the three record
// kinds in three sequential sections, so a stream always yields all
// events (time-sorted), then all samples, then all comms — the
// canonical order Build and Sort produce.
type Kind uint8

const (
	KindEvent Kind = iota
	KindSample
	KindComm
	numKinds
)

func (k Kind) String() string {
	switch k {
	case KindEvent:
		return "event"
	case KindSample:
		return "sample"
	case KindComm:
		return "comm"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Source yields trace records in blocks, in canonical section order
// (events, then samples, then comms, each time-sorted). It is the
// record-stream interface the analysis pipeline consumes, implemented by
// both the in-memory TraceSource and the decoding StreamReader, so batch
// and streaming analysis share one input contract; Checked wraps either
// in Trace.Validate's rules.
type Source interface {
	// Meta returns the stream's metadata, available before any record.
	Meta() *Metadata
	// NextBlock resets blk and fills it with the next run of same-kind
	// records, at most its capacity. It returns io.EOF only when no rows
	// were produced: a partial block at the end of the stream comes
	// back with a nil error and the next call reports io.EOF. Any other
	// error ends the stream; the rows already in blk are valid.
	NextBlock(blk *ColBlock) error
}

// TraceSource adapts an in-memory Trace to the Source interface, letting
// the batch path run through the same streaming stages as a decoder-fed
// analysis.
type TraceSource struct {
	tr   *Trace
	kind Kind
	i    int
}

// NewTraceSource returns a Source iterating tr's records in section
// order. The trace must be sorted (Build, Sort and ReadFrom guarantee
// this).
func NewTraceSource(tr *Trace) *TraceSource {
	return &TraceSource{tr: tr}
}

// Meta returns the trace metadata.
func (s *TraceSource) Meta() *Metadata { return &s.tr.Meta }

// NextBlock implements Source, copying the trace's records straight into
// blk's columns.
func (s *TraceSource) NextBlock(blk *ColBlock) error {
	blk.Reset(blk.kind)
	lens := [numKinds]int{len(s.tr.Events), len(s.tr.Samples), len(s.tr.Comms)}
	for s.kind < numKinds && s.i >= lens[s.kind] {
		s.kind++
		s.i = 0
	}
	if s.kind >= numKinds {
		return io.EOF
	}
	blk.Reset(s.kind)
	want := min(blk.capacity, lens[s.kind]-s.i)
	n := min(want, blk.rows(s.kind))
	for i := s.i; i < s.i+n; i++ {
		switch s.kind {
		case KindEvent:
			blk.putEvent(&s.tr.Events[i])
		case KindSample:
			blk.putSample(&s.tr.Samples[i])
		default:
			blk.putComm(&s.tr.Comms[i])
		}
	}
	s.i += n
	if n < want {
		return blk.room(s.kind) // shortened columns: ErrColumnMismatch
	}
	return nil
}

// maxSectionRecords caps declared record counts when the input size is
// unknown; with a known size the tighter remaining-bytes bound applies.
const maxSectionRecords = 1 << 34

// minRecordSize is the smallest possible encoding of one record of each
// kind, used to validate declared section counts against the remaining
// input before anything is allocated: event = dt + rank + type + value +
// flag; sample = dt + rank + counters + depth; comm = six varints.
var minRecordSize = [numKinds]uint64{
	KindEvent:  5,
	KindSample: uint64(counters.NumCounters) + 3,
	KindComm:   6,
}

// countingReader counts bytes consumed from the underlying reader so the
// stream can compare declared section sizes against what remains.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// StreamReader decodes a binary trace into column blocks, holding only
// the metadata, O(1) section state and its read buffer, never the full
// trace. It implements Source; ReadFrom and ReadFile are thin
// collect-everything wrappers over it.
type StreamReader struct {
	br    *bufio.Reader
	cr    countingReader
	limit int64 // total input size in bytes, -1 when unknown
	meta  Metadata
	mode  Mode

	kind     Kind   // section being decoded (numKinds when finished)
	counted  bool   // current section's count header has been read
	left     uint64 // records remaining in the current section
	idx      uint64 // index of the next record within the section
	prev     Time   // delta-decoding base for the current section
	prevRank int32  // rank of the last accepted record (lenient sort fence)
	counts   [numKinds]uint64
	stats    DecodeStats
	err      error // sticky terminal state (io.EOF or a decode error)
}

// NewStreamReader opens a streaming decoder over r, reading the header
// (magic + metadata) immediately. When r's total size is discoverable
// (see inputSize) it is used to reject malformed section counts before
// any allocation, never to truncate reads.
func NewStreamReader(r io.Reader) (*StreamReader, error) {
	return NewStreamReaderMode(r, Strict)
}

// NewStreamReaderMode is NewStreamReader with an explicit decode mode.
// In Lenient mode record-level corruption and truncation are absorbed
// (records dropped, the damage tallied in Stats) instead of aborting the
// stream; header corruption remains fatal in both modes.
func NewStreamReaderMode(r io.Reader, mode Mode) (*StreamReader, error) {
	size := inputSize(r)
	sr := &StreamReader{cr: countingReader{r: r}, limit: size, mode: mode}
	// An input known to be smaller than the 1 MiB read buffer gets a
	// buffer of its own size, so decoding a small input (a session's
	// appended chunk) does not allocate and clear a mostly unused
	// megabyte.
	bufSize := 1 << 20
	if size >= 0 && size < int64(bufSize) {
		bufSize = int(size)
	}
	sr.br = bufio.NewReaderSize(&sr.cr, bufSize)

	var m [4]byte
	if _, err := io.ReadFull(sr.br, m[:]); err != nil {
		return nil, fmt.Errorf("%w: reading magic: %v", ErrBadFormat, err)
	}
	if m != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadFormat, m)
	}
	metaLen, err := binary.ReadUvarint(sr.br)
	if err != nil {
		return nil, fmt.Errorf("%w: metadata length: %v", ErrBadFormat, err)
	}
	if metaLen > 1<<30 {
		return nil, fmt.Errorf("%w: metadata length %d too large", ErrBadFormat, metaLen)
	}
	if rem := sr.remaining(); rem >= 0 && metaLen > uint64(rem) {
		return nil, fmt.Errorf("%w: metadata length %d exceeds remaining input (%d bytes)",
			ErrBadFormat, metaLen, rem)
	}
	metaBuf := make([]byte, metaLen)
	if _, err := io.ReadFull(sr.br, metaBuf); err != nil {
		return nil, fmt.Errorf("%w: metadata body: %v", ErrBadFormat, err)
	}
	if err := json.Unmarshal(metaBuf, &sr.meta); err != nil {
		return nil, fmt.Errorf("%w: metadata JSON: %v", ErrBadFormat, err)
	}
	return sr, nil
}

// inputSize returns r's remaining byte count when it is cheaply
// discoverable, and -1 otherwise: in-memory readers report Len, regular
// files their size minus offset.
func inputSize(r io.Reader) int64 {
	switch v := r.(type) {
	case interface{ Len() int }:
		return int64(v.Len())
	case *os.File:
		if fi, err := v.Stat(); err == nil && fi.Mode().IsRegular() {
			if pos, err := v.Seek(0, io.SeekCurrent); err == nil && pos <= fi.Size() {
				return fi.Size() - pos
			}
		}
	}
	return -1
}

// Meta returns the decoded metadata.
func (sr *StreamReader) Meta() *Metadata { return &sr.meta }

// BytesRead returns how many input bytes have been consumed so far
// (excluding readahead still buffered).
func (sr *StreamReader) BytesRead() int64 {
	return sr.cr.n - int64(sr.br.Buffered())
}

// Decoded reports, once NextBlock has returned io.EOF, how many input
// bytes the decode consumed and, in Lenient mode, what it salvaged (nil
// in Strict mode, which salvages nothing).
func (sr *StreamReader) Decoded() (int64, *DecodeStats) {
	if sr.mode != Lenient {
		return sr.BytesRead(), nil
	}
	st := sr.stats
	return sr.BytesRead(), &st
}

// remaining returns how many input bytes are left, or -1 when the total
// size is unknown.
func (sr *StreamReader) remaining() int64 {
	if sr.limit < 0 {
		return -1
	}
	rem := sr.limit - sr.BytesRead()
	if rem < 0 {
		rem = 0
	}
	return rem
}

// PreallocHint returns a conservative capacity for collecting the
// current section: the declared count clamped by a fixed bound and, when
// the input size is known, by how many records the remaining bytes could
// possibly encode. It is valid once NextBlock has returned the section's
// first block (0 before that).
func (sr *StreamReader) PreallocHint(k Kind) int {
	n := sr.counts[k]
	if rem := sr.remaining(); rem >= 0 {
		// remaining() is measured after some records may already have been
		// consumed, so add the consumed count back conservatively.
		if byBytes := uint64(rem)/minRecordSize[k] + sr.idx; byBytes < n {
			n = byBytes
		}
	}
	return min64(n, 1<<20)
}

func (sr *StreamReader) fail(err error) error {
	sr.err = err
	return err
}

// dropOne tallies one dropped record of kind k.
func (sr *StreamReader) dropOne(k Kind) { sr.dropN(k, 1) }

func (sr *StreamReader) dropN(k Kind, n uint64) {
	switch k {
	case KindEvent:
		sr.stats.DroppedEvents += int64(n)
	case KindSample:
		sr.stats.DroppedSamples += int64(n)
	case KindComm:
		sr.stats.DroppedComms += int64(n)
	}
}

// truncate marks the remainder of the stream unusable: undelivered
// records of the current section are counted as dropped (sections never
// begun have unknown counts and are not) and the next call ends the
// stream.
func (sr *StreamReader) truncate() {
	sr.stats.Truncated = true
	if sr.counted && sr.left > 0 {
		sr.dropN(sr.kind, sr.left)
		sr.left = 0
	}
	sr.counted = false
	sr.kind = numKinds
}

// end runs once the comm section is complete. Input left after it is a
// tail no section accounts for: strict decoding fails on it, saying
// where it starts, and lenient decoding skips and counts it. It returns
// io.EOF when the stream ends cleanly.
func (sr *StreamReader) end() error {
	at := sr.BytesRead()
	_, err := sr.br.Peek(1)
	switch {
	case err == io.EOF:
		return io.EOF
	case err == nil && sr.mode != Lenient:
		return badf(nil, "trailing bytes after the comm section at byte %d", at)
	case err == nil:
		sr.stats.TrailingBytes, err = sr.br.WriteTo(io.Discard)
		if err == nil {
			return io.EOF
		}
	}
	return badf(err, "reading past the comm section: %v", err)
}

// beginSection reads and validates the current section's record count.
func (sr *StreamReader) beginSection() error {
	n, err := binary.ReadUvarint(sr.br)
	if err != nil {
		return badf(err, "%s count: %v", sr.kind, err)
	}
	bad := false
	if n > maxSectionRecords {
		if sr.mode != Lenient {
			return badf(nil, "%s count %d too large", sr.kind, n)
		}
		bad = true
		n = maxSectionRecords
	}
	// With a known input size, a section cannot declare more records than
	// the remaining bytes could minimally encode — reject corrupt counts
	// here, before any caller sizes a slice from them. Lenient decodes
	// clamp to that bound instead and let truncation handling finish the
	// job when the stream runs dry early.
	if rem := sr.remaining(); rem >= 0 && n > uint64(rem)/minRecordSize[sr.kind] {
		if sr.mode != Lenient {
			return badf(nil, "%s count %d exceeds remaining input (%d bytes)",
				sr.kind, n, rem)
		}
		bad = true
		n = uint64(rem) / minRecordSize[sr.kind]
	}
	if bad {
		sr.stats.BadSections++
	}
	sr.counts[sr.kind] = n
	sr.left = n
	sr.idx = 0
	sr.prev = 0
	sr.counted = true
	return nil
}

// advance delta-decodes the next timestamp of the current section.
func (sr *StreamReader) advance(dt uint64, what string) (Time, error) {
	if overflows(sr.prev, dt) {
		return 0, badf(nil, "%s %d %s delta %d overflows", sr.kind, sr.idx, what, dt)
	}
	sr.prev += Time(dt)
	return sr.prev, nil
}

// overflows reports whether prev + dt leaves the Time range.
func overflows(prev Time, dt uint64) bool {
	return dt > math.MaxInt64 || prev > math.MaxInt64-Time(dt)
}

// StreamWriter encodes a binary trace record-at-a-time: header first,
// then the three sections in order, each begun with its record count.
// Its output is byte-identical to Trace.Write for the same records —
// Write is a thin wrapper over it.
type StreamWriter struct {
	bw   *bufio.Writer
	buf  []byte
	next Kind   // section Begin expects next
	open bool   // a section is begun and not yet complete
	left uint64 // records still owed to the open section
	prev Time
	err  error
}

// NewStreamWriter writes the magic and metadata header to w and returns
// a writer positioned before the event section. The caller must Begin
// and fill each of the three sections in order, then Close.
func NewStreamWriter(w io.Writer, meta *Metadata) (*StreamWriter, error) {
	sw := &StreamWriter{bw: bufio.NewWriterSize(w, 1<<20)}
	if _, err := sw.bw.Write(magic[:]); err != nil {
		return nil, err
	}
	mj, err := json.Marshal(meta)
	if err != nil {
		return nil, fmt.Errorf("trace: encoding metadata: %w", err)
	}
	sw.buf = make([]byte, 0, 64)
	sw.buf = binary.AppendUvarint(sw.buf, uint64(len(mj)))
	if _, err := sw.bw.Write(sw.buf); err != nil {
		return nil, err
	}
	sw.buf = sw.buf[:0]
	if _, err := sw.bw.Write(mj); err != nil {
		return nil, err
	}
	return sw, nil
}

// Begin opens section k, declaring its exact record count. Sections must
// be begun in order (events, samples, comms), each exactly once.
func (sw *StreamWriter) Begin(k Kind, count int) error {
	if sw.err != nil {
		return sw.err
	}
	if k != sw.next || sw.open {
		return sw.fail(fmt.Errorf("trace: Begin(%v) out of order", k))
	}
	if count < 0 {
		return sw.fail(fmt.Errorf("trace: negative %v count %d", k, count))
	}
	sw.buf = binary.AppendUvarint(sw.buf, uint64(count))
	sw.next++
	sw.open = count > 0
	sw.left = uint64(count)
	sw.prev = 0
	return sw.flushMaybe()
}

func (sw *StreamWriter) fail(err error) error {
	sw.err = err
	return err
}

// ready checks that section k is open with records still owed.
func (sw *StreamWriter) ready(k Kind) error {
	if sw.err != nil {
		return sw.err
	}
	if !sw.open || sw.next != k+1 {
		return sw.fail(fmt.Errorf("trace: %v written outside its section", k))
	}
	if sw.left == 0 {
		return sw.fail(fmt.Errorf("trace: more %vs written than declared", k))
	}
	return nil
}

func (sw *StreamWriter) consumed() error {
	sw.left--
	if sw.left == 0 {
		sw.open = false
	}
	return sw.flushMaybe()
}

// flushMaybe spills the accumulation buffer once it passes 64 KiB.
func (sw *StreamWriter) flushMaybe() error {
	if len(sw.buf) < 1<<16 {
		return nil
	}
	if _, err := sw.bw.Write(sw.buf); err != nil {
		return sw.fail(err)
	}
	sw.buf = sw.buf[:0]
	return nil
}

// WriteEvent appends one event to the open event section.
func (sw *StreamWriter) WriteEvent(e *Event) error {
	if err := sw.ready(KindEvent); err != nil {
		return err
	}
	sw.buf = binary.AppendUvarint(sw.buf, uint64(e.Time-sw.prev))
	sw.prev = e.Time
	sw.buf = binary.AppendUvarint(sw.buf, uint64(e.Rank))
	sw.buf = append(sw.buf, byte(e.Type))
	sw.buf = binary.AppendVarint(sw.buf, e.Value)
	if e.HasCounters {
		sw.buf = append(sw.buf, 1)
		for _, v := range e.Counters {
			sw.buf = binary.AppendVarint(sw.buf, v)
		}
	} else {
		sw.buf = append(sw.buf, 0)
	}
	return sw.consumed()
}

// WriteSample appends one sample to the open sample section.
func (sw *StreamWriter) WriteSample(s *Sample) error {
	if err := sw.ready(KindSample); err != nil {
		return err
	}
	sw.buf = binary.AppendUvarint(sw.buf, uint64(s.Time-sw.prev))
	sw.prev = s.Time
	sw.buf = binary.AppendUvarint(sw.buf, uint64(s.Rank))
	for _, v := range s.Counters {
		sw.buf = binary.AppendVarint(sw.buf, v)
	}
	sw.buf = binary.AppendUvarint(sw.buf, uint64(len(s.Stack)))
	for _, f := range s.Stack {
		sw.buf = binary.AppendUvarint(sw.buf, uint64(f))
	}
	return sw.consumed()
}

// WriteComm appends one comm to the open comm section.
func (sw *StreamWriter) WriteComm(c *Comm) error {
	if err := sw.ready(KindComm); err != nil {
		return err
	}
	sw.buf = binary.AppendUvarint(sw.buf, uint64(c.SendTime-sw.prev))
	sw.prev = c.SendTime
	sw.buf = binary.AppendVarint(sw.buf, int64(c.RecvTime-c.SendTime))
	sw.buf = binary.AppendUvarint(sw.buf, uint64(c.Src))
	sw.buf = binary.AppendUvarint(sw.buf, uint64(c.Dst))
	sw.buf = binary.AppendVarint(sw.buf, c.Size)
	sw.buf = binary.AppendVarint(sw.buf, int64(c.Tag))
	return sw.consumed()
}

// Close verifies every declared section is complete and flushes the
// underlying writer.
func (sw *StreamWriter) Close() error {
	if sw.err != nil {
		return sw.err
	}
	if sw.next != numKinds || sw.open {
		return sw.fail(fmt.Errorf("trace: Close before all sections were written"))
	}
	if _, err := sw.bw.Write(sw.buf); err != nil {
		return sw.fail(err)
	}
	sw.buf = sw.buf[:0]
	if err := sw.bw.Flush(); err != nil {
		return sw.fail(err)
	}
	return nil
}
