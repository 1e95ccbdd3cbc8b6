package trace

import (
	"fmt"
	"io"
)

// Mode selects how a StreamReader reacts to malformed input. The
// zero value is Strict, which preserves the historical behavior:
// the first undecodable byte aborts the stream with ErrBadFormat.
type Mode int

const (
	// Strict aborts the stream on the first malformed record.
	Strict Mode = iota
	// Lenient salvages what it can: undecodable or implausible records
	// are dropped (tallied in DecodeStats), the decoder resynchronizes at
	// the cursor, and truncated input ends the stream gracefully instead
	// of erroring. Header corruption (magic/metadata) is still fatal —
	// without metadata there is nothing to salvage against.
	Lenient
)

// String names the mode for logs and flags.
func (m Mode) String() string {
	switch m {
	case Strict:
		return "strict"
	case Lenient:
		return "lenient"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// DecodeStats summarizes the damage a lenient decode absorbed. A zero
// value means the input decoded cleanly; Degraded reports whether any
// salvage action was taken.
type DecodeStats struct {
	// DroppedEvents counts event records lost to corruption or truncation.
	DroppedEvents int64
	// DroppedSamples counts sample records lost to corruption or truncation.
	DroppedSamples int64
	// DroppedComms counts comm records lost to corruption or truncation.
	DroppedComms int64
	// BadSections counts section headers whose declared record count was
	// impossible and had to be clamped to what the input could hold.
	BadSections int
	// Resyncs counts how many times the decoder dropped a structurally
	// corrupt record and resumed at the cursor.
	Resyncs int64
	// Truncated reports that the input ended mid-stream; records in
	// sections that were never reached are not counted as dropped.
	Truncated bool
	// TrailingBytes counts the input bytes after the comm section, which
	// no section accounts for and the decode skipped.
	TrailingBytes int64 `json:",omitempty"`
}

// Add folds another decode's salvage tally into st — the merge used when
// a sharded analysis combines per-shard decode stats into one summary.
func (st *DecodeStats) Add(o DecodeStats) {
	st.DroppedEvents += o.DroppedEvents
	st.DroppedSamples += o.DroppedSamples
	st.DroppedComms += o.DroppedComms
	st.BadSections += o.BadSections
	st.Resyncs += o.Resyncs
	st.Truncated = st.Truncated || o.Truncated
	st.TrailingBytes += o.TrailingBytes
}

// Dropped returns the total number of records lost across all kinds.
func (st DecodeStats) Dropped() int64 {
	return st.DroppedEvents + st.DroppedSamples + st.DroppedComms
}

// Degraded reports whether the decode lost anything: records dropped,
// a section count clamped, the stream truncated, or a tail skipped.
func (st DecodeStats) Degraded() bool {
	return st.Dropped() > 0 || st.BadSections > 0 || st.Resyncs > 0 || st.Truncated ||
		st.TrailingBytes > 0
}

// Warnings renders the stats as human-readable report warnings, one per
// distinct salvage action; empty when the decode was clean.
func (st DecodeStats) Warnings() []string {
	var w []string
	if st.Truncated {
		w = append(w, "salvage decode: input truncated mid-stream")
	}
	if st.Dropped() > 0 {
		w = append(w, fmt.Sprintf(
			"salvage decode: dropped %d events, %d samples, %d comms (%d resyncs)",
			st.DroppedEvents, st.DroppedSamples, st.DroppedComms, st.Resyncs))
	}
	if st.BadSections > 0 {
		w = append(w, fmt.Sprintf(
			"salvage decode: %d section header(s) declared impossible record counts",
			st.BadSections))
	}
	if st.TrailingBytes > 0 {
		w = append(w, fmt.Sprintf(
			"salvage decode: skipped %d trailing bytes after the comm section", st.TrailingBytes))
	}
	return w
}

// badRecord is a record-level decode failure. Its message is identical
// to the historical fmt.Errorf("%w: ...", ErrBadFormat, ...) wrapping,
// but it additionally exposes the underlying I/O cause so the lenient
// decoder can tell truncation (io.EOF / io.ErrUnexpectedEOF) apart from
// in-place corruption.
type badRecord struct {
	msg   string
	cause error
}

func (e *badRecord) Error() string { return e.msg }

func (e *badRecord) Unwrap() []error {
	if e.cause == nil {
		return []error{ErrBadFormat}
	}
	return []error{ErrBadFormat, e.cause}
}

// badf builds a badRecord whose message matches what
// fmt.Errorf("%w: "+format, ErrBadFormat, args...) would produce, with
// cause (which may be nil for pure validation failures) kept matchable
// via errors.Is.
func badf(cause error, format string, args ...any) error {
	return &badRecord{
		msg:   ErrBadFormat.Error() + ": " + fmt.Sprintf(format, args...),
		cause: cause,
	}
}

// ReadFromLenient decodes a complete trace from r in salvage mode:
// corrupt or truncated record data is dropped instead of aborting, and
// the returned DecodeStats tallies what was lost. Only header corruption
// (bad magic or metadata) still fails. The salvaged trace keeps canonical
// section order but is not re-validated — callers that need Validate's
// guarantees must check (and possibly tolerate) its verdict themselves.
func ReadFromLenient(r io.Reader) (*Trace, DecodeStats, error) {
	sr, err := NewStreamReaderMode(r, Lenient)
	if err != nil {
		return nil, DecodeStats{}, err
	}
	tr, err := readAll(sr)
	if err != nil {
		return nil, sr.stats, err
	}
	return tr, sr.stats, nil
}
