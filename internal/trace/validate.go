package trace

import (
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/counters"
)

// ErrInvalid is wrapped by all validation failures.
var ErrInvalid = errors.New("trace: invalid trace")

// Validate checks the metadata-level invariants — the subset of Trace
// validation a streaming consumer can apply before seeing any record.
func (m *Metadata) Validate() error {
	if m.Ranks < 1 {
		return fmt.Errorf("%w: metadata rank count %d", ErrInvalid, m.Ranks)
	}
	return nil
}

// Validate checks structural invariants of a trace:
//
//   - metadata rank count covers every record's rank
//   - records are sorted by (Time, Rank)
//   - no record is later than the recorded duration
//   - per-rank counters in events and samples are monotone non-decreasing
//   - per-rank MPI enter/exit events alternate and end balanced
//   - comm records have RecvTime >= SendTime and a non-negative size
//
// It returns the first violation found, or nil. It runs the checker
// Checked runs over a record stream, rule for rule and in the same
// order, so a trace and its encoding get the same verdict.
func (tr *Trace) Validate() error {
	c, err := newChecker(&tr.Meta)
	if err != nil {
		return err
	}
	for i := range tr.Events {
		e := &tr.Events[i]
		if !c.placeOK(i, e.Time, e.Rank) {
			return c.placeErr(i, e.Time, e.Rank)
		}
		if e.HasCounters {
			if err := c.counters(i, e.Rank, &e.Counters); err != nil {
				return err
			}
		}
		if e.Type == EvMPI && !c.mpiOK(e.Rank, e.Value != 0) {
			return c.mpiErr(e.Rank, e.Time, e.Value != 0)
		}
	}
	if err := c.begin(KindSample); err != nil {
		return err
	}
	for i := range tr.Samples {
		s := &tr.Samples[i]
		if !c.placeOK(i, s.Time, s.Rank) {
			return c.placeErr(i, s.Time, s.Rank)
		}
		if err := c.counters(i, s.Rank, &s.Counters); err != nil {
			return err
		}
	}
	c.begin(KindComm) // leaving the sample section checks nothing
	for i := range tr.Comms {
		cm := &tr.Comms[i]
		if err := c.comm(i, cm.SendTime, cm.RecvTime, cm.Src, cm.Dst, cm.Size); err != nil {
			return err
		}
	}
	return nil
}

// CheckedSource is a Source that checks the records of another against
// Validate's rules as their blocks pass, with no copy of the trace: a
// whole-trace analysis gets the verdict Validate would give the decoded
// trace, without a pass of its own.
type CheckedSource struct {
	src  Source
	mode Mode
	c    checker
	err  error // the first violation, once found
}

// Checked wraps src in the streamed check. In Strict mode the first
// violation ends the stream with Validate's error for it (wrapping
// ErrInvalid), and the block that held it comes back empty, so no stage
// downstream sees an invalid record. In Lenient mode the records flow on
// unchanged and Err reports the violation once the stream has ended.
// src must yield a whole trace: a shard of a split may start or end
// inside an MPI call.
func Checked(src Source, mode Mode) *CheckedSource {
	s := &CheckedSource{src: src, mode: mode}
	s.c, s.err = newChecker(src.Meta())
	return s
}

// Meta returns the wrapped source's metadata.
func (s *CheckedSource) Meta() *Metadata { return s.src.Meta() }

// NextBlock implements Source: it fills blk from the wrapped source and
// checks the rows, and at the end of the stream the last section.
func (s *CheckedSource) NextBlock(blk *ColBlock) error {
	if s.err != nil && s.mode != Lenient {
		blk.Reset(blk.kind)
		return s.err
	}
	err := s.src.NextBlock(blk)
	if s.err == nil {
		if err == io.EOF {
			s.err = s.c.begin(numKinds)
		} else {
			s.err = s.c.block(blk)
		}
		if s.err != nil && s.mode != Lenient {
			blk.Reset(blk.kind)
			return s.err
		}
	}
	return err
}

// Err returns the first violation the check found, or nil.
func (s *CheckedSource) Err() error { return s.err }

// Decoded forwards to the wrapped source when it decodes an encoding
// (see StreamReader.Decoded) and reports nothing decoded otherwise.
func (s *CheckedSource) Decoded() (int64, *DecodeStats) {
	if d, ok := s.src.(interface{ Decoded() (int64, *DecodeStats) }); ok {
		return d.Decoded()
	}
	return 0, nil
}

// checker holds the state of Validate's rules over one stream of
// records in section order: the section and the index of its next
// record, the previous record's (time, rank) for the sort rule, each
// rank's MPI state, and each rank's last counter snapshot in the
// section.
type checker struct {
	ranks int32
	end   Time
	kind  Kind
	n     int
	prevT Time
	prevR int32
	inMPI []bool
	// last[r] is math.MinInt64 in every counter until rank r's first
	// snapshot of the section, which therefore never reads as a decrease.
	last []counters.Values
}

func newChecker(m *Metadata) (checker, error) {
	if err := m.Validate(); err != nil {
		return checker{}, err
	}
	c := checker{
		ranks: int32(m.Ranks),
		end:   m.Duration,
		inMPI: make([]bool, m.Ranks),
		last:  make([]counters.Values, m.Ranks),
	}
	c.begin(KindEvent) // sets every rank's counters to MinInt64
	return c, nil
}

// begin moves the check on to section k (numKinds at the end of the
// stream). Leaving the event section checks that every rank has left
// its last MPI call.
func (c *checker) begin(k Kind) error {
	if c.kind == KindEvent && k != KindEvent {
		for r, in := range c.inMPI {
			if in {
				return fmt.Errorf("%w: rank %d trace ends inside an MPI call", ErrInvalid, r)
			}
		}
	}
	c.kind, c.n = k, 0
	for r := range c.last {
		for k := range c.last[r] {
			c.last[r][k] = math.MinInt64
		}
	}
	return nil
}

// block checks the rows of b, moving on to b's section first. Its loop
// is Validate's, reading the columns in place of the record structs.
func (c *checker) block(b *ColBlock) error {
	if b.n == 0 {
		return nil
	}
	if b.kind != c.kind {
		if err := c.begin(b.kind); err != nil {
			return err
		}
	}
	base := c.n
	c.n += b.n
	var ctr counters.Values
	for j := 0; j < b.n; j++ {
		i, t, r := base+j, Time(b.Times[j]), b.Ranks[j]
		if b.kind == KindComm {
			if err := c.comm(i, t, Time(b.Recvs[j]), r, b.Dsts[j], b.Sizes[j]); err != nil {
				return err
			}
			continue
		}
		if !c.placeOK(i, t, r) {
			return c.placeErr(i, t, r)
		}
		if b.kind == KindSample || b.Flags[j] != 0 {
			for k := range b.Ctrs {
				ctr[k] = b.Ctrs[k][j]
			}
			if err := c.counters(i, r, &ctr); err != nil {
				return err
			}
		}
		if b.kind == KindEvent && EventType(b.Types[j]) == EvMPI && !c.mpiOK(r, b.Values[j] != 0) {
			return c.mpiErr(r, t, b.Values[j] != 0)
		}
	}
	return nil
}

// placeOK checks the place of record i of an event or sample section:
// its rank is in range, it is not after the duration, and it does not
// sort before the record ahead of it. placeErr says which rule failed.
func (c *checker) placeOK(i int, t Time, r int32) bool {
	if !rankOK(r, c.ranks) || t > c.end || i > 0 && sortsBefore(t, r, c.prevT, c.prevR) {
		return false
	}
	c.prevT, c.prevR = t, r
	return true
}

func (c *checker) placeErr(i int, t Time, r int32) error {
	switch {
	case !rankOK(r, c.ranks):
		return fmt.Errorf("%w: %s %d has rank %d outside [0,%d)", ErrInvalid, c.kind, i, r, c.ranks)
	case t > c.end:
		return fmt.Errorf("%w: %s %d at %d after duration %d", ErrInvalid, c.kind, i, t, c.end)
	}
	return fmt.Errorf("%w: %ss not sorted at index %d", ErrInvalid, c.kind, i)
}

// counters checks that no counter of rank r fell since the rank's
// previous snapshot in the section, recording ctr as that snapshot.
func (c *checker) counters(i int, r int32, ctr *counters.Values) error {
	last := &c.last[r]
	for k, v := range ctr {
		if v < last[k] {
			return fmt.Errorf("%w: rank %d counter %s decreased at %s %d (%d -> %d)",
				ErrInvalid, r, counters.Counter(k), c.kind, i, last[k], v)
		}
		last[k] = v
	}
	return nil
}

// mpiOK moves rank r into an MPI call (entering) or out of one, and
// reports whether the rank was on the other side; mpiErr says which.
func (c *checker) mpiOK(r int32, entering bool) bool {
	if entering == c.inMPI[r] {
		return false
	}
	c.inMPI[r] = entering
	return true
}

func (c *checker) mpiErr(r int32, t Time, entering bool) error {
	if entering {
		return fmt.Errorf("%w: rank %d enters MPI at %d while already inside", ErrInvalid, r, t)
	}
	return fmt.Errorf("%w: rank %d exits MPI at %d while outside", ErrInvalid, r, t)
}

// comm checks record i of the comm section.
func (c *checker) comm(i int, send, recv Time, src, dst int32, size int64) error {
	switch {
	case !rankOK(src, c.ranks):
		return fmt.Errorf("%w: comm(src) %d has rank %d outside [0,%d)", ErrInvalid, i, src, c.ranks)
	case !rankOK(dst, c.ranks):
		return fmt.Errorf("%w: comm(dst) %d has rank %d outside [0,%d)", ErrInvalid, i, dst, c.ranks)
	case recv < send:
		return fmt.Errorf("%w: comm %d received at %d before sent at %d", ErrInvalid, i, recv, send)
	case recv > c.end:
		return fmt.Errorf("%w: comm %d recv at %d after duration %d", ErrInvalid, i, recv, c.end)
	case size < 0:
		return fmt.Errorf("%w: comm %d has negative size %d", ErrInvalid, i, size)
	}
	return nil
}

// rankOK reports whether r names one of a trace's ranks.
func rankOK(r, ranks int32) bool { return r >= 0 && r < ranks }

// sortsBefore reports whether a record at (t, r) sorts before one at
// (pt, pr) in section order.
func sortsBefore(t Time, r int32, pt Time, pr int32) bool {
	return t < pt || t == pt && r < pr
}
