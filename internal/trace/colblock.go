package trace

import (
	"errors"
	"fmt"

	"repro/internal/counters"
	"repro/internal/parallel"
)

// ErrBlockFull reports a row added to a ColBlock already at its
// capacity. Callers drain the block (send it downstream, or iterate it)
// and Reset before filling it again.
var ErrBlockFull = errors.New("trace: column block full")

// ErrColumnMismatch reports a ColBlock whose parallel columns do not all
// cover the rows an operation needs — the result of tampering with the
// exported column slices. Row writes and reads validate against it and
// return the error instead of indexing out of range.
var ErrColumnMismatch = errors.New("trace: column block length mismatch")

// ColBlock is a fixed-capacity structure-of-arrays batch of records of
// one Kind. Where a []Record stores an array of structs, a ColBlock
// stores parallel columns — one contiguous slice per field — so the hot
// consumers (burst extraction, fold bin accumulation, k-d tree bulk
// load) scan cache-line-friendly columns instead of pointer-striding
// 150-byte structs. Column backing arrays are carved from the
// internal/parallel scratch pools, so a Reset/Release'd block recycles
// its memory instead of re-allocating per batch.
//
// Only rows [0, Len()) are valid. All rows share the block's Kind; the
// columns of the other kinds are present but unused. Per-kind column
// usage:
//
//   - KindEvent: Times, Ranks, Types, Values, Flags (0 = no counters,
//     1 = Ctrs row valid), Ctrs
//   - KindSample: Times, Ranks, Ctrs, and the CSR stack storage
//     StackOff/Frames (row i's frames are Frames[StackOff[i]:StackOff[i+1]])
//   - KindComm: Times (send), Recvs, Ranks (source), Dsts, Sizes, Tags
//
// A ColBlock is not safe for concurrent use.
type ColBlock struct {
	// Times holds the per-row primary timestamp (event time, sample
	// time, or comm send time) as int64 nanoseconds.
	Times []int64
	// Ranks holds the per-row rank (comm rows: source rank).
	Ranks []int32
	// Types holds event types (KindEvent only).
	Types []uint8
	// Values holds event values (KindEvent only).
	Values []int64
	// Flags holds per-event counter presence: 0 = none, 1 = the Ctrs row
	// is a valid snapshot (KindEvent only).
	Flags []uint8
	// Ctrs holds one column per hardware counter; Ctrs[c][i] is counter
	// c of row i (KindEvent rows with Flags[i] == 1, and all KindSample
	// rows).
	Ctrs [counters.NumCounters][]int64
	// Recvs holds comm receive times (KindComm only).
	Recvs []int64
	// Dsts holds comm destination ranks (KindComm only).
	Dsts []int32
	// Sizes holds comm message sizes (KindComm only).
	Sizes []int64
	// Tags holds comm message tags (KindComm only).
	Tags []int32
	// StackOff is the CSR offset column for sample stacks: row i's
	// frames span Frames[StackOff[i]:StackOff[i+1]]. len(StackOff) is
	// the capacity + 1 and StackOff[Len()] is always len(Frames).
	StackOff []int32
	// Frames is the shared frame arena all sample stacks index into.
	Frames []uint32

	kind     Kind
	n        int
	capacity int
	a64      []int64 // arena backing Times/Values/Recvs/Sizes/Ctrs
	a32      []int32 // arena backing Ranks/Dsts/Tags/StackOff
	a8       []uint8 // arena backing Types/Flags
}

// BlockRows is the number of rows of the blocks the analysis pipeline
// and ReadFrom decode into. They share one size because column arenas
// come from shared pools, which drop a pooled arena too small for the
// block that asks and allocate a new one.
const BlockRows = 1024

// NewColBlock allocates a block able to hold up to capacity rows of any
// kind, carving its columns from the parallel scratch pools. Release
// returns the backing memory to the pools.
func NewColBlock(capacity int) *ColBlock {
	if capacity < 1 {
		capacity = 1
	}
	b := &ColBlock{capacity: capacity}
	nc := int(counters.NumCounters)
	b.a64 = parallel.GetInt64(capacity * (4 + nc))
	b.a32 = parallel.GetInt32(capacity*4 + 1)
	b.a8 = parallel.GetUint8(capacity * 2)

	b.Times = b.a64[0:capacity:capacity]
	b.Values = b.a64[capacity : 2*capacity : 2*capacity]
	b.Recvs = b.a64[2*capacity : 3*capacity : 3*capacity]
	b.Sizes = b.a64[3*capacity : 4*capacity : 4*capacity]
	for c := 0; c < nc; c++ {
		lo := (4 + c) * capacity
		b.Ctrs[c] = b.a64[lo : lo+capacity : lo+capacity]
	}
	b.Ranks = b.a32[0:capacity:capacity]
	b.Dsts = b.a32[capacity : 2*capacity : 2*capacity]
	b.Tags = b.a32[2*capacity : 3*capacity : 3*capacity]
	b.StackOff = b.a32[3*capacity : 4*capacity+1 : 4*capacity+1]
	b.Types = b.a8[0:capacity:capacity]
	b.Flags = b.a8[capacity : 2*capacity : 2*capacity]
	b.Frames = parallel.GetUint32(capacity)[:0]
	return b
}

// Kind returns the record kind the block currently holds.
func (b *ColBlock) Kind() Kind { return b.kind }

// Len returns the number of valid rows.
func (b *ColBlock) Len() int { return b.n }

// Reset empties the block and re-types it to hold records of kind k.
// Column memory is retained for reuse.
func (b *ColBlock) Reset(k Kind) {
	b.kind = k
	b.n = 0
	b.Frames = b.Frames[:0]
	if len(b.StackOff) > 0 {
		b.StackOff[0] = 0
	}
}

// Release returns the block's column memory to the parallel pools and
// zeroes the block. The block (and any column slice taken from it) must
// not be used afterwards.
func (b *ColBlock) Release() {
	if b.a64 != nil {
		parallel.PutInt64(b.a64)
	}
	if b.a32 != nil {
		parallel.PutInt32(b.a32)
	}
	if b.a8 != nil {
		parallel.PutUint8(b.a8)
	}
	if b.Frames != nil {
		parallel.PutUint32(b.Frames)
	}
	*b = ColBlock{}
}

// rows returns how many rows the columns that kind k uses can all hold,
// at most its capacity. It is below the capacity only when the exported
// column slices were shortened.
func (b *ColBlock) rows(k Kind) int {
	n := min(b.capacity, len(b.Times), len(b.Ranks))
	switch k {
	case KindEvent:
		n = min(n, len(b.Types), len(b.Values), len(b.Flags))
	case KindSample:
		n = min(n, len(b.StackOff)-1)
	case KindComm:
		return min(n, len(b.Recvs), len(b.Dsts), len(b.Sizes), len(b.Tags))
	}
	for c := range b.Ctrs {
		n = min(n, len(b.Ctrs[c]))
	}
	return n
}

// room validates that one more row of kind k fits: the block must hold
// kind k (or be empty), have spare capacity, and every column the kind
// uses must still cover the new row. It returns ErrBlockFull or
// ErrColumnMismatch instead of letting an append index out of range.
func (b *ColBlock) room(k Kind) error {
	if b.n == 0 {
		b.kind = k
	} else if b.kind != k {
		return fmt.Errorf("trace: appending %v record to %v block", k, b.kind)
	}
	if b.n >= b.capacity {
		return ErrBlockFull
	}
	if b.rows(k) <= b.n {
		return fmt.Errorf("%w: %v columns shorter than %d rows", ErrColumnMismatch, k, b.n+1)
	}
	return nil
}

// putEvent writes e as row Len() and grows the block by one row; the
// caller has checked that the columns hold it.
func (b *ColBlock) putEvent(e *Event) {
	i := b.n
	b.Times[i] = int64(e.Time)
	b.Ranks[i] = e.Rank
	b.Types[i] = uint8(e.Type)
	b.Values[i] = e.Value
	if e.HasCounters {
		b.Flags[i] = 1
		for c := range b.Ctrs {
			b.Ctrs[c][i] = e.Counters[c]
		}
	} else {
		b.Flags[i] = 0
		for c := range b.Ctrs {
			b.Ctrs[c][i] = 0
		}
	}
	b.n = i + 1
}

// putSample writes s as row Len(), copying its stack into the frame
// arena; the caller has checked that the columns hold it.
func (b *ColBlock) putSample(s *Sample) {
	i := b.n
	b.Times[i] = int64(s.Time)
	b.Ranks[i] = s.Rank
	for c := range b.Ctrs {
		b.Ctrs[c][i] = s.Counters[c]
	}
	b.growFrames(len(s.Stack))
	b.Frames = append(b.Frames, s.Stack...)
	b.StackOff[i+1] = int32(len(b.Frames))
	b.n = i + 1
}

// putComm writes c as row Len(); the caller has checked that the columns
// hold it.
func (b *ColBlock) putComm(c *Comm) {
	i := b.n
	b.Times[i] = int64(c.SendTime)
	b.Recvs[i] = int64(c.RecvTime)
	b.Ranks[i] = c.Src
	b.Dsts[i] = c.Dst
	b.Sizes[i] = c.Size
	b.Tags[i] = c.Tag
	b.n = i + 1
}

// eventAt returns event row i.
func (b *ColBlock) eventAt(i int) Event {
	e := Event{
		Rank:        b.Ranks[i],
		Time:        Time(b.Times[i]),
		Type:        EventType(b.Types[i]),
		Value:       b.Values[i],
		HasCounters: b.Flags[i] != 0,
	}
	if e.HasCounters {
		for c := range b.Ctrs {
			e.Counters[c] = b.Ctrs[c][i]
		}
	}
	return e
}

// sampleAt returns sample row i. Its Stack aliases the frame arena
// (capacity-capped, so appends cannot clobber it) and is nil when the
// stack is empty, as the decoder writes it.
func (b *ColBlock) sampleAt(i int) Sample {
	s := Sample{Rank: b.Ranks[i], Time: Time(b.Times[i])}
	for c := range b.Ctrs {
		s.Counters[c] = b.Ctrs[c][i]
	}
	if lo, hi := b.StackOff[i], b.StackOff[i+1]; hi > lo {
		s.Stack = b.Frames[lo:hi:hi]
	}
	return s
}

// commAt returns comm row i.
func (b *ColBlock) commAt(i int) Comm {
	return Comm{
		Src:      b.Ranks[i],
		Dst:      b.Dsts[i],
		SendTime: Time(b.Times[i]),
		RecvTime: Time(b.Recvs[i]),
		Size:     b.Sizes[i],
		Tag:      b.Tags[i],
	}
}

// growFrames ensures the frame arena has room for need more frames,
// re-carving a larger pooled slice when necessary.
func (b *ColBlock) growFrames(need int) {
	if len(b.Frames)+need <= cap(b.Frames) {
		return
	}
	want := len(b.Frames) + need
	if w := 2 * cap(b.Frames); w > want {
		want = w
	}
	nf := parallel.GetUint32(want)[:len(b.Frames)]
	copy(nf, b.Frames)
	old := b.Frames
	b.Frames = nf
	parallel.PutUint32(old)
}
