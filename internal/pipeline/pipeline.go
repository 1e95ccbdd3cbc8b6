// Package pipeline is the streaming analysis engine: one pass that
// turns a stream of trace record blocks (trace.Source) into the
// measured Outcome that core.Reduce resolves phases over and builds
// reports from. Batch and streaming analysis run through the same pass
// — batch feeds an in-memory TraceSource, streaming a decoding
// StreamReader, both filling the same column blocks — so there is one
// implementation of extraction, sample attachment and incremental
// folding to test and to trust.
//
// The flow is decode → extract → phase (gather the kept bursts; an
// online run also trains and classifies) → fold (attach samples, or fold
// them incrementally online). An exact run resolves no phases: it is the
// map half of core's algebra, and core.Reduce clusters its bursts.
//
// Decoding is the one overlap the pass keeps: a read-ahead goroutine
// decodes into a fixed set of pooled column blocks while the calling
// goroutine takes each decoded block through extract, phase and fold and
// hands it back. The decoder runs at most four blocks ahead, so the
// working set stays constant, and the blocks recycle for the length of
// the run, so steady-state decoding allocates nothing.
package pipeline

import (
	"io"
	"time"

	"repro/internal/trace"
)

// Metrics records one stage's observability counters, carried into the
// Report so users can see where records and time went.
type Metrics struct {
	// Stage is the stage name ("decode", "extract", ...).
	Stage string
	// RecordsIn and RecordsOut count the logical records (events,
	// samples, comms, bursts, instances — whatever the stage consumes and
	// produces), not blocks.
	RecordsIn, RecordsOut int64
	// Bytes is the encoded input bytes attributed to the stage (decode
	// reports the trace size when known; other stages report 0).
	Bytes int64
	// Wall is the summed time of the stage's calls. Extract, phase and
	// fold run one after another on the calling goroutine, so their walls
	// do not overlap and sum to at most the run's elapsed time; decode
	// runs on the read-ahead goroutine, and its wall overlaps theirs.
	Wall time.Duration
}

const (
	// blockRows is the number of records per block.
	blockRows = trace.BlockRows
	// numBlocks is how many blocks one run makes: one in the calling
	// goroutine's hands and the rest decoded ahead of it.
	numBlocks = 5
)

// readAhead is the read-ahead goroutine: it fills free blocks from src
// and sends them, in stream order, on full.
type readAhead struct {
	src  trace.Source
	free chan *trace.ColBlock // blocks ready to fill
	full chan *trace.ColBlock // decoded blocks; closed when the goroutine returns
	quit chan struct{}        // closed to stop it before its next block

	// Written by the goroutine before it closes full.
	m     Metrics
	stats *trace.DecodeStats // a lenient decode's salvage
	err   error              // the source's error, other than io.EOF
}

// decoder is a source that decodes an encoding (a trace.StreamReader,
// bare or checked): it reports the bytes it read and a lenient decode's
// salvage.
type decoder interface {
	Decoded() (int64, *trace.DecodeStats)
}

// startReadAhead makes the run's blocks and starts decoding src into
// them. Each channel can hold every block, so no send on one blocks.
func startReadAhead(src trace.Source) *readAhead {
	d := &readAhead{
		src:  src,
		free: make(chan *trace.ColBlock, numBlocks),
		full: make(chan *trace.ColBlock, numBlocks),
		quit: make(chan struct{}),
		m:    Metrics{Stage: "decode"},
	}
	for range numBlocks {
		d.free <- trace.NewColBlock(blockRows)
	}
	go d.run()
	return d
}

// run decodes until the source ends or fails, or quit is closed.
func (d *readAhead) run() {
	defer close(d.full)
	for {
		// Check quit first: once it is closed, stop hands blocks back, and
		// the select below could otherwise take one and decode on.
		select {
		case <-d.quit:
			return
		default:
		}
		var blk *trace.ColBlock
		select {
		case blk = <-d.free:
		case <-d.quit:
			return
		}
		start := time.Now()
		err := d.src.NextBlock(blk)
		d.m.Wall += time.Since(start)
		if err == nil && blk.Len() > 0 {
			d.m.RecordsOut += int64(blk.Len())
			d.full <- blk
			continue
		}
		// An empty block goes back, and so do rows that came with an
		// error: a failed run is not analyzed.
		d.free <- blk
		// Identity comparison on purpose: a decode error may wrap an
		// io.EOF cause (truncation inside a record) and must still fail a
		// strict run.
		if err == io.EOF {
			if s, ok := d.src.(decoder); ok {
				d.m.Bytes, d.stats = s.Decoded()
			}
			return
		}
		if err != nil {
			d.err = err
			return
		}
	}
}

// stop ends the goroutine and waits for it: it drains full back into
// free until the goroutine closes it, then returns every block's arenas
// to the pools. Nothing touches a block afterwards.
func (d *readAhead) stop() {
	close(d.quit)
	for blk := range d.full {
		d.free <- blk
	}
	close(d.free)
	for blk := range d.free {
		blk.Release()
	}
}
