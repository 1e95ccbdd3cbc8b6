package core

import (
	"context"
	"fmt"
	"io"

	"repro/internal/trace"
)

// AnalyzeStreamContext runs the full pipeline on an encoded trace read
// from r, block by block, without materializing the trace in memory.
// With the default (exact) StreamOptions the resulting Report is
// deep-equal to AnalyzeContext on the decoded trace; with Stream.Online
// set, memory stays bounded by bursts + folding bins regardless of how
// many samples the stream carries. Reads of r are fenced by ctx and the
// pipeline stages stop at the next block boundary once ctx is
// cancelled, so a disconnected client or an expired deadline abandons
// the analysis promptly instead of draining the stream. The returned error satisfies errors.Is against ctx.Err(); a
// cancelled run never returns a partial Report.
func AnalyzeStreamContext(ctx context.Context, r io.Reader, opts Options) (*Report, error) {
	opts.setDefaults()
	sr, err := openStream(ctx, r, opts)
	if err != nil {
		return nil, err
	}
	// One whole-stream shard through the map/reduce algebra, exact or
	// fused online: Reduce resolves and summarises both kinds.
	p, err := MapShardContext(ctx, sr, WholeSpec(), opts)
	if err != nil {
		return nil, err
	}
	return Reduce([]*Partial{p}, nil, opts)
}

// MapShardStreamContext is the worker half of a distributed analysis:
// it decodes one encoded shard from r (strict or salvage mode per
// opts.Lenient, reads fenced by ctx like AnalyzeStreamContext) and runs
// the map half of the algebra over it, returning the mergeable Partial
// for a coordinator to Reduce. spec must carry the shard's place in the
// split — Reduce uses it to detect missing shards.
func MapShardStreamContext(ctx context.Context, r io.Reader, spec ShardSpec, opts Options) (*Partial, error) {
	opts.setDefaults()
	sr, err := openStream(ctx, r, opts)
	if err != nil {
		return nil, err
	}
	return MapShardContext(ctx, sr, spec, opts)
}

// openStream opens the decoder of AnalyzeStreamContext and
// MapShardStreamContext, in the mode opts.Lenient selects. r's size is
// taken before its reads are fenced by ctx, so the decoder checks
// declared section counts against it with or without a cancellable
// context.
func openStream(ctx context.Context, r io.Reader, opts Options) (*trace.StreamReader, error) {
	size := trace.InputSize(r)
	if ctx.Done() != nil {
		r = &ctxReader{ctx: ctx, r: r}
	}
	sr, err := trace.NewStreamReaderSize(r, size, opts.decodeMode())
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, fmt.Errorf("core: %w", cerr)
		}
		return nil, fmt.Errorf("core: %w", err)
	}
	return sr, nil
}

// ctxReader fences each Read with a context check, so a decoder pulling
// from an already-cancelled stream fails with the context's error
// instead of blocking on the underlying reader. (A read already blocked
// in the underlying reader is not interrupted; request bodies and other
// network readers fail on their own when the peer goes away.)
type ctxReader struct {
	ctx context.Context
	r   io.Reader
}

func (cr *ctxReader) Read(p []byte) (int, error) {
	if err := cr.ctx.Err(); err != nil {
		return 0, err
	}
	return cr.r.Read(p)
}
