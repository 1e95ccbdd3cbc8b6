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
// many samples the stream carries. The pipeline checks ctx before each
// block and stops decoding once it is cancelled, so a disconnected
// client or an expired deadline abandons the analysis at the next block
// instead of draining the stream; a read already blocked in r returns
// first, as a request body's does when its client goes. The returned
// error satisfies errors.Is against ctx.Err(); a cancelled run never
// returns a partial Report.
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
// opts.Lenient, cancelled through ctx like AnalyzeStreamContext) and runs
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
// MapShardStreamContext, in the mode opts.Lenient selects.
func openStream(ctx context.Context, r io.Reader, opts Options) (*trace.StreamReader, error) {
	sr, err := trace.NewStreamReaderMode(r, opts.decodeMode())
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, fmt.Errorf("core: %w", cerr)
		}
		return nil, fmt.Errorf("core: %w", err)
	}
	return sr, nil
}
