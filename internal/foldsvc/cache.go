package foldsvc

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/rescache"
	"repro/internal/trace"
)

// This file is the glue between the HTTP handlers and the
// content-addressed result cache (internal/rescache). Every route that
// produces a report or a partial computes its response body through
// one helper, cached, the only code that consults the cache: request
// bodies are hashed while they are read (never buffered twice), the
// digest plus the canonical options fingerprint (core.Options.Fingerprint)
// form the cache key, and concurrent identical requests coalesce onto
// one computation. A response computed through the cache carries a
// Cache-Status: hit|miss|coalesced header; ?nocache=1, a daemon without
// a cache and an unkeyed request compute directly and carry none.

// caches reports whether the request's result goes through the result
// cache: the daemon has one and the request did not opt out with
// ?nocache=. A request that does not never reads or writes the cache,
// and a single daemon streams its upload through the analysis instead
// of spooling it.
func (s *Server) caches(r *http.Request) bool {
	if s.cache == nil {
		return false
	}
	on, err := strconv.ParseBool(r.URL.Query().Get("nocache"))
	return err != nil || !on
}

// cached computes one response body: under key through the cache's
// GetOrCompute, which serves a stored body or coalesces onto an
// identical computation in flight, when key is set and the request
// caches; otherwise by running compute directly. status is the
// Cache-Status value, "" when the cache was not consulted.
func (s *Server) cached(ctx context.Context, r *http.Request, key string, compute func(context.Context) (rescache.Result, error)) (data []byte, status string, err error) {
	if key == "" || !s.caches(r) {
		res, err := compute(ctx)
		return res.Data, "", err
	}
	data, st, err := s.cache.GetOrCompute(ctx, key, compute)
	return data, st.String(), err
}

// spoolUpload reads an upload to EOF into memory, hashing it on the
// way — the one buffering pass a cached or coordinated upload needs —
// and returns its bytes and digest. An upload over the size limit, a
// timed-out or cancelled request or a failed read gets its error
// response written here and ok false — except that with opts.Lenient a
// read that failed for none of those salvages the prefix that did
// arrive, whose digest covers exactly those bytes, so
// content-addressing stays sound.
func (s *Server) spoolUpload(w http.ResponseWriter, r *http.Request, ctx context.Context, opts core.Options, up *uploadReader, src string) (spooled []byte, digest string, ok bool) {
	dr := trace.NewDigestReader(up)
	var buf bytes.Buffer
	if _, err := io.Copy(&buf, dr); err != nil {
		switch {
		case up.cause != nil:
			err = up.cause
		case ctx.Err() != nil:
			err = ctx.Err()
		case opts.Lenient && buf.Len() > 0:
			return buf.Bytes(), dr.Sum(), true
		}
		s.analyzeError(w, r, src, err)
		return nil, "", false
	}
	return buf.Bytes(), dr.Sum(), true
}

// analyzeJSON turns one trace, rd, whose content digest is digest, into
// a report body. A coordinator fans it out to its workers
// (runCoordinated), which route on the digest and take the request's
// options from q; any other daemon streams it through the local
// analysis, records the report's metrics and logs its outcome. A
// sharded reduction is bit-identical to a single-pass analysis for any
// shard count (TestShardedEquivalence), so both share one cache key.
func (s *Server) analyzeJSON(ctx context.Context, q url.Values, rd io.Reader, digest string, opts core.Options, src string) (rescache.Result, error) {
	if s.coord != nil {
		return s.runCoordinated(ctx, q, digest, rd, opts)
	}
	start := time.Now()
	rep, err := core.AnalyzeStreamContext(ctx, rd, opts)
	if err != nil {
		return rescache.Result{}, err
	}
	s.recordReport(rep)
	s.cfg.Logger.Info("analysis done", "source", src, "app", rep.App,
		"ranks", rep.Ranks, "bursts", rep.Bursts, "phases", len(rep.Phases),
		"online", rep.Online, "wall", time.Since(start))
	return jsonBody("report", rep, false)
}

// jsonBody encodes v, a report or a partial, as a response body: JSON
// with a trailing newline, as json.Encoder writes it. The cache stores
// it unless noStore.
func jsonBody(what string, v any, noStore bool) (rescache.Result, error) {
	out, err := json.Marshal(v)
	if err != nil {
		return rescache.Result{}, fmt.Errorf("encode %s: %w", what, err)
	}
	return rescache.Result{Data: append(out, '\n'), NoStore: noStore}, nil
}
