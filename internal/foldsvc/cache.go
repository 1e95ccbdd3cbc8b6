package foldsvc

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/rescache"
	"repro/internal/trace"
)

// This file is the glue between the HTTP handlers and the
// content-addressed result cache (internal/rescache): request bodies
// are hashed while they are read (never buffered twice), the digest
// plus the canonical options fingerprint (core.Options.Fingerprint)
// form the cache key, and concurrent identical requests coalesce onto
// one pipeline run. Every cached response carries a
// Cache-Status: hit|miss|coalesced header; ?nocache=1 takes the exact
// pre-cache streaming path.

// nocacheRequested reports whether the request opted out of the result
// cache with ?nocache=. Bypassed requests never read or write the
// cache and stream through the original analysis path.
func nocacheRequested(r *http.Request) bool {
	v := r.URL.Query().Get("nocache")
	if v == "" {
		return false
	}
	on, err := strconv.ParseBool(v)
	return err == nil && on
}

// spoolUpload reads an upload to EOF into memory, hashing it on the
// way — the one buffering pass a cached upload needs — and returns its
// bytes and digest. An upload over the size limit, a timed-out or
// cancelled request or a failed read gets its error response written
// here and ok false — except that with opts.Lenient a read that failed
// for none of those salvages the prefix that did arrive, whose digest
// covers exactly those bytes, so content-addressing stays sound.
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

// analyze runs the analysis of rd, records the report's metrics and
// logs its outcome.
func (s *Server) analyze(ctx context.Context, rd io.Reader, opts core.Options, src string) (*core.Report, error) {
	start := time.Now()
	rep, err := core.AnalyzeStreamContext(ctx, rd, opts)
	if err != nil {
		return nil, err
	}
	s.recordReport(rep)
	s.cfg.Logger.Info("analysis done", "source", src, "app", rep.App,
		"ranks", rep.Ranks, "bursts", rep.Bursts, "phases", len(rep.Phases),
		"online", rep.Online, "wall", time.Since(start))
	return rep, nil
}

// analyzeJSON is analyze with the report encoded as the response body:
// JSON with a trailing newline, as the uncached path's json.Encoder
// writes it, so cached and uncached responses are byte-identical.
func (s *Server) analyzeJSON(ctx context.Context, rd io.Reader, opts core.Options, src string) (rescache.Result, error) {
	rep, err := s.analyze(ctx, rd, opts, src)
	if err != nil {
		return rescache.Result{}, err
	}
	out, err := json.Marshal(rep)
	if err != nil {
		return rescache.Result{}, fmt.Errorf("encode report: %w", err)
	}
	return rescache.Result{Data: append(out, '\n')}, nil
}

// analyzeCached is the cache-enabled tail of handleAnalyze: digest the
// trace, look the (digest, options fingerprint) key up, and only run
// the pipeline on a miss — with concurrent identical requests
// coalesced onto that one run. The cached value is the exact JSON body
// the streaming path would have written, so hits and misses are
// byte-identical.
func (s *Server) analyzeCached(w http.ResponseWriter, r *http.Request, ctx context.Context, opts core.Options, body *uploadReader, input io.Reader, src string) {
	var (
		spooled    []byte
		fromUpload = src == "upload"
		digest     string
	)
	if fromUpload {
		var ok bool
		if spooled, digest, ok = s.spoolUpload(w, r, ctx, opts, body, src); !ok {
			return
		}
	} else {
		// ?path= files arrive as seekable readers: hash in place and
		// rewind instead of spooling, keeping memory bounded.
		rs, ok := input.(io.ReadSeeker)
		if !ok {
			s.analyzeError(w, r, src, fmt.Errorf("local trace %s is not seekable", src))
			return
		}
		dr := trace.NewDigestReader(rs)
		if _, err := io.Copy(io.Discard, dr); err != nil {
			s.analyzeError(w, r, src, err)
			return
		}
		if _, err := rs.Seek(0, io.SeekStart); err != nil {
			s.analyzeError(w, r, src, err)
			return
		}
		digest = dr.Sum()
	}

	key := rescache.Key("report", digest, opts.Fingerprint())
	data, status, err := s.cache.GetOrCompute(ctx, key, func(cctx context.Context) (rescache.Result, error) {
		rd := input
		if fromUpload {
			rd = bytes.NewReader(spooled)
		}
		return s.analyzeJSON(cctx, rd, opts, src)
	})
	if err != nil {
		s.analyzeError(w, r, src, err)
		return
	}
	w.Header().Set("Cache-Status", status.String())
	// The content digest keys the cached report; echoing it lets
	// clients diff this run later by reference (/v1/diff?digest_a=…)
	// without re-uploading the trace.
	w.Header().Set("Trace-Digest", digest)
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write(data); err != nil {
		s.cfg.Logger.Debug("response write failed", "err", err)
	}
}

// partialCached is the cache-enabled tail of handlePartial, used when
// the coordinator declared the shard's content digest up front
// (?digest=). A hit answers without reading the upload at all — after
// a worker died mid-fan-out, the re-upload only recomputes the lost
// shard. On a miss the shard streams through the map pipeline while
// being hashed; if the received bytes do not match the declared
// digest, the partial is served but never stored (a mislabeled upload
// must not poison the key).
func (s *Server) partialCached(w http.ResponseWriter, r *http.Request, ctx context.Context, opts core.Options, spec core.ShardSpec, body *uploadReader, declared string) {
	key := rescache.Key("partial", declared,
		strconv.Itoa(spec.Count), strconv.Itoa(spec.Index), opts.Fingerprint())
	data, status, err := s.cache.GetOrCompute(ctx, key, func(cctx context.Context) (rescache.Result, error) {
		dr := trace.NewDigestReader(body)
		start := time.Now()
		p, merr := core.MapShardStreamContext(cctx, dr, spec, opts)
		if merr != nil {
			return rescache.Result{}, merr
		}
		// The decoder's readahead may stop short of EOF; the digest must
		// cover every uploaded byte before it is compared.
		if _, derr := io.Copy(io.Discard, dr); derr != nil {
			return rescache.Result{}, derr
		}
		s.reg.Counter("foldsvc_partials_total",
			"Shard map requests that ran to completion.").Inc()
		s.cfg.Logger.Info("partial done", "app", p.Meta.App, "shard", spec.Index,
			"shards", spec.Count, "bursts", p.Bursts, "kept", len(p.Kept),
			"wall", time.Since(start))
		out, jerr := json.Marshal(p)
		if jerr != nil {
			return rescache.Result{}, fmt.Errorf("encode partial: %w", jerr)
		}
		return rescache.Result{Data: append(out, '\n'), NoStore: dr.Sum() != declared}, nil
	})
	if err != nil {
		s.analyzeError(w, r, "partial-upload", body.failure(err))
		return
	}
	w.Header().Set("Cache-Status", status.String())
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write(data); err != nil {
		s.cfg.Logger.Debug("response write failed", "err", err)
	}
}
