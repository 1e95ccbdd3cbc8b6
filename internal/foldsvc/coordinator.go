package foldsvc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rescache"
	"repro/internal/trace"
)

// vnodesPerBackend is how many points each worker contributes to the
// consistent-hash ring; enough for an even spread with few workers.
const vnodesPerBackend = 64

// coordinator is the distributed half of a coordinator-mode server: the
// worker ring, one retrying Client (and so one circuit breaker) per
// backend, and the fan-out metrics.
type coordinator struct {
	workers []string
	clients []*Client
	ring    hashRing
	shards  int
	mode    core.ShardMode

	shardOK       *obs.Counter
	shardFailover *obs.Counter
	shardFailed   *obs.Counter
	fanoutSecs    *obs.Histogram
	reduceSecs    *obs.Histogram
}

// newCoordinator builds the ring and per-backend clients from the
// server's Config (len(cfg.Workers) > 0 is the caller's invariant).
func newCoordinator(s *Server) *coordinator {
	cfg := s.cfg
	co := &coordinator{
		workers: cfg.Workers,
		shards:  cfg.Shards,
		mode:    cfg.ShardMode,
		ring:    buildRing(cfg.Workers),
	}
	if co.shards <= 0 {
		co.shards = len(cfg.Workers)
	}
	for _, w := range cfg.Workers {
		ccfg := cfg.WorkerClient
		ccfg.BaseURL = w
		if ccfg.Registry == nil {
			ccfg.Registry = s.reg
		}
		c, err := NewClient(ccfg)
		if err != nil {
			// Config-time error: surface it at the first request instead of
			// panicking in NewServer (main validates URLs before this).
			c = nil
		}
		co.clients = append(co.clients, c)
	}
	outcome := func(v string) *obs.Counter {
		return s.reg.Counter("foldsvc_shards_total",
			"Worker shard requests issued by the coordinator, by outcome.",
			obs.Label{Name: "outcome", Value: v})
	}
	co.shardOK = outcome("ok")
	co.shardFailover = outcome("failover")
	co.shardFailed = outcome("failed")
	co.fanoutSecs = s.reg.Histogram("foldsvc_fanout_seconds",
		"Wall time of the coordinator's worker fan-out (all shards).", nil)
	co.reduceSecs = s.reg.Histogram("foldsvc_reduce_seconds",
		"Wall time of the coordinator's local reduce.", nil)
	return co
}

// hashRing is a consistent-hash ring over worker backends: points are
// vnode hashes, each owned by a backend index.
type hashRing struct {
	hashes   []uint64
	backends []int
}

func ringHash(s string) uint64 {
	h := fnv.New64a()
	io.WriteString(h, s)
	return h.Sum64()
}

func buildRing(workers []string) hashRing {
	type pt struct {
		h uint64
		b int
	}
	pts := make([]pt, 0, len(workers)*vnodesPerBackend)
	for b, w := range workers {
		for v := 0; v < vnodesPerBackend; v++ {
			pts = append(pts, pt{ringHash(w + "#" + strconv.Itoa(v)), b})
		}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].h < pts[j].h })
	r := hashRing{
		hashes:   make([]uint64, len(pts)),
		backends: make([]int, len(pts)),
	}
	for i, p := range pts {
		r.hashes[i] = p.h
		r.backends[i] = p.b
	}
	return r
}

// pick returns the backend owning key: the first ring point clockwise
// from the key's hash.
func (r hashRing) pick(key string) int {
	if len(r.hashes) == 0 {
		return -1
	}
	h := ringHash(key)
	i := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	if i == len(r.hashes) {
		i = 0
	}
	return r.backends[i]
}

// next returns the first backend clockwise from key that differs from
// exclude, or -1 when there is no other backend — the failover target.
func (r hashRing) next(key string, exclude int) int {
	if len(r.hashes) == 0 {
		return -1
	}
	h := ringHash(key)
	i := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	for off := 0; off < len(r.hashes); off++ {
		b := r.backends[(i+off)%len(r.hashes)]
		if b != exclude {
			return b
		}
	}
	return -1
}

// shardSpecFromQuery reads a /v1/partial request's place in its split
// (shard, shards, mode, resume); absent parameters mean the whole-trace
// identity shard.
func shardSpecFromQuery(q url.Values) (core.ShardSpec, error) {
	spec := core.WholeSpec()
	mode, err := core.ParseShardMode(q.Get("mode"))
	if err != nil {
		return spec, err
	}
	spec.Mode = mode
	if v := q.Get("shards"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			return spec, fmt.Errorf("bad shards=%q: want a positive integer", v)
		}
		spec.Count = n
	}
	if v := q.Get("shard"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return spec, fmt.Errorf("bad shard=%q: want a non-negative integer", v)
		}
		spec.Index = n
	}
	if spec.Index >= spec.Count {
		return spec, fmt.Errorf("shard %d out of range for %d shards", spec.Index, spec.Count)
	}
	if v := q.Get("resume"); v != "" {
		on, err := strconv.ParseBool(v)
		if err != nil {
			return spec, fmt.Errorf("bad resume=%q: want a boolean", v)
		}
		spec.Resume = on
	}
	return spec, nil
}

// handlePartial is the worker route of a distributed analysis: it runs
// the map half of the algebra over one uploaded shard and answers with
// the serialized mergeable core.Partial.
func (s *Server) handlePartial(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "use POST (shard upload)", http.StatusMethodNotAllowed)
		return
	}
	if s.rejectIfDraining(w) {
		return
	}
	w, release, ok := s.acquireJob(w)
	if !ok {
		return
	}
	defer release()

	opts, err := optionsFromQuery(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if opts.Stream.Online {
		http.Error(w, "online analysis cannot produce a mergeable partial",
			http.StatusBadRequest)
		return
	}
	spec, err := shardSpecFromQuery(r.URL.Query())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if opts.Parallelism == 0 {
		opts.Parallelism = s.cfg.Parallelism
	}
	opts.StallTimeout = s.cfg.Stall
	opts.Logger = s.cfg.Logger

	ctx := r.Context()
	if s.cfg.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.Deadline)
		defer cancel()
	}
	body := &limitTrackingReader{r: http.MaxBytesReader(w, r.Body, s.cfg.MaxBody)}

	// When the coordinator declared the shard's content digest, the
	// result is cacheable; a hit answers without reading the upload.
	// Requests without ?digest= (or with ?nocache=) bypass the cache.
	if declared := r.URL.Query().Get("digest"); s.cache != nil && declared != "" && !nocacheRequested(r) {
		s.partialCached(w, r, ctx, opts, spec, body, declared)
		return
	}

	start := time.Now()
	p, err := core.MapShardStreamContext(ctx, body, spec, opts)
	if err != nil {
		if body.limit != nil {
			err = body.limit
		}
		s.analyzeError(w, r, "partial-upload", err)
		return
	}
	s.reg.Counter("foldsvc_partials_total",
		"Shard map requests that ran to completion.").Inc()
	s.cfg.Logger.Info("partial done", "app", p.Meta.App, "shard", spec.Index,
		"shards", spec.Count, "bursts", p.Bursts, "kept", len(p.Kept),
		"wall", time.Since(start))

	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(p); err != nil {
		s.cfg.Logger.Debug("response write failed", "err", err)
	}
}

// handleCoordinate is /v1/analyze in coordinator mode: split the upload,
// fan the shards out to the worker ring, reduce the partials locally. A
// worker shard that fails (after retries and one failover) degrades the
// Report with a per-shard warning instead of failing the request; the
// request errors only when no shard survives.
func (s *Server) handleCoordinate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "coordinator mode accepts POST trace uploads only",
			http.StatusMethodNotAllowed)
		return
	}
	if s.rejectIfDraining(w) {
		return
	}
	w, release, ok := s.acquireJob(w)
	if !ok {
		return
	}
	defer release()

	opts, err := optionsFromQuery(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if opts.Stream.Online {
		http.Error(w, "online analysis cannot be distributed; send it to a worker's /v1/analyze",
			http.StatusBadRequest)
		return
	}
	if opts.Parallelism == 0 {
		opts.Parallelism = s.cfg.Parallelism
	}
	opts.Logger = s.cfg.Logger

	ctx := r.Context()
	if s.cfg.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.Deadline)
		defer cancel()
	}

	body := &limitTrackingReader{r: http.MaxBytesReader(w, r.Body, s.cfg.MaxBody)}
	enc, err := io.ReadAll(body)
	if err != nil {
		if body.limit != nil {
			err = body.limit
		}
		s.analyzeError(w, r, "coordinate-upload", err)
		return
	}
	// Full sha256, shared with rescache keys and disk-tier names — ring
	// routing derives its per-shard keys from the same digest instead of
	// an ad-hoc truncated hash.
	digest := trace.DigestBytes(enc)

	if s.cache != nil && !nocacheRequested(r) {
		// Same key shape as the single-node server: sharded reduction is
		// bit-identical to a single-pass analysis for any shard count
		// (locked by TestShardedEquivalence), so the paths may share
		// entries.
		key := rescache.Key("report", digest, opts.Fingerprint())
		data, status, err := s.cache.GetOrCompute(ctx, key, func(cctx context.Context) (rescache.Result, error) {
			data, lost, rerr := s.runCoordinated(cctx, r.URL.Query(), digest, enc, opts)
			if rerr != nil {
				return rescache.Result{}, rerr
			}
			// A report that lost a shard is a nondeterministic degradation
			// of the trace, not a function of the key: serve it, never
			// store it.
			return rescache.Result{Data: data, NoStore: lost}, nil
		})
		if err != nil {
			s.writeCoordError(w, r, err)
			return
		}
		w.Header().Set("Cache-Status", status.String())
		w.Header().Set("Content-Type", "application/json")
		if _, err := w.Write(data); err != nil {
			s.cfg.Logger.Debug("response write failed", "err", err)
		}
		return
	}

	data, _, err := s.runCoordinated(ctx, r.URL.Query(), digest, enc, opts)
	if err != nil {
		s.writeCoordError(w, r, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write(data); err != nil {
		s.cfg.Logger.Debug("response write failed", "err", err)
	}
}

// statusError is an analysis failure that already knows its HTTP
// mapping, so coordinated errors keep their status codes (and rejection
// reasons) when they travel through the cache's singleflight layer.
type statusError struct {
	code   int
	reason string // non-empty: count under foldsvc_rejected_total{reason}
	msg    string
}

// Error implements error.
func (e *statusError) Error() string { return e.msg }

// writeCoordError maps a runCoordinated failure onto the response:
// statusError carries its own code, anything else goes through the
// shared analyzeError mapping.
func (s *Server) writeCoordError(w http.ResponseWriter, r *http.Request, err error) {
	var se *statusError
	if errors.As(err, &se) {
		if se.reason != "" {
			s.reject(w, se.reason, se.msg, se.code)
		} else {
			http.Error(w, se.msg, se.code)
		}
		return
	}
	s.analyzeError(w, r, "coordinate", err)
}

// runCoordinated is the body of a coordinated analysis: decode and
// split the trace locally, fan the shards out to the worker ring,
// reduce the partials, and marshal the Report. It reports whether any
// shard was lost (the result then must not be cached) and returns
// failures as errors — statusError where the plain analyzeError
// mapping would be wrong — so the cached and uncached paths share one
// implementation.
func (s *Server) runCoordinated(ctx context.Context, base url.Values, traceDigest string, enc []byte, opts core.Options) ([]byte, bool, error) {
	// Decode locally: the splitter needs the whole trace. Salvage stats
	// from a lenient decode are the coordinator's, not the workers' (the
	// shards it re-encodes for them are clean by construction).
	var (
		tr  *trace.Trace
		st  trace.DecodeStats
		err error
	)
	if opts.Lenient {
		tr, st, err = trace.ReadFromLenient(bytes.NewReader(enc))
	} else {
		tr, err = trace.ReadFrom(bytes.NewReader(enc))
	}
	if err != nil {
		return nil, false, err
	}
	var valWarn string
	if err := tr.Validate(); err != nil {
		if !opts.Lenient {
			return nil, false, &statusError{code: http.StatusBadRequest, msg: err.Error()}
		}
		valWarn = fmt.Sprintf("trace failed validation (%v); analyzing anyway", err)
	}

	co := s.coord
	shards := core.Split(tr, co.shards, co.mode)
	parts := make([]*core.Partial, len(shards))
	shardWarns := make([]string, len(shards))

	fanStart := time.Now()
	var wg sync.WaitGroup
	for i := range shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			parts[i], shardWarns[i] = co.mapShard(ctx, base, traceDigest, &shards[i])
		}(i)
	}
	wg.Wait()
	co.fanoutSecs.Observe(time.Since(fanStart).Seconds())

	alive := 0
	for _, p := range parts {
		if p != nil {
			alive++
		}
	}
	if alive == 0 {
		return nil, false, &statusError{
			code:   http.StatusBadGateway,
			reason: "all_shards_failed",
			msg:    "every worker shard failed; no partial analysis to reduce",
		}
	}

	redStart := time.Now()
	rep, err := core.Reduce(parts, nil, opts)
	co.reduceSecs.Observe(time.Since(redStart).Seconds())
	if err != nil {
		return nil, false, err
	}
	for _, warn := range shardWarns {
		if warn != "" {
			rep.Warnings = append(rep.Warnings, warn)
			rep.Degraded = true
		}
	}
	if opts.Lenient {
		rep.NoteDecode(st)
	}
	if valWarn != "" {
		rep.Warnings = append([]string{valWarn}, rep.Warnings...)
		rep.Degraded = true
	}
	s.recordReport(rep)
	s.cfg.Logger.Info("coordinated analysis done", "app", rep.App,
		"ranks", rep.Ranks, "shards", len(shards), "failed", len(shards)-alive,
		"bursts", rep.Bursts, "phases", len(rep.Phases), "wall", time.Since(fanStart))

	data, err := json.Marshal(rep)
	if err != nil {
		return nil, false, fmt.Errorf("encode report: %w", err)
	}
	return append(data, '\n'), alive < len(shards), nil
}

// mapShard sends one shard to its ring-assigned worker (with one
// failover to the next distinct backend) and returns the partial, or
// "" != warning describing how the shard was lost. The shard's own
// content digest is declared in the request (?digest=) so the worker
// can serve its cached Partial without re-reading the upload.
func (co *coordinator) mapShard(ctx context.Context, base url.Values, traceDigest string, sh *core.Shard) (*core.Partial, string) {
	var buf bytes.Buffer
	if err := sh.Trace.Write(&buf); err != nil {
		co.shardFailed.Inc()
		return nil, fmt.Sprintf("shard %d/%d could not be encoded: %v",
			sh.Spec.Index, sh.Spec.Count, err)
	}
	q := url.Values{}
	for k, vs := range base {
		if k == "path" {
			continue
		}
		q[k] = vs
	}
	q.Set("shard", strconv.Itoa(sh.Spec.Index))
	q.Set("shards", strconv.Itoa(sh.Spec.Count))
	q.Set("mode", sh.Spec.Mode.String())
	q.Set("resume", map[bool]string{false: "0", true: "1"}[sh.Spec.Resume])
	q.Set("digest", trace.DigestBytes(buf.Bytes()))

	ringKey := traceDigest + ":" + strconv.Itoa(sh.Spec.Index)
	primary := co.ring.pick(ringKey)
	if primary < 0 || co.clients[primary] == nil {
		co.shardFailed.Inc()
		return nil, fmt.Sprintf("shard %d/%d has no usable worker", sh.Spec.Index, sh.Spec.Count)
	}
	p, err := co.clients[primary].Partial(ctx, buf.Bytes(), q)
	if err == nil {
		co.shardOK.Inc()
		return p, ""
	}
	if ctx.Err() == nil {
		if alt := co.ring.next(ringKey, primary); alt >= 0 && co.clients[alt] != nil {
			if p, aerr := co.clients[alt].Partial(ctx, buf.Bytes(), q); aerr == nil {
				co.shardFailover.Inc()
				return p, ""
			}
		}
	}
	co.shardFailed.Inc()
	return nil, fmt.Sprintf("shard %d/%d failed on worker %s: %v; analysis continues without it",
		sh.Spec.Index, sh.Spec.Count, co.workers[primary], err)
}
