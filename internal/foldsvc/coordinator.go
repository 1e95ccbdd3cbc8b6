package foldsvc

import (
	"bytes"
	"context"
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
// (shard, shards); absent parameters mean the whole-trace identity
// shard.
func shardSpecFromQuery(q url.Values) (core.ShardSpec, error) {
	spec := core.WholeSpec()
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
	w, ctx, opts, done, ok := s.admit(w, r, nil)
	if !ok {
		return
	}
	defer done()

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
	body := s.upload(w, ctx, http.MaxBytesReader(w, r.Body, s.cfg.MaxBody))

	// When the coordinator declared the shard's content digest
	// (?digest=) and the request caches, the partial is keyed, and a hit
	// answers without reading the upload: after a worker died
	// mid-fan-out, the re-upload only recomputes the lost shard. Only
	// then is a computed shard hashed, and one whose bytes do not match
	// the declared digest is served but never stored, so a mislabeled
	// upload cannot poison the key.
	key, declared := "", r.URL.Query().Get("digest")
	if declared != "" && s.caches(r) {
		key = rescache.Key("partial", declared,
			strconv.Itoa(spec.Count), strconv.Itoa(spec.Index), opts.Fingerprint())
	}
	data, status, err := s.cached(ctx, r, key, func(cctx context.Context) (rescache.Result, error) {
		rd, dr := io.Reader(body), (*trace.DigestReader)(nil)
		if key != "" {
			dr = trace.NewDigestReader(body)
			rd = dr
		}
		start := time.Now()
		p, err := core.MapShardStreamContext(cctx, rd, spec, opts)
		if err != nil {
			return rescache.Result{}, err
		}
		mislabeled := false
		if dr != nil {
			// The digest must cover every uploaded byte before it is
			// compared.
			if _, err := io.Copy(io.Discard, dr); err != nil {
				return rescache.Result{}, err
			}
			mislabeled = dr.Sum() != declared
		}
		body.drain()
		s.reg.Counter("foldsvc_partials_total",
			"Shard map requests that ran to completion.").Inc()
		s.cfg.Logger.Info("partial done", "app", p.Meta.App, "shard", spec.Index,
			"shards", spec.Count, "bursts", p.Bursts, "kept", len(p.Kept),
			"wall", time.Since(start))
		return jsonBody("partial", p, mislabeled)
	})
	if err != nil {
		s.analyzeError(w, r, "partial-upload", body.failure(err))
		return
	}
	if status != "" {
		w.Header().Set("Cache-Status", status)
	}
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write(data); err != nil {
		s.cfg.Logger.Debug("response write failed", "err", err)
	}
}

// msgOnlineCoordinated is a coordinator's 400 to an online analysis of
// an upload: it classifies on arrival, so no shard can run apart from
// the rest.
const msgOnlineCoordinated = "online analysis cannot be distributed; send it to a worker's /v1/analyze"

// errAllShardsFailed is a coordinated analysis that lost every shard.
var errAllShardsFailed = errors.New("every worker shard failed; no partial analysis to reduce")

// runCoordinated is the body of a coordinated analysis: decode and
// split the trace rd locally, fan the shards out to the worker ring
// (routed on traceDigest), reduce the partials, and marshal the Report.
// A shard that fails after retries and one failover degrades the
// Report with a per-shard warning; such a report is a nondeterministic
// degradation of the trace, not a function of its bytes and options, so
// it is served but never stored (NoStore). Only when no shard survives
// does the analysis fail, with errAllShardsFailed.
func (s *Server) runCoordinated(ctx context.Context, base url.Values, traceDigest string, rd io.Reader, opts core.Options) (rescache.Result, error) {
	// Decode locally: the splitter needs the whole trace. Salvage stats
	// from a lenient decode are the coordinator's, not the workers' (the
	// shards it re-encodes for them are clean by construction).
	var (
		tr  *trace.Trace
		st  trace.DecodeStats
		err error
	)
	if opts.Lenient {
		tr, st, err = trace.ReadFromLenient(rd)
	} else {
		tr, err = trace.ReadFrom(rd)
	}
	if err != nil {
		return rescache.Result{}, err
	}
	// No shard of a split sees the whole trace, so the coordinator checks
	// the decoded upload, as a single daemon's whole-trace run would. A
	// trace without a rank cannot be analyzed even leniently. A one-shard
	// split is a whole-trace run on its worker, whose partial carries
	// the lenient warning itself.
	co := s.coord
	var valWarn string
	if err := tr.Validate(); err != nil {
		if !opts.Lenient || tr.Meta.Validate() != nil {
			return rescache.Result{}, err
		}
		if co.shards > 1 {
			valWarn = core.ValidationWarning(err)
		}
	}

	shards := core.Split(tr, co.shards)
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
		return rescache.Result{}, errAllShardsFailed
	}

	redStart := time.Now()
	rep, err := core.Reduce(parts, nil, opts)
	co.reduceSecs.Observe(time.Since(redStart).Seconds())
	if err != nil {
		return rescache.Result{}, err
	}
	for _, warn := range shardWarns {
		if warn != "" {
			rep.Warnings = append(rep.Warnings, warn)
			rep.Degraded = true
		}
	}
	// The validation warning goes first, and the decode warnings NoteDecode
	// puts ahead of it, in the order of a single daemon's report.
	if valWarn != "" {
		rep.Warnings = append([]string{valWarn}, rep.Warnings...)
		rep.Degraded = true
	}
	if opts.Lenient {
		rep.NoteDecode(st)
	}
	s.recordReport(rep)
	s.cfg.Logger.Info("coordinated analysis done", "app", rep.App,
		"ranks", rep.Ranks, "shards", len(shards), "failed", len(shards)-alive,
		"bursts", rep.Bursts, "phases", len(rep.Phases), "wall", time.Since(fanStart))

	return jsonBody("report", rep, alive < len(shards))
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
