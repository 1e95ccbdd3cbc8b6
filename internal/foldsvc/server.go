// Package foldsvc implements the HTTP analysis daemon behind cmd/foldsvc:
// an http.Handler that accepts trace uploads (or ?path= references under
// a configured root), streams them through core.AnalyzeStreamContext with
// per-request knobs mapped from query parameters, and answers with the
// JSON core.Report. The handler carries its own observability — a
// Prometheus-text /metrics registry, pprof endpoints, request
// instrumentation — plus admission control (job semaphore → 429, body
// size limit → 413) and cancellation when the client disconnects.
//
// The package is importable so tests and examples can run the exact
// daemon in-process with httptest; cmd/foldsvc is a thin flag-parsing
// wrapper around NewServer.
package foldsvc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/folding"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/pipeline"
	"repro/internal/rescache"
	"repro/internal/session"
	"repro/internal/trace"
)

// Config collects the daemon's tunables; flags in main populate it and
// tests construct it directly.
type Config struct {
	// MaxBody caps an uploaded trace in bytes; larger uploads get 413.
	MaxBody int64
	// Jobs bounds concurrent analyses; excess requests get 429.
	Jobs int
	// Parallelism is the per-analysis worker bound (core.Options
	// Parallelism default for requests that do not set ?parallel=).
	Parallelism int
	// Deadline bounds each analysis; 0 means no server-side deadline.
	Deadline time.Duration
	// Stall fails an analysis whose pipeline makes no progress for this
	// long (an upload that went quiet without disconnecting); 0 disables
	// the watchdog. Stalled requests are answered 408 and counted under
	// foldsvc_rejected_total{reason="stalled"}.
	Stall time.Duration
	// PathRoot, when non-empty, enables ?path= requests for trace files
	// under this directory; "" disables local-path analysis entirely.
	PathRoot string
	// CacheMaxBytes sizes the in-memory result cache: 0 selects the
	// 256 MiB default (the cache is on by default — traces are immutable
	// and the pipeline deterministic, so cached entries never go stale);
	// negative disables caching entirely.
	CacheMaxBytes int64
	// CacheDir, when non-empty, adds a persistent cache tier under this
	// directory (atomic-rename writes, digest-named files) so warm
	// results survive daemon restarts.
	CacheDir string
	// SessionDir, when non-empty, journals live-session appends under
	// this directory (one subdirectory per session, atomic-rename
	// segments) and replays them at startup, so sessions survive a crash
	// or restart. "" keeps sessions memory-only.
	SessionDir string
	// SessionTTL evicts sessions with no appends for this long
	// (default 15m).
	SessionTTL time.Duration
	// SessionMaxBytes caps one session's appended bytes (default 64 MiB);
	// exceeding it answers 429 with Retry-After.
	SessionMaxBytes int64
	// SessionsMaxBytes caps appended bytes across all live sessions
	// (default 256 MiB).
	SessionsMaxBytes int64
	// MaxSessions caps concurrently live sessions (default 64).
	MaxSessions int
	// SessionRing is the per-session snapshot retention — the resume
	// window for SSE consumers reconnecting with Last-Event-ID
	// (default 64).
	SessionRing int
	// SessionHeartbeat is the SSE keepalive interval (default 15s); the
	// per-write deadline is twice this.
	SessionHeartbeat time.Duration
	// Logger receives the daemon's structured log stream.
	Logger *slog.Logger

	// Workers, when non-empty, puts the daemon in coordinator mode: an
	// upload to /v1/analyze is split into shards, fanned out to these
	// worker daemons' /v1/partial routes (consistent-hash routed on the
	// trace digest, one failover, per-backend circuit breakers), and the
	// partials are reduced locally into the Report. A failed shard
	// degrades the Report with per-shard warnings instead of failing the
	// request; only all shards failing is an error.
	Workers []string
	// Shards is the shard count for coordinated analyses; 0 defaults to
	// len(Workers).
	Shards int
	// ShardMode selects how coordinated uploads are split (default
	// core.ShardTime).
	ShardMode core.ShardMode
	// WorkerClient seeds the per-backend client configuration (BaseURL is
	// overridden per worker; Registry defaults to the server's own).
	WorkerClient ClientConfig
}

// Server is the analysis daemon: an http.Handler serving trace analysis,
// metrics, health and profiling endpoints.
type Server struct {
	cfg   Config
	reg   *obs.Registry
	mux   *http.ServeMux
	sem   chan struct{}
	start time.Time

	inflight  *obs.Gauge
	cancelled *obs.Counter
	panics    *obs.Counter
	draining  *obs.Gauge
	drain     atomic.Bool

	cache    *rescache.Cache  // nil when Config.CacheMaxBytes < 0
	coord    *coordinator     // nil unless Config.Workers is set
	sessions *session.Manager // live analysis sessions
}

// NewServer wires the daemon's routes and metric families.
func NewServer(cfg Config) *Server {
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = 256 << 20
	}
	if cfg.Jobs <= 0 {
		cfg.Jobs = runtime.GOMAXPROCS(0)
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.Discard()
	}
	s := &Server{
		cfg:   cfg,
		reg:   obs.NewRegistry(),
		mux:   http.NewServeMux(),
		sem:   make(chan struct{}, cfg.Jobs),
		start: time.Now(),
	}

	if cfg.CacheMaxBytes >= 0 {
		max := cfg.CacheMaxBytes
		if max == 0 {
			max = 256 << 20
		}
		s.cache = rescache.New(rescache.Config{
			MaxBytes:  max,
			Dir:       cfg.CacheDir,
			Registry:  s.reg,
			Namespace: "foldsvc",
		})
	}

	s.inflight = s.reg.Gauge("foldsvc_inflight_jobs",
		"Analyses currently running.")
	s.draining = s.reg.Gauge("foldsvc_draining",
		"1 while the daemon is draining for shutdown (admission routes answer 503).")
	s.cancelled = s.reg.Counter("foldsvc_cancelled_total",
		"Analyses abandoned because the client disconnected or the deadline expired.")
	s.panics = s.reg.Counter("foldsvc_panics_total",
		"Requests that panicked and were recovered.")
	s.reg.GaugeFunc("foldsvc_uptime_seconds",
		"Seconds since the daemon started.", nil,
		func() float64 { return time.Since(s.start).Seconds() })
	s.reg.GaugeFunc("foldsvc_job_capacity",
		"Maximum concurrent analyses before 429 backpressure.", nil,
		func() float64 { return float64(cfg.Jobs) })
	s.reg.GaugeFunc("go_goroutines",
		"Live goroutine count.", nil,
		func() float64 { return float64(runtime.NumGoroutine()) })
	// The scratch-slice pools are cumulative counters semantically, but
	// they are sampled through callbacks, so they render as gauges. The
	// type set is discovered from the pools themselves (sorted for a
	// stable registration order), so new arenas — like the columnar block
	// pools — show up without touching this list. gets − puts is the
	// current checkout occupancy; a growing gap means leaked arenas.
	poolTypes := make([]string, 0, len(parallel.Pools()))
	for typ := range parallel.Pools() {
		poolTypes = append(poolTypes, typ)
	}
	sort.Strings(poolTypes)
	for _, typ := range poolTypes {
		typ := typ
		s.reg.GaugeFunc("parallel_pool_gets",
			"Cumulative scratch-slice checkouts from internal/parallel pools.",
			obs.L("type", typ),
			func() float64 { return float64(parallel.Pools()[typ].Gets) })
		s.reg.GaugeFunc("parallel_pool_puts",
			"Cumulative scratch-slice returns to internal/parallel pools.",
			obs.L("type", typ),
			func() float64 { return float64(parallel.Pools()[typ].Puts) })
		s.reg.GaugeFunc("parallel_pool_misses",
			"Scratch-slice checkouts that had to allocate (pool miss).",
			obs.L("type", typ),
			func() float64 { return float64(parallel.Pools()[typ].Misses) })
	}

	if len(cfg.Workers) > 0 {
		s.coord = newCoordinator(s)
		s.mux.Handle("/v1/analyze", s.instrument("/v1/analyze", s.handleCoordinate))
	} else {
		s.mux.Handle("/v1/analyze", s.instrument("/v1/analyze", s.handleAnalyze))
	}
	s.mux.Handle("/v1/diff", s.instrument("/v1/diff", s.handleDiff))
	s.mux.Handle("/v1/partial", s.instrument("/v1/partial", s.handlePartial))
	mgr, err := s.newSessionManager()
	if err != nil {
		// A broken journal directory should not take the whole daemon
		// down: fall back to memory-only sessions and say so.
		s.cfg.Logger.Error("session journaling disabled", "dir", cfg.SessionDir, "err", err)
		memCfg := s.cfg
		memCfg.SessionDir = ""
		s.cfg = memCfg
		mgr, err = s.newSessionManager()
		if err != nil {
			panic("foldsvc: memory-only session manager: " + err.Error())
		}
	}
	s.sessions = mgr
	s.mux.Handle("/v1/session", s.instrument("/v1/session", s.handleSessionOpen))
	s.mux.Handle("/v1/session/", s.instrument("/v1/session/", s.handleSession))
	s.mux.Handle("/healthz", s.instrument("/healthz", s.handleHealthz))
	s.mux.Handle("/metrics", s.reg.Handler())
	obs.RegisterPprof(s.mux)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Capacity reports the resolved concurrent-analysis bound (the Jobs
// Config field after defaulting).
func (s *Server) Capacity() int {
	return cap(s.sem)
}

// statusWriter captures the response code for the request metrics.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (sw *statusWriter) WriteHeader(code int) {
	sw.code = code
	sw.ResponseWriter.WriteHeader(code)
}

// Unwrap lets http.NewResponseController reach the underlying
// connection's Flusher and write deadlines through this wrapper — the
// SSE session stream needs both.
func (sw *statusWriter) Unwrap() http.ResponseWriter {
	return sw.ResponseWriter
}

// instrument wraps a handler with panic recovery, request counting and
// a latency histogram, labeled by the route pattern (never the raw URL,
// to keep label cardinality bounded).
func (s *Server) instrument(route string, h http.HandlerFunc) http.Handler {
	seconds := s.reg.Histogram("foldsvc_request_seconds",
		"Request latency in seconds.", nil, obs.Label{Name: "path", Value: route})
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		defer func() {
			if v := recover(); v != nil {
				s.panics.Inc()
				s.cfg.Logger.Error("request panic", "path", route, "panic", v)
				http.Error(sw, "internal error", http.StatusInternalServerError)
			}
			seconds.Observe(time.Since(start).Seconds())
			s.reg.Counter("foldsvc_requests_total",
				"Requests served, by route and status code.",
				obs.Label{Name: "path", Value: route},
				obs.Label{Name: "code", Value: strconv.Itoa(sw.code)}).Inc()
		}()
		h(sw, r)
	})
}

// handleHealthz reports liveness.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleAnalyze runs one analysis request: the trace comes from the
// request body (or a ?path= file under the configured root), the
// analysis knobs from query parameters, and the response is the JSON
// core.Report.
func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost && r.Method != http.MethodGet {
		http.Error(w, "use POST (trace upload) or GET with ?path=", http.StatusMethodNotAllowed)
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
	input := io.Reader(body)
	src := "upload"
	if p := r.URL.Query().Get("path"); p != "" {
		f, status, err := s.openLocal(p)
		if err != nil {
			http.Error(w, err.Error(), status)
			return
		}
		defer f.Close()
		input = f
		src = p
	} else if r.Method == http.MethodGet {
		http.Error(w, "GET requires ?path=; upload traces with POST", http.StatusBadRequest)
		return
	}

	if s.cache != nil && !nocacheRequested(r) {
		s.analyzeCached(w, r, ctx, opts, body, input, src)
		return
	}

	start := time.Now()
	rep, err := core.AnalyzeStreamContext(ctx, input, opts)
	if err != nil {
		// Decode errors wrap the underlying read failure as text only,
		// so a tripped upload limit must be recovered from the reader.
		if body.limit != nil {
			err = body.limit
		}
		s.analyzeError(w, r, src, err)
		return
	}
	s.recordReport(rep)
	s.cfg.Logger.Info("analysis done", "source", src, "app", rep.App,
		"ranks", rep.Ranks, "bursts", rep.Bursts, "phases", len(rep.Phases),
		"online", rep.Online, "wall", time.Since(start))

	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	if err := enc.Encode(rep); err != nil {
		// The report was computed; a failed write means the client left.
		s.cfg.Logger.Debug("response write failed", "err", err)
	}
}

// acquireJob takes one of the Config.Jobs analysis slots for a request.
// Backpressure is a bounded job semaphore instead of an unbounded
// goroutine pile: when every slot is busy it answers 429 with
// Retry-After (the caller should retry, not queue) and reports false.
//
// The slot and the foldsvc_inflight_jobs gauge are held while the
// handler computes and given back by the first WriteHeader or Write
// through the returned writer, before any response byte leaves: a
// client that has its answer never finds its own finished job still
// holding the slot. release covers the paths that write nothing; it is
// idempotent, so handlers defer it.
func (s *Server) acquireJob(w http.ResponseWriter) (http.ResponseWriter, func(), bool) {
	select {
	case s.sem <- struct{}{}:
	default:
		w.Header().Set("Retry-After", "1")
		s.reject(w, "capacity", "analysis capacity exhausted, retry later",
			http.StatusTooManyRequests)
		return w, nil, false
	}
	s.inflight.Inc()
	jw := &jobWriter{ResponseWriter: w, s: s, held: true}
	return jw, jw.release, true
}

// jobWriter is the response writer of a request holding a job slot; it
// releases the slot before the response starts.
type jobWriter struct {
	http.ResponseWriter
	s    *Server
	held bool
}

// release gives the job slot back, once.
func (jw *jobWriter) release() {
	if jw.held {
		jw.held = false
		jw.s.inflight.Dec()
		<-jw.s.sem
	}
}

func (jw *jobWriter) WriteHeader(code int) {
	jw.release()
	jw.ResponseWriter.WriteHeader(code)
}

func (jw *jobWriter) Write(p []byte) (int, error) {
	jw.release()
	return jw.ResponseWriter.Write(p)
}

// Unwrap exposes the underlying writer to http.NewResponseController.
func (jw *jobWriter) Unwrap() http.ResponseWriter {
	return jw.ResponseWriter
}

// limitTrackingReader remembers whether the wrapped http.MaxBytesReader
// tripped its limit, since decode layers may flatten the error chain.
type limitTrackingReader struct {
	r     io.Reader
	limit *http.MaxBytesError
}

func (lt *limitTrackingReader) Read(p []byte) (int, error) {
	n, err := lt.r.Read(p)
	if err != nil && lt.limit == nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			lt.limit = tooBig
		}
	}
	return n, err
}

// reject writes an error response and counts it under
// foldsvc_rejected_total{reason}.
func (s *Server) reject(w http.ResponseWriter, reason, msg string, code int) {
	s.reg.Counter("foldsvc_rejected_total",
		"Requests rejected before analysis, by reason.",
		obs.Label{Name: "reason", Value: reason}).Inc()
	http.Error(w, msg, code)
}

// analyzeError maps an analysis failure to a status code and metrics.
func (s *Server) analyzeError(w http.ResponseWriter, r *http.Request, src string, err error) {
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		s.reject(w, "body_too_large",
			fmt.Sprintf("trace exceeds the %d-byte upload limit", tooBig.Limit),
			http.StatusRequestEntityTooLarge)
	case errors.Is(err, context.Canceled):
		// The client is gone; the status code is for the metrics only
		// (499 is the de-facto "client closed request" code).
		s.cancelled.Inc()
		s.cfg.Logger.Info("analysis cancelled", "source", src, "err", err)
		w.WriteHeader(499)
	case errors.Is(err, context.DeadlineExceeded):
		s.cancelled.Inc()
		s.reject(w, "deadline", "analysis deadline exceeded", http.StatusGatewayTimeout)
	case errors.Is(err, pipeline.ErrStalled):
		s.cancelled.Inc()
		s.reject(w, "stalled", err.Error(), http.StatusRequestTimeout)
	case errors.Is(err, trace.ErrBadFormat):
		http.Error(w, err.Error(), http.StatusBadRequest)
	default:
		s.cfg.Logger.Error("analysis failed", "source", src, "err", err)
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// recordReport folds a finished analysis into the throughput metrics.
func (s *Server) recordReport(rep *core.Report) {
	rec := func(kind string, n int64) {
		s.reg.Counter("foldsvc_analyze_records_total",
			"Trace records consumed by finished analyses, by kind.",
			obs.Label{Name: "kind", Value: kind}).Add(float64(n))
	}
	rec("event", rep.Records.Events)
	rec("sample", rep.Records.Samples)
	rec("comm", rep.Records.Comms)
	s.reg.Counter("foldsvc_analyze_bursts_total",
		"Bursts extracted by finished analyses, by filter disposition.",
		obs.Label{Name: "disposition", Value: "kept"}).Add(float64(rep.Bursts - rep.Filtered))
	s.reg.Counter("foldsvc_analyze_bursts_total",
		"Bursts extracted by finished analyses, by filter disposition.",
		obs.Label{Name: "disposition", Value: "filtered"}).Add(float64(rep.Filtered))
	s.reg.Counter("foldsvc_analyze_clusters_total",
		"Clusters (detected phases) across finished analyses.").Add(float64(rep.Clustering.K))
	s.reg.Counter("foldsvc_analyze_requests_total",
		"Analyses that ran to completion.").Inc()
	if rep.Degraded {
		s.reg.Counter("foldsvc_analyze_degraded_total",
			"Analyses that completed degraded (salvage decoding, clustering fallback, or tolerated faults).").Inc()
	}
}

// openLocal resolves a ?path= request against the configured root,
// refusing traversal outside it.
func (s *Server) openLocal(p string) (*os.File, int, error) {
	if s.cfg.PathRoot == "" {
		return nil, http.StatusForbidden,
			errors.New("local-path analysis is disabled (start foldsvc with -path-root)")
	}
	full := filepath.Join(s.cfg.PathRoot, filepath.Clean("/"+p))
	f, err := os.Open(full)
	if err != nil {
		return nil, http.StatusNotFound, fmt.Errorf("open %s: %w", p, err)
	}
	return f, 0, nil
}

// optionsFromQuery maps the /v1/analyze query parameters onto
// core.Options — the same knobs the fold CLI exposes as flags.
//
//	online=1 train=N parallel=N phases=N bins=N model=binned+pchip
//	counter=PAPI_TOT_INS[,...] knn=auto|brute|kdtree sil_sample=N
//	min_burst_us=N lenient=1 columnar=0|1
func optionsFromQuery(r *http.Request) (core.Options, error) {
	return optionsFromValues(r.URL.Query())
}

// optionsFromValues is optionsFromQuery over bare query values — the
// form session open (and journal recovery, replaying a persisted query)
// uses.
func optionsFromValues(q url.Values) (core.Options, error) {
	var opts core.Options

	geti := func(name string) (int, bool, error) {
		v := q.Get(name)
		if v == "" {
			return 0, false, nil
		}
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return 0, false, fmt.Errorf("bad %s=%q: want a non-negative integer", name, v)
		}
		return n, true, nil
	}

	for name, dst := range map[string]*int{
		"train":      &opts.Stream.TrainBursts,
		"parallel":   &opts.Parallelism,
		"phases":     &opts.MaxPhases,
		"bins":       &opts.Fold.Bins,
		"sil_sample": &opts.Cluster.SilhouetteSample,
		"stack_bins": &opts.StackBins,
		"min_pts":    &opts.Cluster.MinPts,
	} {
		n, ok, err := geti(name)
		if err != nil {
			return opts, err
		}
		if ok {
			*dst = n
		}
	}
	if n, ok, err := geti("min_burst_us"); err != nil {
		return opts, err
	} else if ok {
		opts.MinBurstDuration = trace.Time(n) * 1000
	}
	if v := q.Get("online"); v != "" {
		on, err := strconv.ParseBool(v)
		if err != nil {
			return opts, fmt.Errorf("bad online=%q: want a boolean", v)
		}
		opts.Stream.Online = on
	}
	if v := q.Get("lenient"); v != "" {
		on, err := strconv.ParseBool(v)
		if err != nil {
			return opts, fmt.Errorf("bad lenient=%q: want a boolean", v)
		}
		opts.Lenient = on
	}
	if v := q.Get("columnar"); v != "" {
		on, err := strconv.ParseBool(v)
		if err != nil {
			return opts, fmt.Errorf("bad columnar=%q: want a boolean", v)
		}
		if on {
			opts.Columnar = core.PathColumnar
		} else {
			opts.Columnar = core.PathRow
		}
	}
	if v := q.Get("knn"); v != "" {
		mode, err := cluster.ParseIndexMode(v)
		if err != nil {
			return opts, err
		}
		opts.Cluster.Index = mode
	}
	switch v := q.Get("model"); v {
	case "", "binned+pchip":
		opts.Fold.Model = folding.ModelBinnedPCHIP
	case "kernel":
		opts.Fold.Model = folding.ModelKernel
	case "binned":
		opts.Fold.Model = folding.ModelBinned
	default:
		return opts, fmt.Errorf("bad model=%q: want binned+pchip, kernel or binned", v)
	}
	if v := q.Get("counter"); v != "" {
		for _, name := range strings.Split(v, ",") {
			c, err := counters.ParseCounter(strings.TrimSpace(name))
			if err != nil {
				return opts, err
			}
			opts.Counters = append(opts.Counters, c)
		}
	}
	return opts, nil
}
