// Command foldsvc is the long-running analysis daemon: it serves the
// same trace analysis the fold CLI runs, over HTTP, with observability
// built in — Prometheus-text metrics, structured logs, pprof, request
// deadlines and graceful shutdown.
//
// Endpoints:
//
//	POST /v1/analyze    analyze an uploaded trace stream; the response is
//	                    the JSON core.Report. Query parameters map the
//	                    CLI knobs: online, train, parallel, phases, bins,
//	                    model, counter, sil_sample, stack_bins,
//	                    min_pts, min_burst_us, lenient. With
//	                    ?path=rel/trace.uvt (and -path-root set) the
//	                    trace is read from a local file instead of the
//	                    body. ?lenient=1 salvages damaged uploads and
//	                    returns a Degraded report instead of a 400.
//	                    Results are cached content-addressed (trace
//	                    digest + analysis options); the Cache-Status
//	                    response header says hit, miss or coalesced, and
//	                    ?nocache=1 bypasses the cache for one request.
//	POST /v1/partial    worker half of a distributed analysis: map one
//	                    time shard (?shard=i&shards=n) of the uploaded
//	                    trace to a mergeable JSON core.Partial.
//	POST /v1/session    open a live analysis session (same query knobs as
//	                    /v1/analyze, fixed for the session's life); the
//	                    response carries the session id. With -session-dir
//	                    every append is write-ahead journaled and sessions
//	                    survive a daemon crash or restart.
//	POST /v1/session/{id}/append
//	                    stream one trace chunk into the session (?seq=N
//	                    makes retries idempotent); acknowledged only after
//	                    the journal write.
//	GET  /v1/session/{id}/events
//	                    SSE stream of evolving Report snapshots with
//	                    monotonic event ids; reconnect with Last-Event-ID
//	                    to resume without duplicates or gaps.
//	GET  /v1/session/{id}
//	                    JSON session status.
//	GET  /metrics       Prometheus text exposition
//	GET  /healthz       liveness probe
//	GET  /debug/pprof/  runtime profiling
//
// With -workers the daemon becomes a coordinator: /v1/analyze splits
// each upload into -shards shards, fans them out to the worker daemons'
// /v1/partial routes (consistent-hash routing on the trace digest, one
// failover per shard, circuit breaker per worker), reduces the partials
// locally, and answers with the same JSON core.Report — degraded with
// per-shard warnings when a shard is lost, never a whole-request 500:
//
//	foldsvc -addr :9001 & foldsvc -addr :9002 &
//	foldsvc -addr :8080 -workers http://localhost:9001,http://localhost:9002
//
// A typical session:
//
//	foldsvc -addr :8080 &
//	tracegen -app stencil -o - | curl -sS --data-binary @- \
//	    'http://localhost:8080/v1/analyze?online=1' | jq .Clustering.K
//
// Caching: the daemon keeps a content-addressed result cache
// (-cache-max-bytes in memory, optionally persisted under -cache-dir so
// warm results survive restarts). Traces are immutable and the pipeline
// deterministic, so entries never expire; concurrent identical uploads
// coalesce onto a single analysis.
//
// Robustness: uploads beyond -max-body get 413; more than -jobs
// concurrent analyses get 429 with Retry-After; every request is
// panic-recovered; a cancelled client stops the analysis pipeline
// mid-stream; a request past -deadline, upload included, gets 504; an
// upload that sends nothing for -stall without disconnecting gets 408
// (its blocked read times out, so analysis time never counts);
// SIGINT/SIGTERM drain in-flight requests for up to -drain before the
// process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/foldsvc"
	"repro/internal/obs"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		jobs     = flag.Int("jobs", 0, "max concurrent analyses before 429 backpressure (0 = GOMAXPROCS)")
		par      = flag.Int("parallel", 0, "default per-analysis worker count (0 = all cores); requests override with ?parallel=")
		maxBody  = flag.Int64("max-body", 256<<20, "max uploaded trace size in bytes (413 beyond)")
		deadline = flag.Duration("deadline", 0, "per-request deadline, upload included (504; 0 = none)")
		stall    = flag.Duration("stall", 0, "answer 408 to an upload that sends nothing for this long (0 = no limit)")
		drain    = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain budget for in-flight requests")
		pathRoot = flag.String("path-root", "", "directory ?path= trace references resolve under (empty disables local-path analysis)")
		cacheMax = flag.Int64("cache-max-bytes", 256<<20, "in-memory result-cache budget in bytes (0 disables caching)")
		cacheDir = flag.String("cache-dir", "", "directory for the persistent result-cache tier (empty = memory only)")
		logLevel = flag.String("log-level", "info", "log level: debug, info, warn, error")
		logJSON  = flag.Bool("log-json", false, "log JSON instead of text")
		workers  = flag.String("workers", "", "comma-separated worker base URLs; non-empty switches /v1/analyze into coordinator mode (fan out shards, reduce locally)")
		shards   = flag.Int("shards", 0, "time shards per coordinated analysis (0 = one per worker)")
		sessDir  = flag.String("session-dir", "", "directory for live-session write-ahead journals (empty = sessions are memory-only and die with the process)")
		sessTTL  = flag.Duration("session-ttl", 15*time.Minute, "evict live sessions with no appends for this long")
		sessMax  = flag.Int64("session-max-bytes", 64<<20, "per-session appended-byte budget (429 beyond)")
		sessTot  = flag.Int64("sessions-max-bytes", 256<<20, "appended-byte budget across all live sessions (429 beyond)")
		sessHB   = flag.Duration("session-heartbeat", 15*time.Second, "SSE keepalive interval for /v1/session/{id}/events")
	)
	flag.Parse()

	var workerURLs []string
	if *workers != "" {
		for _, w := range strings.Split(*workers, ",") {
			if w = strings.TrimSpace(w); w != "" {
				workerURLs = append(workerURLs, w)
			}
		}
	}

	cacheBytes := *cacheMax
	if cacheBytes == 0 {
		// The flag's 0 means "no cache"; the Config field's 0 means "use
		// the default budget", so translate.
		cacheBytes = -1
	}

	logger := obs.NewLogger(os.Stderr, obs.ParseLevel(*logLevel), *logJSON)
	srv := foldsvc.NewServer(foldsvc.Config{
		MaxBody:       *maxBody,
		Jobs:          *jobs,
		Parallelism:   *par,
		Deadline:      *deadline,
		Stall:         *stall,
		PathRoot:      *pathRoot,
		CacheMaxBytes: cacheBytes,
		CacheDir:      *cacheDir,
		Logger:        logger,
		Workers:       workerURLs,
		Shards:        *shards,

		SessionDir:       *sessDir,
		SessionTTL:       *sessTTL,
		SessionMaxBytes:  *sessMax,
		SessionsMaxBytes: *sessTot,
		SessionHeartbeat: *sessHB,
	})

	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	logger.Info("foldsvc listening", "addr", *addr, "jobs", srv.Capacity(),
		"max_body", *maxBody, "deadline", *deadline)

	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}

	// Graceful drain: flip into drain mode first — admission routes
	// answer 503 + Retry-After, live sessions flush their journals and
	// send a final "end" event to SSE subscribers — then let in-flight
	// requests finish within the drain budget and cut the remainder
	// loose.
	logger.Info("shutting down", "drain", *drain)
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	srv.StartDrain(dctx)
	if err := hs.Shutdown(dctx); err != nil {
		logger.Warn("drain budget exceeded, closing", "err", err)
		hs.Close()
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	logger.Info("foldsvc stopped")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "foldsvc:", err)
	os.Exit(1)
}
