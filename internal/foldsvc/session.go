package foldsvc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/session"
	"repro/internal/trace"
)

// Live sessions: a client opens a session, streams trace chunks in with
// appends (journaled before acknowledgement when SessionDir is set) and
// watches the evolving core.Report over a resumable SSE stream. The
// handlers here are thin adapters over internal/session; all the
// durability, budgeting and coalescing policy lives there.

// newSessionManager wires the session manager with the server's option
// parsing, logger and metric families. The metric names are registered
// here, as literals, so the docs gate holds them to the same standard as
// the rest of the daemon's families.
func (s *Server) newSessionManager() (*session.Manager, error) {
	metrics := session.Metrics{
		Active: s.reg.Gauge("foldsvc_sessions_active",
			"Live analysis sessions."),
		Bytes: s.reg.Gauge("foldsvc_session_bytes",
			"Appended bytes held across live sessions."),
		Appends: s.reg.Counter("foldsvc_session_appends_total",
			"Session appends accepted (journaled when journaling is on)."),
		Snapshots: s.reg.Counter("foldsvc_session_snapshots_total",
			"Report snapshots published to session subscribers."),
		SnapshotsDropped: s.reg.Counter("foldsvc_session_snapshots_dropped_total",
			"Snapshots coalesced away because a subscriber fell behind."),
		Evicted: s.reg.Counter("foldsvc_session_evicted_total",
			"Sessions evicted after their idle TTL."),
		Recovered: s.reg.Counter("foldsvc_session_recovered_total",
			"Sessions rebuilt from write-ahead journals at startup."),
		Fsync: s.reg.Histogram("foldsvc_session_journal_fsync_seconds",
			"Journal segment fsync latency in seconds.",
			[]float64{.0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1}),
	}
	cfg := s.cfg
	return session.NewManager(session.Config{
		Dir:             cfg.SessionDir,
		TTL:             cfg.SessionTTL,
		MaxSessionBytes: cfg.SessionMaxBytes,
		MaxTotalBytes:   cfg.SessionsMaxBytes,
		MaxSessions:     cfg.MaxSessions,
		Ring:            cfg.SessionRing,
		Options: func(q url.Values) (core.Options, error) {
			opts, err := optionsFromValues(q)
			if err != nil {
				return opts, err
			}
			if opts.Parallelism == 0 {
				opts.Parallelism = cfg.Parallelism
			}
			opts.Logger = cfg.Logger
			return opts, nil
		},
		Logger:  cfg.Logger,
		Metrics: metrics,
	})
}

// StartDrain flips the daemon into drain mode: admission-controlled
// routes answer 503 with a Retry-After, the foldsvc_draining gauge goes
// to 1, and every live session ends with a final "end" SSE event while
// its journal stays on disk for the next start. Idempotent; ctx bounds
// the wait for in-flight session analyses.
func (s *Server) StartDrain(ctx context.Context) {
	if !s.drain.CompareAndSwap(false, true) {
		return
	}
	s.draining.Set(1)
	s.cfg.Logger.Info("drain started")
	s.sessions.Close(ctx)
}

// rejectIfDraining answers 503 + Retry-After on a draining daemon.
func (s *Server) rejectIfDraining(w http.ResponseWriter) bool {
	if !s.drain.Load() {
		return false
	}
	w.Header().Set("Retry-After", "5")
	s.reject(w, "draining", "daemon is draining for shutdown, retry later", http.StatusServiceUnavailable)
	return true
}

// Sessions exposes the manager (status endpoints, tests).
func (s *Server) Sessions() *session.Manager { return s.sessions }

// handleSessionOpen opens a live session. The query carries the same
// analysis knobs as /v1/analyze; they are fixed for the session's life
// and fingerprinted exactly like cache keys.
func (s *Server) handleSessionOpen(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "use POST to open a session", http.StatusMethodNotAllowed)
		return
	}
	if s.rejectIfDraining(w) {
		return
	}
	sess, err := s.sessions.Open(r.URL.Query())
	switch {
	case err == nil:
	case errors.Is(err, session.ErrTooManySessions):
		w.Header().Set("Retry-After", "5")
		s.reject(w, "session_budget", err.Error(), http.StatusTooManyRequests)
		return
	case errors.Is(err, session.ErrClosed):
		w.Header().Set("Retry-After", "5")
		s.reject(w, "draining", err.Error(), http.StatusServiceUnavailable)
		return
	default:
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.cfg.Logger.Info("session opened", "session", sess.ID)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		ID          string
		Fingerprint string
	}{sess.ID, sess.Fingerprint})
}

// handleSession dispatches /v1/session/{id}[/append|/events].
func (s *Server) handleSession(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/session/")
	id, action, _ := strings.Cut(rest, "/")
	// Reject appends before the lookup: on a draining daemon the
	// session map is already empty, and a retrying appender needs the
	// 503 + Retry-After (come back after the restart), not a 404.
	if action == "append" && r.Method == http.MethodPost && s.rejectIfDraining(w) {
		return
	}
	sess, ok := s.sessions.Get(id)
	if !ok {
		http.Error(w, fmt.Sprintf("unknown session %q", id), http.StatusNotFound)
		return
	}
	switch {
	case action == "append" && r.Method == http.MethodPost:
		s.handleSessionAppend(w, r, sess)
	case action == "events" && r.Method == http.MethodGet:
		s.handleSessionEvents(w, r, sess)
	case action == "" && r.Method == http.MethodGet:
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(sess.Status())
	default:
		http.Error(w, "use POST {id}/append, GET {id}/events or GET {id}", http.StatusMethodNotAllowed)
	}
}

// handleSessionAppend accepts one trace chunk. ?seq= (monotone, client
// chosen) makes retries idempotent. The chunk is durably journaled
// before the 200 acknowledgement.
func (s *Server) handleSessionAppend(w http.ResponseWriter, r *http.Request, sess *session.Session) {
	var seq uint64
	if v := r.URL.Query().Get("seq"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil || n == 0 {
			http.Error(w, fmt.Sprintf("bad seq=%q: want a positive integer", v), http.StatusBadRequest)
			return
		}
		seq = n
	}
	// An append has no analysis deadline; only Config.Stall bounds it.
	body := s.upload(w, r.Context(), http.MaxBytesReader(w, r.Body, s.cfg.MaxBody))
	chunk, err := io.ReadAll(body)
	if err != nil {
		if body.cause != nil {
			s.analyzeError(w, r, "session-append", body.cause)
		} else {
			http.Error(w, err.Error(), http.StatusBadRequest)
		}
		return
	}
	res, err := sess.Append(r.Context(), chunk, seq)
	switch {
	case err == nil:
	case errors.Is(err, session.ErrSessionBudget), errors.Is(err, session.ErrGlobalBudget):
		w.Header().Set("Retry-After", "5")
		s.reject(w, "session_budget", err.Error(), http.StatusTooManyRequests)
		return
	case errors.Is(err, session.ErrEnded):
		http.Error(w, err.Error(), http.StatusGone)
		return
	case errors.Is(err, session.ErrMismatch), errors.Is(err, trace.ErrBadFormat), errors.Is(err, trace.ErrInvalid):
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	case errors.Is(err, context.Canceled):
		w.WriteHeader(499)
		return
	default:
		s.cfg.Logger.Error("session append failed", "session", sess.ID, "err", err)
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(res)
}

// handleSessionEvents streams the session's Report snapshots as
// server-sent events. Each frame carries the monotonic snapshot id, so
// a client that reconnects with Last-Event-ID (header or
// ?last_event_id=) resumes after the last frame it saw — retained
// snapshots are replayed exactly once, never duplicated or skipped.
// Comment heartbeats keep idle connections alive; a consumer that stops
// reading is coalesced to latest-only and eventually disconnected by the
// write deadline, never allowed to block the analysis path.
func (s *Server) handleSessionEvents(w http.ResponseWriter, r *http.Request, sess *session.Session) {
	var lastID uint64
	v := r.Header.Get("Last-Event-ID")
	if v == "" {
		v = r.URL.Query().Get("last_event_id")
	}
	if v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			http.Error(w, fmt.Sprintf("bad Last-Event-ID %q", v), http.StatusBadRequest)
			return
		}
		lastID = n
	}

	hb := s.cfg.SessionHeartbeat
	if hb <= 0 {
		hb = 15 * time.Second
	}
	rc := http.NewResponseController(w)
	sub := sess.Subscribe(lastID)
	defer sess.Unsubscribe(sub)

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, "retry: 1000\n\n")
	if err := rc.Flush(); err != nil {
		return
	}

	write := func(format string, args ...any) bool {
		rc.SetWriteDeadline(time.Now().Add(2 * hb))
		if _, err := fmt.Fprintf(w, format, args...); err != nil {
			return false
		}
		return rc.Flush() == nil
	}

	for {
		ctx, cancel := context.WithTimeout(r.Context(), hb)
		sn, err := sub.Next(ctx)
		cancel()
		switch {
		case err == nil:
			if !write("event: snapshot\nid: %d\ndata: %s\n\n", sn.ID, sn.Data) {
				return
			}
		case errors.Is(err, session.ErrEnded):
			reason, _ := json.Marshal(endReason(err))
			write("event: end\ndata: {\"reason\":%s}\n\n", reason)
			return
		case errors.Is(err, context.DeadlineExceeded) && r.Context().Err() == nil:
			if !write(": hb\n\n") {
				return
			}
		default: // client went away
			return
		}
	}
}

// endReason extracts the reason from a session end error.
func endReason(err error) string {
	var ee *session.EndedError
	if errors.As(err, &ee) {
		return ee.Reason
	}
	return "ended"
}
