package foldsvc

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/core"
)

// ErrSessionEnded is returned by ClientSession.Events after the daemon
// delivers the final "end" frame (drain, eviction): the session is over
// and reconnecting is pointless.
var ErrSessionEnded = errors.New("foldsvc: session ended")

// ClientSession is the client half of a live analysis session: Append
// streams chunks in (idempotent via automatic sequence numbers, safe
// under the client's retry loop), Events follows the evolving Report
// snapshots and transparently reconnects with Last-Event-ID, so a
// dropped daemon connection — or a daemon restart that replayed the
// journal — resumes without duplicated or skipped snapshots.
type ClientSession struct {
	// ID is the server-assigned session id.
	ID string
	// Fingerprint is the session's option fingerprint (matches rescache
	// keys for the same analysis options).
	Fingerprint string

	c   *Client
	seq atomic.Uint64
}

// SessionEvent is one frame of the session's SSE stream.
type SessionEvent struct {
	// ID is the monotonic snapshot id (the SSE event id).
	ID uint64
	// Report is the decoded snapshot.
	Report *core.Report
}

// OpenSession opens a live session on the daemon. query carries the
// analysis knobs, fixed for the session's life; retry, backoff and
// breaker behavior are the client's usual.
func (c *Client) OpenSession(ctx context.Context, query url.Values) (*ClientSession, error) {
	var out struct {
		ID          string
		Fingerprint string
	}
	if err := c.do(ctx, "/v1/session", nil, query, &out); err != nil {
		return nil, err
	}
	return &ClientSession{ID: out.ID, Fingerprint: out.Fingerprint, c: c}, nil
}

// Append streams one encoded trace chunk into the session. The chunk
// carries an automatically incremented sequence number, so the retry
// loop (and a client resending after a timeout) cannot double-append:
// the daemon acknowledges a replayed sequence as a duplicate without
// re-applying it. The returned result reports the session's cumulative
// shape after the append.
func (s *ClientSession) Append(ctx context.Context, chunk []byte) (*SessionAppendResult, error) {
	seq := s.seq.Add(1)
	q := url.Values{"seq": {strconv.FormatUint(seq, 10)}}
	var res SessionAppendResult
	if err := s.c.do(ctx, "/v1/session/"+s.ID+"/append", chunk, q, &res); err != nil {
		s.seq.Add(^uint64(0)) // failed for good: the number is reusable
		return nil, err
	}
	return &res, nil
}

// SessionAppendResult mirrors the daemon's append acknowledgement.
type SessionAppendResult struct {
	Segment                int
	Duplicate              bool
	Events, Samples, Comms int
	Bytes                  int64
}

// Events follows the session's snapshot stream from after lastID (0 =
// from the oldest retained snapshot), invoking fn for every frame. It
// reconnects on dropped connections and 5xx/429 responses with the
// client's usual backoff, resuming via Last-Event-ID so no snapshot is
// delivered twice or skipped. It returns ErrSessionEnded after the
// daemon's final "end" frame, fn's error if fn fails, ctx.Err() on
// cancellation, or the last transport error once MaxAttempts
// consecutive reconnect attempts fail without progress.
func (s *ClientSession) Events(ctx context.Context, lastID uint64, fn func(SessionEvent) error) error {
	consecFails := 0
	var lastErr error
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if consecFails >= s.c.cfg.MaxAttempts {
			return fmt.Errorf("foldsvc: %d consecutive event-stream attempts failed: %w",
				consecFails, lastErr)
		}
		if consecFails > 0 {
			if s.c.retries != nil {
				s.c.retries.Inc()
			}
			if err := s.c.sleep(ctx, s.c.backoff(consecFails, lastErr)); err != nil {
				return fmt.Errorf("foldsvc: %w", err)
			}
		}

		delivered, err := s.streamOnce(ctx, &lastID, fn)
		switch {
		case err == nil:
			return ErrSessionEnded
		case errors.Is(err, ErrSessionEnded):
			return err
		case ctx.Err() != nil:
			return ctx.Err()
		case isTerminalStream(err):
			return err
		}
		if delivered {
			consecFails = 0 // the stream made progress before dropping
		}
		consecFails++
		lastErr = err
	}
}

// terminalStreamError marks stream failures that reconnecting cannot
// fix (4xx responses, fn errors).
type terminalStreamError struct{ err error }

func (e *terminalStreamError) Error() string { return e.err.Error() }
func (e *terminalStreamError) Unwrap() error { return e.err }

func isTerminalStream(err error) bool {
	var t *terminalStreamError
	return errors.As(err, &t)
}

// streamOnce runs one SSE connection until it ends. lastID advances as
// frames arrive so the next connection resumes in place. delivered
// reports whether any snapshot arrived on this connection.
func (s *ClientSession) streamOnce(ctx context.Context, lastID *uint64, fn func(SessionEvent) error) (delivered bool, err error) {
	u := s.c.cfg.BaseURL + "/v1/session/" + s.ID + "/events"
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return false, &terminalStreamError{err}
	}
	req.Header.Set("Accept", "text/event-stream")
	if *lastID > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatUint(*lastID, 10))
	}
	resp, err := s.c.cfg.HTTPClient.Do(req)
	if err != nil {
		s.c.noteFailure()
		return false, fmt.Errorf("foldsvc: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		err := fmt.Errorf("foldsvc: %s: %s", resp.Status, strings.TrimSpace(string(msg)))
		s.c.noteFailure()
		if resp.StatusCode == http.StatusTooManyRequests ||
			resp.StatusCode == http.StatusServiceUnavailable ||
			resp.StatusCode >= 500 {
			return false, &retryAfterError{
				msg:   err.Error(),
				after: parseRetryAfter(resp.Header.Get("Retry-After")),
			}
		}
		return false, &terminalStreamError{err}
	}
	s.c.noteSuccess()

	var event strings.Builder
	var eventName string
	var eventID uint64
	flush := func() error {
		defer func() { event.Reset(); eventName = ""; eventID = 0 }()
		data := event.String()
		switch eventName {
		case "snapshot":
			rep := new(core.Report)
			if err := json.Unmarshal([]byte(data), rep); err != nil {
				return fmt.Errorf("foldsvc: snapshot %d does not decode: %w", eventID, err)
			}
			if eventID > 0 {
				*lastID = eventID
			}
			delivered = true
			if err := fn(SessionEvent{ID: eventID, Report: rep}); err != nil {
				return &terminalStreamError{err}
			}
		case "end":
			var e struct{ Reason string }
			_ = json.Unmarshal([]byte(data), &e)
			return fmt.Errorf("%w (%s)", ErrSessionEnded, e.Reason)
		}
		return nil
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if err := flush(); err != nil {
				return delivered, err
			}
		case strings.HasPrefix(line, ":"): // heartbeat comment
		case strings.HasPrefix(line, "event: "):
			eventName = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "id: "):
			if n, err := strconv.ParseUint(strings.TrimPrefix(line, "id: "), 10, 64); err == nil {
				eventID = n
			}
		case strings.HasPrefix(line, "data: "):
			if event.Len() > 0 {
				event.WriteByte('\n')
			}
			event.WriteString(strings.TrimPrefix(line, "data: "))
		}
	}
	if err := sc.Err(); err != nil {
		return delivered, fmt.Errorf("foldsvc: event stream: %w", err)
	}
	return delivered, fmt.Errorf("foldsvc: event stream closed by server")
}
