package foldsvc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// ErrBreakerOpen is returned by a Client call while the circuit
// breaker is open: enough consecutive attempts failed that the client
// stops hammering the daemon until the cooldown elapses. Callers test
// with errors.Is and either back off themselves or surface the outage.
var ErrBreakerOpen = errors.New("foldsvc: circuit breaker open")

// ClientConfig collects the retrying client's tunables. The zero value
// of every field selects a production-reasonable default.
type ClientConfig struct {
	// BaseURL is the daemon's root URL (e.g. "http://host:9090"); the
	// client appends the /v1 paths. Required.
	BaseURL string
	// HTTPClient is the transport; nil selects http.DefaultClient.
	HTTPClient *http.Client
	// MaxAttempts bounds tries per call, first attempt included
	// (default 4). Only retryable failures — transport errors, 429, 5xx —
	// consume extra attempts; other HTTP errors fail immediately.
	MaxAttempts int
	// BaseBackoff is the first retry's nominal delay (default 100ms);
	// subsequent retries double it, capped at MaxBackoff (default 5s).
	// The actual sleep is equal-jittered (uniform in [d/2, d]) so a fleet
	// of clients does not retry in lockstep. A server-provided
	// Retry-After overrides the computed delay when larger.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// AttemptTimeout bounds each individual attempt; 0 means only the
	// caller's context limits an attempt. It guards retries against a
	// server that accepts the connection and then hangs.
	AttemptTimeout time.Duration
	// BreakerThreshold opens the circuit breaker after this many
	// consecutive failed attempts (default 5); BreakerCooldown is how
	// long it stays open before a probe is allowed through (default 10s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Registry, when non-nil, receives the client's observability
	// counters (foldsvc_client_retries_total,
	// foldsvc_client_breaker_trips_total, foldsvc_client_breaker_open).
	Registry *obs.Registry
	// Seed makes the backoff jitter reproducible; 0 selects a fixed
	// default (jitter needs to decorrelate clients, not be secret).
	Seed uint64
}

// Client calls a foldsvc daemon with capped-exponential-backoff
// retries, Retry-After awareness, per-attempt timeouts, and a
// consecutive-failure circuit breaker. It is safe for concurrent use.
type Client struct {
	cfg ClientConfig

	retries      *obs.Counter
	breakerTrips *obs.Counter
	breakerOpen  *obs.Gauge

	// sleep is swapped out by tests to observe requested delays without
	// actually waiting.
	sleep func(ctx context.Context, d time.Duration) error

	mu          sync.Mutex
	rngState    uint64
	consecFails int
	openUntil   time.Time
	probing     bool
}

// NewClient validates cfg, applies defaults, and returns a ready
// client.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.BaseURL == "" {
		return nil, errors.New("foldsvc: client needs a BaseURL")
	}
	if _, err := url.Parse(cfg.BaseURL); err != nil {
		return nil, fmt.Errorf("foldsvc: bad BaseURL: %w", err)
	}
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = http.DefaultClient
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 4
	}
	if cfg.BaseBackoff <= 0 {
		cfg.BaseBackoff = 100 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 5 * time.Second
	}
	if cfg.BreakerThreshold <= 0 {
		cfg.BreakerThreshold = 5
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 10 * time.Second
	}
	if cfg.Seed == 0 {
		cfg.Seed = 0x5ca1ab1e
	}
	c := &Client{cfg: cfg, rngState: cfg.Seed}
	c.sleep = func(ctx context.Context, d time.Duration) error {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-t.C:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	if cfg.Registry != nil {
		c.retries = cfg.Registry.Counter("foldsvc_client_retries_total",
			"Analyze attempts retried after a retryable failure.")
		c.breakerTrips = cfg.Registry.Counter("foldsvc_client_breaker_trips_total",
			"Times the client circuit breaker opened.")
		c.breakerOpen = cfg.Registry.Gauge("foldsvc_client_breaker_open",
			"1 while the client circuit breaker is open, else 0.")
	}
	return c, nil
}

// Partial posts an encoded trace shard to the daemon's /v1/partial and
// decodes the mergeable core.Partial — the coordinator's worker call.
// query must carry the shard's place in the split (shard, shards, mode,
// resume) alongside the analysis knobs. Retryable failures (transport
// errors, 429 honoring Retry-After, 5xx) are retried with capped
// jittered backoff. The trace is passed as bytes because a retry must
// replay the body from the start.
func (c *Client) Partial(ctx context.Context, enc []byte, query url.Values) (*core.Partial, error) {
	var p core.Partial
	if err := c.do(ctx, "/v1/partial", enc, query, &p); err != nil {
		return nil, err
	}
	return &p, nil
}

// do runs the shared retry loop: admit through the breaker, POST enc to
// path, decode the JSON response into out.
func (c *Client) do(ctx context.Context, path string, enc []byte, query url.Values, out any) error {
	if err := c.admit(); err != nil {
		return err
	}
	u := c.cfg.BaseURL + path
	if len(query) > 0 {
		u += "?" + query.Encode()
	}

	var lastErr error
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			if c.retries != nil {
				c.retries.Inc()
			}
			if err := c.sleep(ctx, c.backoff(attempt, lastErr)); err != nil {
				return fmt.Errorf("foldsvc: %w", err)
			}
		}
		raw, retryable, err := c.attempt(ctx, u, enc)
		if err == nil {
			if err := json.Unmarshal(raw, out); err != nil {
				c.noteFailure()
				return fmt.Errorf("foldsvc: decoding response: %w", err)
			}
			c.noteSuccess()
			return nil
		}
		c.noteFailure()
		lastErr = err
		if !retryable || ctx.Err() != nil {
			return lastErr
		}
	}
	return fmt.Errorf("foldsvc: %d attempts failed: %w", c.cfg.MaxAttempts, lastErr)
}

// retryAfterError carries a 429/503 response's Retry-After hint through
// to the backoff computation.
type retryAfterError struct {
	msg   string
	after time.Duration
}

func (e *retryAfterError) Error() string { return e.msg }

// attempt runs one HTTP round trip and returns the complete response
// body as one JSON value. The second return reports whether the failure
// is worth retrying; keeping the decode-into-target step out of the
// retry loop means a torn attempt can never leave stale fields behind.
func (c *Client) attempt(ctx context.Context, u string, enc []byte) (json.RawMessage, bool, error) {
	actx := ctx
	if c.cfg.AttemptTimeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, c.cfg.AttemptTimeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(actx, http.MethodPost, u, bytes.NewReader(enc))
	if err != nil {
		return nil, false, fmt.Errorf("foldsvc: %w", err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")

	resp, err := c.cfg.HTTPClient.Do(req)
	if err != nil {
		// Transport-level failure: connection refused, reset, attempt
		// timeout. All retryable unless the caller's context is done.
		return nil, true, fmt.Errorf("foldsvc: %w", err)
	}
	defer resp.Body.Close()

	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		err := fmt.Errorf("foldsvc: %s: %s", resp.Status, bytes.TrimSpace(msg))
		switch {
		case resp.StatusCode == http.StatusTooManyRequests ||
			resp.StatusCode == http.StatusServiceUnavailable:
			return nil, true, &retryAfterError{
				msg:   err.Error(),
				after: parseRetryAfter(resp.Header.Get("Retry-After")),
			}
		case resp.StatusCode >= 500:
			return nil, true, err
		default:
			return nil, false, err
		}
	}

	var raw json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		// A torn response body usually means the server died mid-write;
		// the request is safe to replay.
		return nil, true, fmt.Errorf("foldsvc: decoding response: %w", err)
	}
	return raw, false, nil
}

// parseRetryAfter reads a Retry-After header's delay-seconds form (the
// form foldsvc emits); HTTP-date forms and garbage yield 0, meaning
// "use the computed backoff".
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// backoff computes the sleep before the attempt-th try (attempt >= 1):
// equal-jittered capped exponential, overridden upward by a server
// Retry-After hint.
func (c *Client) backoff(attempt int, lastErr error) time.Duration {
	d := c.cfg.BaseBackoff << (attempt - 1)
	if d > c.cfg.MaxBackoff || d <= 0 {
		d = c.cfg.MaxBackoff
	}
	// Equal jitter: half deterministic, half uniform, so the expected
	// delay stays d*3/4 while clients decorrelate.
	half := d / 2
	if half > 0 {
		c.mu.Lock()
		c.rngState += 0x9e3779b97f4a7c15
		z := c.rngState
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		c.mu.Unlock()
		d = half + time.Duration(z%uint64(half))
	}
	var ra *retryAfterError
	if errors.As(lastErr, &ra) && ra.after > d {
		d = ra.after
	}
	return d
}

// admit applies the circuit breaker: fail fast while it is open, and
// once the cooldown has elapsed let exactly one caller through as the
// half-open probe. Concurrent callers arriving while the probe is in
// flight still fail fast — a worker that just spent a cooldown down
// should see one request, not a thundering herd.
func (c *Client) admit() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.openUntil.IsZero() {
		return nil
	}
	if time.Now().Before(c.openUntil) {
		return fmt.Errorf("%w until %s", ErrBreakerOpen, c.openUntil.Format(time.RFC3339))
	}
	if c.probing {
		return fmt.Errorf("%w (half-open probe in flight)", ErrBreakerOpen)
	}
	// Half-open: this call is the probe. openUntil stays set so every
	// other caller keeps failing fast until the probe settles — success
	// closes the breaker, failure re-opens it for a fresh cooldown.
	c.probing = true
	return nil
}

// noteSuccess resets the breaker after any successful attempt.
func (c *Client) noteSuccess() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.consecFails = 0
	c.openUntil = time.Time{}
	c.probing = false
	if c.breakerOpen != nil {
		c.breakerOpen.Set(0)
	}
}

// noteFailure counts a failed attempt, opens the breaker at the
// threshold, and re-opens it when a half-open probe fails.
func (c *Client) noteFailure() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.consecFails++
	open := false
	if c.probing {
		// The probe failed: a fresh cooldown starts now.
		c.probing = false
		open = true
	} else if c.consecFails >= c.cfg.BreakerThreshold && c.openUntil.IsZero() {
		open = true
	}
	if open {
		c.openUntil = time.Now().Add(c.cfg.BreakerCooldown)
		if c.breakerTrips != nil {
			c.breakerTrips.Inc()
		}
		if c.breakerOpen != nil {
			c.breakerOpen.Set(1)
		}
	}
}
