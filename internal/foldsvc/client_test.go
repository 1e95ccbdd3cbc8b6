package foldsvc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// fakeClock replaces a client's sleep with an instant recorder so retry
// schedules can be asserted without real waiting.
type fakeClock struct {
	slept []time.Duration
}

// analyze posts an encoded trace to /v1/analyze through the client's
// retry loop and decodes the Report.
func analyze(ctx context.Context, c *Client, enc []byte, query url.Values) (*core.Report, error) {
	var rep core.Report
	if err := c.do(ctx, "/v1/analyze", enc, query, &rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

func (f *fakeClock) sleep(ctx context.Context, d time.Duration) error {
	f.slept = append(f.slept, d)
	return ctx.Err()
}

// newTestClient builds a client against base with fast backoff and the
// fake clock installed.
func newTestClient(t *testing.T, base string, cfg ClientConfig) (*Client, *fakeClock) {
	t.Helper()
	cfg.BaseURL = base
	c, err := NewClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fc := &fakeClock{}
	c.sleep = fc.sleep
	return c, fc
}

// cannedReport is a minimal valid Report body for stub servers.
func cannedReport(t *testing.T) []byte {
	t.Helper()
	body, err := json.Marshal(&core.Report{App: "stub", Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func TestClientRetries429HonoringRetryAfter(t *testing.T) {
	rep := cannedReport(t)
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "2")
			http.Error(w, "busy", http.StatusTooManyRequests)
			return
		}
		w.Write(rep)
	}))
	defer srv.Close()

	c, fc := newTestClient(t, srv.URL, ClientConfig{BaseBackoff: time.Millisecond})
	got, err := analyze(context.Background(), c, []byte("trace"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.App != "stub" {
		t.Fatalf("report = %+v", got)
	}
	if n := calls.Load(); n != 3 {
		t.Fatalf("server saw %d calls, want 3", n)
	}
	if len(fc.slept) != 2 {
		t.Fatalf("client slept %d times, want 2", len(fc.slept))
	}
	for i, d := range fc.slept {
		if d < 2*time.Second {
			t.Errorf("sleep %d = %v, want >= the 2s Retry-After", i, d)
		}
	}
}

func TestClientRetries5xxWithBackoff(t *testing.T) {
	rep := cannedReport(t)
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			http.Error(w, "transient", http.StatusInternalServerError)
			return
		}
		w.Write(rep)
	}))
	defer srv.Close()

	reg := obs.NewRegistry()
	c, fc := newTestClient(t, srv.URL, ClientConfig{
		BaseBackoff: 100 * time.Millisecond, Registry: reg,
	})
	if _, err := analyze(context.Background(), c, []byte("trace"), nil); err != nil {
		t.Fatal(err)
	}
	if len(fc.slept) != 1 {
		t.Fatalf("slept %d times, want 1", len(fc.slept))
	}
	// Equal jitter over a 100ms base: the delay lands in [50ms, 100ms].
	if d := fc.slept[0]; d < 50*time.Millisecond || d > 100*time.Millisecond {
		t.Errorf("backoff = %v, want within [50ms, 100ms]", d)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "foldsvc_client_retries_total 1") {
		t.Errorf("metrics lack the retry count:\n%s", buf.String())
	}
}

func TestClientDoesNotRetryClientErrors(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "bad trace", http.StatusBadRequest)
	}))
	defer srv.Close()

	c, fc := newTestClient(t, srv.URL, ClientConfig{})
	_, err := analyze(context.Background(), c, []byte("junk"), nil)
	if err == nil || !strings.Contains(err.Error(), "bad trace") {
		t.Fatalf("err = %v, want the 400 body", err)
	}
	if calls.Load() != 1 || len(fc.slept) != 0 {
		t.Fatalf("400 was retried: %d calls, %d sleeps", calls.Load(), len(fc.slept))
	}
}

func TestClientBreakerOpensAndRecovers(t *testing.T) {
	rep := cannedReport(t)
	var healthy atomic.Bool
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		if healthy.Load() {
			w.Write(rep)
			return
		}
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer srv.Close()

	reg := obs.NewRegistry()
	c, _ := newTestClient(t, srv.URL, ClientConfig{
		MaxAttempts:      2,
		BreakerThreshold: 3,
		BreakerCooldown:  50 * time.Millisecond,
		Registry:         reg,
	})

	// First call: 2 failed attempts. Second call's first attempt is the
	// third consecutive failure — the breaker opens mid-call.
	if _, err := analyze(context.Background(), c, []byte("x"), nil); err == nil {
		t.Fatal("analyze succeeded against a dead server")
	}
	if _, err := analyze(context.Background(), c, []byte("x"), nil); err == nil {
		t.Fatal("analyze succeeded against a dead server")
	}
	before := calls.Load()
	_, err := analyze(context.Background(), c, []byte("x"), nil)
	if !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("err = %v, want ErrBreakerOpen", err)
	}
	if calls.Load() != before {
		t.Error("open breaker still sent requests")
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	metrics := buf.String()
	if !strings.Contains(metrics, "foldsvc_client_breaker_trips_total 1") {
		t.Errorf("metrics lack the breaker trip:\n%s", metrics)
	}
	if !strings.Contains(metrics, "foldsvc_client_breaker_open 1") {
		t.Errorf("metrics do not show the breaker open:\n%s", metrics)
	}

	// After the cooldown the half-open probe goes through and a healthy
	// server closes the breaker again.
	healthy.Store(true)
	time.Sleep(60 * time.Millisecond)
	if _, err := analyze(context.Background(), c, []byte("x"), nil); err != nil {
		t.Fatalf("half-open probe failed: %v", err)
	}
	buf.Reset()
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "foldsvc_client_breaker_open 0") {
		t.Errorf("breaker gauge still open after recovery:\n%s", buf.String())
	}
}

func TestClientCancelledContextStopsRetrying(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer srv.Close()

	c, err := NewClient(ClientConfig{BaseURL: srv.URL, BaseBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := analyze(ctx, c, []byte("x"), nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestClientWaitsOutServerBackpressure(t *testing.T) {
	// End to end against the real daemon: park its only job slot, let the
	// client hit a genuine 429 with Retry-After, then free the slot and
	// watch the retry succeed.
	_, enc := genTrace(t, 2, 20)
	srv := httptest.NewServer(NewServer(Config{Jobs: 1}))
	defer srv.Close()

	pr, pw := io.Pipe()
	uploadDone := make(chan struct{})
	go func() {
		defer close(uploadDone)
		req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/analyze", pr)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}()
	if _, err := pw.Write(enc[:len(enc)-1]); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first job to occupy the slot", func() bool {
		return metricValue(t, srv.URL, "foldsvc_inflight_jobs") == 1
	})

	reg := obs.NewRegistry()
	c, err := NewClient(ClientConfig{BaseURL: srv.URL, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	// Intercept the sleep: the first retry must honor the server's
	// Retry-After (1s); release the parked slot instead of waiting.
	released := false
	c.sleep = func(ctx context.Context, d time.Duration) error {
		if d < time.Second {
			t.Errorf("retry delay %v shorter than the server's Retry-After", d)
		}
		if !released {
			released = true
			pw.Write(enc[len(enc)-1:])
			pw.Close()
			<-uploadDone
		}
		return ctx.Err()
	}

	rep, err := analyze(context.Background(), c, enc, url.Values{"phases": {"2"}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.App != "stencil" || len(rep.Phases) == 0 {
		t.Fatalf("retried analysis returned %q with %d phases", rep.App, len(rep.Phases))
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "foldsvc_client_retries_total 1") {
		t.Errorf("client metrics lack the retry:\n%s", buf.String())
	}
}

func TestNewClientValidation(t *testing.T) {
	if _, err := NewClient(ClientConfig{}); err == nil {
		t.Fatal("empty BaseURL accepted")
	}
	c, err := NewClient(ClientConfig{BaseURL: "http://example.invalid"})
	if err != nil {
		t.Fatal(err)
	}
	if c.cfg.MaxAttempts != 4 || c.cfg.BreakerThreshold != 5 {
		t.Fatalf("defaults not applied: %+v", c.cfg)
	}
}
