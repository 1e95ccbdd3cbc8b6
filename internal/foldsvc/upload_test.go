package foldsvc

import (
	"bytes"
	"context"
	"errors"
	"io"
	"log/slog"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"testing"
	"time"
)

// uploadRoute is one route that reads a request body, as the upload
// timeout tests drive it.
type uploadRoute struct {
	name string
	// path is the request path and query; a session append's follows
	// /v1/session/{id}.
	path string
	// coord serves the route from a coordinator with two in-process
	// workers.
	coord bool
	// session marks a session append: it takes no job slot and has no
	// analysis deadline.
	session bool
	// diff sends the trace as /v1/diff's multipart field "a"; a whole
	// upload sends it as field "b" too.
	diff bool
}

// uploadRoutes is every route that reads a request body.
var uploadRoutes = []uploadRoute{
	{name: "analyze", path: "/v1/analyze"},
	{name: "analyze?nocache=1", path: "/v1/analyze?nocache=1"},
	{name: "partial", path: "/v1/partial"},
	{name: "diff", path: "/v1/diff", diff: true},
	{name: "coordinator", path: "/v1/analyze", coord: true},
	{name: "session-append", path: "/append", session: true},
}

// TestUploadTimeouts checks the single-daemon upload routes against an
// upload that sends half a trace and holds the body open: under
// Config.Stall each answers 408, under Config.Deadline 504, each counts
// the refusal and gives its job slot back; and a whole upload whose
// request runs longer than Stall after its last byte gets 200.
func TestUploadTimeouts(t *testing.T) {
	testUploadRoutes(t, "analyze", "analyze?nocache=1", "partial", "diff")
}

// TestDistUploadTimeouts is TestUploadTimeouts for a coordinator.
func TestDistUploadTimeouts(t *testing.T) {
	testUploadRoutes(t, "coordinator")
}

// TestSessionAppendUploadTimeouts is TestUploadTimeouts for a session
// append, which only Config.Stall bounds.
func TestSessionAppendUploadTimeouts(t *testing.T) {
	testUploadRoutes(t, "session-append")
}

// TestUploadWithoutReadDeadline: behind a writer that cannot take a
// read deadline (httptest.ResponseRecorder) the body reads stay
// unbounded, and the upload is analyzed.
func TestUploadWithoutReadDeadline(t *testing.T) {
	_, enc := genTrace(t, 2, 20)
	srv := NewServer(Config{Stall: time.Millisecond, Deadline: time.Minute})
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(enc)))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, want 200: %s", rec.Code, rec.Body)
	}
}

// testUploadRoutes runs the upload timeout cases on the named rows of
// uploadRoutes.
func testUploadRoutes(t *testing.T, names ...string) {
	_, enc := genTrace(t, 4, 40)
	const window = 200 * time.Millisecond
	for _, name := range names {
		var route uploadRoute
		for _, r := range uploadRoutes {
			if r.name == name {
				route = r
			}
		}
		if route.name == "" {
			t.Fatalf("no upload route %q", name)
		}
		cases := []struct {
			name   string
			cfg    Config
			whole  bool
			status int
			reason string
		}{
			{"stall", Config{Stall: window}, false, http.StatusRequestTimeout, "stalled"},
			{"deadline", Config{Deadline: window}, false, http.StatusGatewayTimeout, "deadline"},
			// The logger holds each analysis for twice the stall window
			// after its trace is decoded.
			{"no-false-stall", Config{Stall: window / 2, Logger: slowLogger(window)}, true, http.StatusOK, ""},
		}
		for _, tc := range cases {
			if route.session && tc.reason == "deadline" {
				continue
			}
			t.Run(route.name+"/"+tc.name, func(t *testing.T) {
				cfg := tc.cfg
				cfg.Jobs = 4
				if route.coord {
					// The workers run the analysis, so they take the logger.
					for i := 0; i < 2; i++ {
						w := httptest.NewServer(NewServer(Config{Jobs: 4, Logger: cfg.Logger}))
						defer w.Close()
						cfg.Workers = append(cfg.Workers, w.URL)
					}
				}
				srv := httptest.NewServer(NewServer(cfg))
				defer srv.Close()

				if code, _ := sendUpload(t, srv.URL, route, enc, tc.whole); code != tc.status {
					t.Fatalf("status %d, want %d", code, tc.status)
				}
				// A whole upload also leaves the connection fit for reuse.
				if tc.whole {
					if code, reused := sendUpload(t, srv.URL, route, enc, true); code != tc.status || !reused {
						t.Fatalf("second upload: status %d, connection reused %v; want %d on the first connection", code, reused, tc.status)
					}
				}
				if tc.reason != "" {
					series := `foldsvc_rejected_total{reason="` + tc.reason + `"}`
					if got := metricValue(t, srv.URL, series); got != 1 {
						t.Errorf("%s = %g, want 1", series, got)
					}
				}
				waitFor(t, "job slot release", func() bool {
					return metricValue(t, srv.URL, "foldsvc_inflight_jobs") == 0
				})
			})
		}
	}
}

// sendUpload posts enc to route on base and returns the answer's
// status and whether the request went out on a reused connection. A
// whole upload sends every byte at once, chunked; otherwise the first
// half goes out and the body stays open until the answer arrives. No
// answer within 10 s fails the test.
func sendUpload(t *testing.T, base string, route uploadRoute, enc []byte, whole bool) (status int, reused bool) {
	t.Helper()
	path := route.path
	if route.session {
		path = "/v1/session/" + openSession(t, base, "") + path
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	pr, pw := io.Pipe()
	defer pw.CloseWithError(errors.New("upload abandoned"))
	// The transport returns only once its body read ends.
	defer context.AfterFunc(ctx, func() { pw.CloseWithError(ctx.Err()) })()

	trace := &httptrace.ClientTrace{GotConn: func(c httptrace.GotConnInfo) { reused = c.Reused }}
	req, err := http.NewRequestWithContext(httptrace.WithClientTrace(ctx, trace), http.MethodPost, base+path, pr)
	if err != nil {
		t.Fatal(err)
	}
	var mw *multipart.Writer
	if route.diff {
		mw = multipart.NewWriter(pw)
		req.Header.Set("Content-Type", mw.FormDataContentType())
	} else if !whole {
		req.ContentLength = int64(len(enc))
	}
	go func() {
		w := io.Writer(pw)
		if mw != nil {
			part, err := mw.CreateFormFile("a", "a.uvt")
			if err != nil {
				return
			}
			w = part
		}
		if !whole {
			w.Write(enc[:len(enc)/2])
			return
		}
		if _, err := w.Write(enc); err != nil {
			return
		}
		if mw != nil {
			part, err := mw.CreateFormFile("b", "b.uvt")
			if err != nil {
				return
			}
			part.Write(enc)
			mw.Close()
		}
		pw.Close()
	}()

	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s: no answer: %v", route.name, err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, reused
}

// slowLogger returns a logger that stands in for a long analysis: it
// holds each analysis for d when the pipeline logs its decode stage's
// counters, which it does once the whole trace is decoded, before the
// analysis returns.
func slowLogger(d time.Duration) *slog.Logger {
	return slog.New(slowHandler{d})
}

type slowHandler struct{ d time.Duration }

func (h slowHandler) Enabled(context.Context, slog.Level) bool { return true }

func (h slowHandler) Handle(_ context.Context, r slog.Record) error {
	if r.Message == "stage done" {
		r.Attrs(func(a slog.Attr) bool {
			if a.Key == "stage" && a.Value.String() == "decode" {
				time.Sleep(h.d)
			}
			return true
		})
	}
	return nil
}

func (h slowHandler) WithAttrs([]slog.Attr) slog.Handler { return h }

func (h slowHandler) WithGroup(string) slog.Handler { return h }
