package foldsvc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
)

// genTrace simulates a small stencil run and returns both the in-memory
// trace and its encoded bytes.
func genTrace(t *testing.T, ranks, iters int) (*trace.Trace, []byte) {
	t.Helper()
	app, err := apps.ByName("stencil", iters)
	if err != nil {
		t.Fatal(err)
	}
	cfg := apps.DefaultTraceConfig(ranks)
	tr, err := sim.Run(cfg, app)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return tr, buf.Bytes()
}

// asGeneric unmarshals JSON into the generic map form with the
// run-varying Pipeline stage metrics (wall times, bytes) removed, so
// two reports can be compared for semantic equality.
func asGeneric(t *testing.T, data []byte) map[string]any {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("unmarshal report: %v", err)
	}
	delete(m, "Pipeline")
	return m
}

func TestAnalyzeMatchesLocalAnalyze(t *testing.T) {
	tr, enc := genTrace(t, 4, 40)
	srv := httptest.NewServer(NewServer(Config{}))
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/v1/analyze", "application/octet-stream", bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content-type %q", ct)
	}

	rep, err := core.Analyze(tr, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	local, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	got, want := asGeneric(t, body), asGeneric(t, local)
	if !reflect.DeepEqual(got, want) {
		for k := range want {
			if !reflect.DeepEqual(got[k], want[k]) {
				t.Errorf("report field %s differs from local Analyze", k)
			}
		}
		t.Fatal("service report is not deep-equal to local Analyze report")
	}
}

func TestAnalyzeOnlineAndQueryKnobs(t *testing.T) {
	_, enc := genTrace(t, 4, 60)
	srv := httptest.NewServer(NewServer(Config{}))
	defer srv.Close()

	url := srv.URL + "/v1/analyze?online=1&train=256&phases=3&counter=PAPI_TOT_INS&knn=kdtree"
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var rep struct {
		Online bool
		Phases []struct{ ClusterID int }
	}
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Online {
		t.Error("?online=1 did not select the online path")
	}
	if len(rep.Phases) == 0 || len(rep.Phases) > 3 {
		t.Errorf("got %d phases, want 1..3", len(rep.Phases))
	}
}

func TestAnalyzeBadQueryAndBadFormat(t *testing.T) {
	srv := httptest.NewServer(NewServer(Config{}))
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/v1/analyze?train=notanint", "", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad query: status %d, want 400", resp.StatusCode)
	}

	resp, err = http.Post(srv.URL+"/v1/analyze", "", strings.NewReader("this is not a trace"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad format: status %d, want 400", resp.StatusCode)
	}
}

func TestAnalyzeOversizedUpload413(t *testing.T) {
	_, enc := genTrace(t, 2, 20)
	srv := httptest.NewServer(NewServer(Config{MaxBody: 1024}))
	defer srv.Close()

	if len(enc) <= 1024 {
		t.Fatalf("test trace too small (%d bytes) to trip the limit", len(enc))
	}
	resp, err := http.Post(srv.URL+"/v1/analyze", "application/octet-stream", bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
}

// metricValue scrapes one un-labeled (or exactly-labeled) series value
// from the /metrics output.
func metricValue(t *testing.T, base, series string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufioLines(resp.Body)
	for _, line := range sc {
		if strings.HasPrefix(line, series+" ") {
			var v float64
			if _, err := fmt.Sscanf(line[len(series)+1:], "%g", &v); err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			return v
		}
	}
	return 0
}

func bufioLines(r io.Reader) []string {
	data, _ := io.ReadAll(r)
	return strings.Split(string(data), "\n")
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestAnalyzeBackpressure429(t *testing.T) {
	_, enc := genTrace(t, 2, 20)
	srv := httptest.NewServer(NewServer(Config{Jobs: 1}))
	defer srv.Close()

	// First request: a stalling upload that parks the only job slot —
	// all bytes except the tail, then hold the stream open.
	pr, pw := io.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
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

	// Second request must be rejected with 429, not queued.
	resp, err := http.Post(srv.URL+"/v1/analyze", "application/octet-stream", bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	if ra == "" {
		t.Error("429 response missing Retry-After")
	} else if secs, err := strconv.Atoi(ra); err != nil || secs < 1 || secs > 60 {
		t.Errorf("Retry-After = %q, want a delay of 1..60 seconds", ra)
	}

	// Release the first upload and let it finish.
	pw.Write(enc[len(enc)-1:])
	pw.Close()
	<-done

	// With the slot free again, the same request succeeds.
	resp, err = http.Post(srv.URL+"/v1/analyze", "application/octet-stream", bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after release: status %d, want 200", resp.StatusCode)
	}
}

// TestJobSlotFreedBeforeResponse pins the release ordering behind the
// backpressure tests: a job's slot and the inflight gauge are given
// back when its response starts, not after the body is written, so a
// client holding its answer is never 429'd by its own finished job.
func TestJobSlotFreedBeforeResponse(t *testing.T) {
	s := NewServer(Config{Jobs: 1})
	w, release, ok := s.acquireJob(httptest.NewRecorder())
	if !ok {
		t.Fatal("idle server refused a job")
	}
	busy := httptest.NewRecorder()
	if _, _, ok := s.acquireJob(busy); ok || busy.Code != http.StatusTooManyRequests {
		t.Fatalf("second job while the only slot is held: admitted %v, status %d", ok, busy.Code)
	}
	if got := s.inflight.Value(); got != 1 {
		t.Fatalf("inflight = %g while computing, want 1", got)
	}
	w.WriteHeader(http.StatusOK)
	if got := s.inflight.Value(); got != 0 {
		t.Fatalf("inflight = %g once the response started, want 0", got)
	}
	_, release2, ok := s.acquireJob(httptest.NewRecorder())
	if !ok {
		t.Fatal("slot still held after the response started")
	}
	release2()
	w.Write([]byte("{}"))
	release() // idempotent: the deferred release after a write
	if got := s.inflight.Value(); got != 0 || len(s.sem) != 0 {
		t.Fatalf("after release: inflight %g, %d slots taken, want 0 and 0", got, len(s.sem))
	}
}

func TestClientDisconnectCancelsPipeline(t *testing.T) {
	_, enc := genTrace(t, 2, 20)
	srv := httptest.NewServer(NewServer(Config{}))
	defer srv.Close()

	// Start an upload that stalls mid-trace, then abandon it: the
	// daemon must cancel the running pipeline (foldsvc_cancelled_total
	// rises) instead of waiting for the rest of the stream.
	pr, pw := io.Pipe()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/v1/analyze", pr)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}()
	if _, err := pw.Write(enc[:len(enc)/2]); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "analysis to start", func() bool {
		return metricValue(t, srv.URL, "foldsvc_inflight_jobs") == 1
	})

	cancel()
	// The transport waits for its body-write goroutine before Do
	// returns, and that goroutine is blocked reading the pipe — abort
	// the pipe so the abandoned upload actually terminates client-side.
	pw.CloseWithError(errors.New("client abandoned upload"))
	<-done
	waitFor(t, "pipeline cancellation", func() bool {
		return metricValue(t, srv.URL, "foldsvc_cancelled_total") >= 1
	})
	waitFor(t, "job slot release", func() bool {
		return metricValue(t, srv.URL, "foldsvc_inflight_jobs") == 0
	})
}

// metricLine matches the Prometheus text exposition sample syntax.
var metricLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? (-?[0-9.e+-]+|\+Inf|NaN)$`)

func TestMetricsEndpointParses(t *testing.T) {
	_, enc := genTrace(t, 2, 20)
	srv := httptest.NewServer(NewServer(Config{}))
	defer srv.Close()

	// Generate some traffic first so every family has series.
	resp, err := http.Post(srv.URL+"/v1/analyze", "application/octet-stream", bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	data, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(string(data), "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) < 4 {
				t.Errorf("malformed comment line %q", line)
			}
			seen[f[2]] = true
			continue
		}
		if !metricLine.MatchString(line) {
			t.Errorf("unparseable sample line %q", line)
		}
	}
	for _, want := range []string{
		"foldsvc_requests_total", "foldsvc_request_seconds",
		"foldsvc_analyze_records_total", "foldsvc_analyze_bursts_total",
		"foldsvc_inflight_jobs", "parallel_pool_gets",
	} {
		if !seen[want] {
			t.Errorf("metric family %s missing from /metrics", want)
		}
	}
	// Request latency must have been observed for the analyze route.
	if c := metricValue(t, srv.URL, `foldsvc_request_seconds_count{path="/v1/analyze"}`); c < 1 {
		t.Errorf("request_seconds count = %v, want >= 1", c)
	}
	if rec := metricValue(t, srv.URL, `foldsvc_analyze_records_total{kind="sample"}`); rec <= 0 {
		t.Errorf("records-processed counter = %v, want > 0", rec)
	}
}

func TestHealthzAndPathAnalysis(t *testing.T) {
	tr, _ := genTrace(t, 2, 20)
	dir := t.TempDir()
	if err := tr.WriteFile(dir + "/t.uvt"); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(Config{PathRoot: dir}))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}

	resp, err = http.Get(srv.URL + "/v1/analyze?path=t.uvt")
	if err != nil {
		t.Fatal(err)
	}
	var rep struct{ Bursts int }
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || rep.Bursts == 0 {
		t.Fatalf("path analysis: status %d, bursts %d", resp.StatusCode, rep.Bursts)
	}

	// Path escape attempts must not leave the root.
	resp, err = http.Get(srv.URL + "/v1/analyze?path=../../etc/passwd")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("escape attempt: status %d, want 404", resp.StatusCode)
	}

	// And with no root configured, ?path= is rejected outright.
	srv2 := httptest.NewServer(NewServer(Config{}))
	defer srv2.Close()
	resp, err = http.Get(srv2.URL + "/v1/analyze?path=t.uvt")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("disabled path analysis: status %d, want 403", resp.StatusCode)
	}
}
