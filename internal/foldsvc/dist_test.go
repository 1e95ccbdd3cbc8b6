package foldsvc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// newWorkerFarm spins up n in-process worker daemons and returns their
// base URLs. Workers get explicit job capacity: the coordinator fans
// shards out in parallel, and on a 1-core runner a default worker
// (Jobs = GOMAXPROCS = 1) would 429 the second shard landing on it.
func newWorkerFarm(t *testing.T, n int) []string {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		srv := httptest.NewServer(NewServer(Config{Jobs: 16}))
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	return urls
}

// TestE2EDist is the distributed end-to-end: an in-process coordinator
// fanning out to 3 in-process workers must answer with a Report
// semantically equal to local core.AnalyzeContext on the same trace. This
// is what `make e2e-dist` runs.
func TestE2EDist(t *testing.T) {
	tr, enc := genTrace(t, 4, 40)
	workers := newWorkerFarm(t, 3)
	coord := httptest.NewServer(NewServer(Config{Workers: workers, Shards: 3}))
	defer coord.Close()

	resp, err := http.Post(coord.URL+"/v1/analyze", "application/octet-stream", bytes.NewReader(enc))
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

	rep, err := core.AnalyzeContext(context.Background(), tr, core.Options{})
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
		t.Fatal("coordinated report is not deep-equal to local Analyze report")
	}

	if v := metricValue(t, coord.URL, `foldsvc_shards_total{outcome="ok"}`); v != 3 {
		t.Errorf("shards ok = %v, want 3", v)
	}
	if v := metricValue(t, coord.URL, `foldsvc_shards_total{outcome="failed"}`); v != 0 {
		t.Errorf("shards failed = %v, want 0", v)
	}
}

// TestDistSurvivesWorkerLoss locks the degradation contract: when one
// worker errors every request, the coordinated analysis still answers
// 200 with Report.Degraded, a per-shard warning, and no profile (the
// cross-shard profile needs every boundary handoff); only all workers
// failing turns into an error status.
func TestDistSurvivesWorkerLoss(t *testing.T) {
	_, enc := genTrace(t, 4, 40)
	workers := newWorkerFarm(t, 2)
	// A third "worker" that 500s every time.
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "worker exploded", http.StatusInternalServerError)
	}))
	defer dead.Close()

	// Only the dead worker on the ring: every shard's primary and (absent
	// a distinct backend) failover is the dead one, so all shards fail.
	allDead := httptest.NewServer(NewServer(Config{
		Workers:      []string{dead.URL},
		Shards:       2,
		WorkerClient: ClientConfig{MaxAttempts: 1, BaseBackoff: time.Millisecond},
	}))
	defer allDead.Close()
	resp, err := http.Post(allDead.URL+"/v1/analyze", "application/octet-stream", bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("all workers dead: status %d, want 502", resp.StatusCode)
	}

	// Mixed farm: shards routed to the dead worker fail over to live ones
	// — the analysis must come back complete and un-degraded.
	coord := httptest.NewServer(NewServer(Config{
		Workers:      append(workers, dead.URL),
		Shards:       3,
		WorkerClient: ClientConfig{MaxAttempts: 1, BaseBackoff: time.Millisecond},
	}))
	defer coord.Close()
	resp, err = http.Post(coord.URL+"/v1/analyze", "application/octet-stream", bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	var rep core.Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mixed farm: status %d, want 200", resp.StatusCode)
	}
	if rep.Degraded {
		t.Errorf("failover should not degrade the report; warnings: %v", rep.Warnings)
	}
	if rep.Profile == nil {
		t.Error("all shards survived via failover; profile should be present")
	}
}

// TestDistDegradedShard drops one shard outright (its primary and its
// failover both fail) and checks the per-shard degradation semantics.
func TestDistDegradedShard(t *testing.T) {
	_, enc := genTrace(t, 4, 40)
	live := newWorkerFarm(t, 1)[0]
	// Fails /v1/partial for shard 1 only, on every backend that hosts it.
	var failed atomic.Int64
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/partial" && r.URL.Query().Get("shard") == "1" {
			failed.Add(1)
			http.Error(w, "shard 1 poisoned", http.StatusInternalServerError)
			return
		}
		http.Error(w, "not found", http.StatusNotFound)
	}))
	defer flaky.Close()

	// Intercept at the coordinator: wrap both ring backends with a proxy
	// that poisons shard 1 regardless of which backend it lands on, so
	// primary AND failover fail for that shard while others succeed.
	poison := func(backend string) string {
		p := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Query().Get("shard") == "1" {
				failed.Add(1)
				http.Error(w, "shard 1 poisoned", http.StatusInternalServerError)
				return
			}
			u := backend + r.URL.Path + "?" + r.URL.RawQuery
			body, _ := io.ReadAll(r.Body)
			resp, err := http.Post(u, r.Header.Get("Content-Type"), bytes.NewReader(body))
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadGateway)
				return
			}
			defer resp.Body.Close()
			w.WriteHeader(resp.StatusCode)
			io.Copy(w, resp.Body)
		}))
		t.Cleanup(p.Close)
		return p.URL
	}

	coord := httptest.NewServer(NewServer(Config{
		Workers:      []string{poison(live), poison(live)},
		Shards:       3,
		WorkerClient: ClientConfig{MaxAttempts: 1, BaseBackoff: time.Millisecond},
	}))
	defer coord.Close()

	resp, err := http.Post(coord.URL+"/v1/analyze", "application/octet-stream", bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	var rep core.Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 despite the lost shard", resp.StatusCode)
	}
	if !rep.Degraded {
		t.Error("lost shard did not mark the report degraded")
	}
	found := false
	for _, w := range rep.Warnings {
		if strings.Contains(w, "shard 1/3 failed") {
			found = true
		}
	}
	if !found {
		t.Errorf("warnings lack the per-shard failure: %v", rep.Warnings)
	}
	if rep.Profile != nil || rep.ProfileErr == "" {
		t.Error("profile should be withheld when a shard is missing")
	}
	if rep.Bursts == 0 || len(rep.Phases) == 0 {
		t.Errorf("surviving shards should still yield phases (bursts=%d phases=%d)",
			rep.Bursts, len(rep.Phases))
	}
	if failed.Load() < 2 {
		t.Errorf("expected primary and failover attempts on shard 1, saw %d", failed.Load())
	}
}

// shortTrace is a stencil trace whose declared duration ends 1 ns
// before its last event: it breaks Trace.Validate, and its records
// still analyze.
func shortTrace(t *testing.T) []byte {
	t.Helper()
	tr, _ := genTrace(t, 4, 40)
	tr.Meta.Duration = tr.Events[len(tr.Events)-1].Time - 1
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// postStatus posts enc to url and returns the status and body.
func postStatus(t *testing.T, url string, enc []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestDistInvalidTraceLikeSingleDaemon: a coordinator answers an upload
// that fails validation as a single daemon does, with one shard or
// several. Strict, all answer 400; lenient, all give the same report,
// carrying the validation warning once, after the salvage lines.
func TestDistInvalidTraceLikeSingleDaemon(t *testing.T) {
	enc := shortTrace(t)
	workers := newWorkerFarm(t, 2)
	daemons := map[string]*httptest.Server{
		"single":   httptest.NewServer(NewServer(Config{})),
		"1 shard":  httptest.NewServer(NewServer(Config{Workers: workers, Shards: 1})),
		"2 shards": httptest.NewServer(NewServer(Config{Workers: workers, Shards: 2})),
	}
	for _, d := range daemons {
		defer d.Close()
	}

	var single map[string]any
	for _, name := range []string{"single", "1 shard", "2 shards"} {
		url := daemons[name].URL + "/v1/analyze?nocache=1"
		if code, body := postStatus(t, url, enc); code != http.StatusBadRequest {
			t.Errorf("%s strict: status %d (%s), want 400", name, code, bytes.TrimSpace(body))
		}
		code, body := postStatus(t, url+"&lenient=1", enc)
		if code != http.StatusOK {
			t.Fatalf("%s lenient: status %d: %s", name, code, body)
		}
		var rep core.Report
		if err := json.Unmarshal(body, &rep); err != nil {
			t.Fatal(err)
		}
		n, at := 0, -1
		for i, w := range rep.Warnings {
			if strings.HasPrefix(w, "trace failed validation") {
				n, at = n+1, i
			}
		}
		if salvage := len(rep.Decode.Warnings()); n != 1 || at != salvage {
			t.Errorf("%s lenient: warnings %q; want one validation warning after %d salvage lines", name, rep.Warnings, salvage)
		}
		if name == "single" {
			single = asGeneric(t, body)
		} else if got := asGeneric(t, body); !reflect.DeepEqual(got, single) {
			for k := range single {
				if !reflect.DeepEqual(got[k], single[k]) {
					t.Errorf("%s lenient: report field %s differs from the single daemon's", name, k)
				}
			}
		}
	}
}

// TestDistRanklessUpload400: nothing analyzes without a rank, so a
// coordinator refuses an upload whose metadata declares none with 400,
// strict or lenient, as a single daemon does.
func TestDistRanklessUpload400(t *testing.T) {
	tr, _ := genTrace(t, 2, 20)
	tr.Meta.Ranks = 0
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	coord := httptest.NewServer(NewServer(Config{Workers: newWorkerFarm(t, 2), Shards: 2}))
	defer coord.Close()
	for _, q := range []string{"?nocache=1", "?nocache=1&lenient=1"} {
		if code, body := postStatus(t, coord.URL+"/v1/analyze"+q, buf.Bytes()); code != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", q, code, bytes.TrimSpace(body))
		}
	}
}

// TestPartialRouteRejects locks the /v1/partial input contract.
func TestPartialRouteRejects(t *testing.T) {
	_, enc := genTrace(t, 2, 20)
	srv := httptest.NewServer(NewServer(Config{}))
	defer srv.Close()

	for _, tc := range []struct {
		name, url string
		want      int
	}{
		{"online", "/v1/partial?online=1", http.StatusBadRequest},
		{"bad shard", "/v1/partial?shard=2&shards=2", http.StatusBadRequest},
		{"ok", "/v1/partial?shard=0&shards=1", http.StatusOK},
		// The retired mode= and resume= are ignored like any unknown
		// parameter.
		{"retired params", "/v1/partial?shard=0&shards=1&mode=zigzag&resume=maybe", http.StatusOK},
	} {
		resp, err := http.Post(srv.URL+tc.url, "application/octet-stream", bytes.NewReader(enc))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}

	resp, err := http.Get(srv.URL + "/v1/partial")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET: status %d, want 405", resp.StatusCode)
	}
}

// TestClientBreakerSingleProbe is the half-open contract under
// concurrency: once the cooldown elapses, exactly one caller becomes the
// probe; callers racing it fail fast with ErrBreakerOpen rather than
// piling onto a worker that just spent a cooldown down, and a failed
// probe re-opens the breaker for a fresh cooldown.
func TestClientBreakerSingleProbe(t *testing.T) {
	rep := cannedReport(t)
	var reached atomic.Int64
	var healthy atomic.Bool
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reached.Add(1)
		if !healthy.Load() {
			http.Error(w, "down", http.StatusInternalServerError)
			return
		}
		<-release // hold the probe open so racers arrive mid-probe
		w.Write(rep)
	}))
	defer srv.Close()

	c, _ := newTestClient(t, srv.URL, ClientConfig{
		MaxAttempts:      1,
		BreakerThreshold: 2,
		BreakerCooldown:  30 * time.Millisecond,
	})

	// Trip the breaker.
	for i := 0; i < 2; i++ {
		if _, err := analyze(context.Background(), c, []byte("x"), nil); err == nil {
			t.Fatal("analyze succeeded against a dead server")
		}
	}
	if _, err := analyze(context.Background(), c, []byte("x"), nil); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("err = %v, want ErrBreakerOpen", err)
	}

	// Cooldown elapses with the server still down: the probe itself fails
	// and must re-open the breaker — the next call right after fails fast
	// without touching the server.
	time.Sleep(40 * time.Millisecond)
	if _, err := analyze(context.Background(), c, []byte("x"), nil); errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("probe was not admitted: %v", err)
	}
	before := reached.Load()
	if _, err := analyze(context.Background(), c, []byte("x"), nil); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("failed probe did not re-open the breaker: %v", err)
	}
	if reached.Load() != before {
		t.Error("re-opened breaker let a request through")
	}

	// Cooldown elapses with the server healthy but slow: one probe goes
	// through, concurrent callers all fail fast while it is in flight.
	healthy.Store(true)
	time.Sleep(40 * time.Millisecond)
	before = reached.Load()
	probeResult := make(chan error, 1)
	go func() {
		_, err := analyze(context.Background(), c, []byte("x"), nil)
		probeResult <- err
	}()
	waitFor(t, "the probe to reach the server", func() bool {
		return reached.Load() == before+1
	})

	const racers = 8
	var wg sync.WaitGroup
	errs := make([]error, racers)
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = analyze(context.Background(), c, []byte("x"), nil)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, ErrBreakerOpen) {
			t.Errorf("racer %d: err = %v, want ErrBreakerOpen", i, err)
		}
	}
	if reached.Load() != before+1 {
		t.Errorf("server saw %d requests during the probe, want exactly 1", reached.Load()-before)
	}

	close(release)
	if err := <-probeResult; err != nil {
		t.Fatalf("probe failed: %v", err)
	}
	// Breaker closed: calls flow normally again.
	if _, err := analyze(context.Background(), c, []byte("x"), nil); err != nil {
		t.Fatalf("call after recovery failed: %v", err)
	}
}
