package foldsvc

import (
	"bytes"
	"context"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
)

// postAnalyze uploads enc to the server and returns the status, the
// Cache-Status header and the body.
func postAnalyze(t *testing.T, base, query string, enc []byte) (int, string, []byte) {
	t.Helper()
	resp, err := http.Post(base+"/v1/analyze"+query, "application/octet-stream", bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Cache-Status"), body
}

// TestCacheEquivalence is the acceptance gate for the result cache:
// for every analysis path — strict and lenient on a single node, plus
// the coordinator-sharded path — the cached Report must be
// byte-identical to the freshly computed one (?nocache=1), and a
// repeat request must hit. `make check` runs this test explicitly.
func TestCacheEquivalence(t *testing.T) {
	_, enc := genTrace(t, 4, 40)
	srv := httptest.NewServer(NewServer(Config{Jobs: 16}))
	defer srv.Close()

	// Decode mode (lenient) is part of the key, so each mode misses
	// once. The *-columnar requests carry the columnar= knob old clients
	// may still send: it is an unknown parameter now, ignored, so they
	// HIT the entry the plain request stored.
	for _, tc := range []struct{ name, query, first string }{
		{"strict", "", "miss"},
		{"strict-columnar", "columnar=1", "hit"},
		{"lenient", "lenient=1", "miss"},
		{"lenient-columnar", "lenient=1&columnar=1", "hit"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, cs, fresh := postAnalyze(t, srv.URL, "?"+tc.query+"&nocache=1", enc)
			if code != http.StatusOK {
				t.Fatalf("nocache status %d: %s", code, fresh)
			}
			if cs != "" {
				t.Fatalf("nocache request got Cache-Status %q; want none", cs)
			}
			code, cs, miss := postAnalyze(t, srv.URL, "?"+tc.query, enc)
			if code != http.StatusOK || cs != tc.first {
				t.Fatalf("first cached request: status %d, Cache-Status %q; want %q", code, cs, tc.first)
			}
			code, cs, hit := postAnalyze(t, srv.URL, "?"+tc.query, enc)
			if code != http.StatusOK || cs != "hit" {
				t.Fatalf("second cached request: status %d, Cache-Status %q", code, cs)
			}
			if !bytes.Equal(miss, hit) {
				t.Fatal("hit body differs from first cached body")
			}
			// The fresh body differs only in the run-varying Pipeline
			// stage metrics; everything semantic must be deep-equal
			// (bit-identical floats survive the JSON round trip).
			if got, want := asGeneric(t, hit), asGeneric(t, fresh); !reflect.DeepEqual(got, want) {
				for k := range want {
					if !reflect.DeepEqual(got[k], want[k]) {
						t.Errorf("cached report field %s differs from fresh", k)
					}
				}
				t.Fatal("cached report differs from fresh analysis")
			}
		})
	}

	// The coordinator-sharded path shares the same key shape as the
	// single-node server (TestShardedEquivalence locks bit-identical
	// reports for any shard count) — verify its cached report against a
	// fresh single-node analysis.
	t.Run("sharded", func(t *testing.T) {
		workers := newWorkerFarm(t, 3)
		coord := httptest.NewServer(NewServer(Config{Workers: workers, Shards: 3, Jobs: 16}))
		defer coord.Close()

		_, _, fresh := postAnalyze(t, srv.URL, "?nocache=1", enc)
		code, cs, miss := postAnalyze(t, coord.URL, "", enc)
		if code != http.StatusOK || cs != "miss" {
			t.Fatalf("coordinated miss: status %d, Cache-Status %q", code, cs)
		}
		code, cs, hit := postAnalyze(t, coord.URL, "", enc)
		if code != http.StatusOK || cs != "hit" {
			t.Fatalf("coordinated hit: status %d, Cache-Status %q", code, cs)
		}
		if !bytes.Equal(miss, hit) {
			t.Fatal("coordinated hit body differs from miss body")
		}
		if got, want := asGeneric(t, hit), asGeneric(t, fresh); !reflect.DeepEqual(got, want) {
			t.Fatal("coordinated cached report differs from single-node fresh analysis")
		}
	})
}

// gatedBody streams all of enc except the last byte, then blocks until
// release is closed — so N concurrent uploads can be held mid-spool
// and released together, guaranteeing they all land on one in-flight
// computation.
type gatedBody struct {
	head    io.Reader
	tail    byte
	release <-chan struct{}
	done    bool
}

func (g *gatedBody) Read(p []byte) (int, error) {
	if n, err := g.head.Read(p); n > 0 || err != io.EOF {
		return n, err
	}
	if g.done {
		return 0, io.EOF
	}
	<-g.release
	g.done = true
	p[0] = g.tail
	return 1, nil
}

// TestCacheSingleflight is the coalescing acceptance test: 16
// goroutines upload the same trace concurrently, exactly one pipeline
// run happens (stage metrics), every response is byte-identical, and
// foldsvc_cache_coalesced_total ends at N-1. Run under -race by
// `make check`.
func TestCacheSingleflight(t *testing.T) {
	_, enc := genTrace(t, 4, 60)
	const n = 16
	// The leader's analysis waits at its "analysis done" record until
	// the other n-1 requests have joined its flight (for at most 10 s),
	// so a follower the scheduler runs late cannot find the stored
	// report and read a hit.
	var joined *obs.Counter
	s := NewServer(Config{Jobs: 32, Logger: slog.New(holdHandler{"analysis done", func() bool {
		return joined.Value() == n-1
	}})})
	joined = s.reg.Counter("foldsvc_cache_coalesced_total", "")
	srv := httptest.NewServer(s)
	defer srv.Close()

	release := make(chan struct{})
	type result struct {
		code   int
		status string
		body   []byte
	}
	results := make([]result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := &gatedBody{
				head:    bytes.NewReader(enc[:len(enc)-1]),
				tail:    enc[len(enc)-1],
				release: release,
			}
			req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/analyze", body)
			if err != nil {
				t.Error(err)
				return
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			data, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = result{resp.StatusCode, resp.Header.Get("Cache-Status"), data}
		}(i)
	}

	// Hold the gate until all 16 uploads are in flight (spooling their
	// bodies), then let them finish together: the followers reach the
	// cache within microseconds of the leader, far inside the leader's
	// pipeline run.
	waitFor(t, "all uploads in flight", func() bool {
		return metricValue(t, srv.URL, "foldsvc_inflight_jobs") == n
	})
	close(release)
	wg.Wait()

	var miss, coalesced int
	for i, r := range results {
		if r.code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, r.code, r.body)
		}
		if !bytes.Equal(r.body, results[0].body) {
			t.Fatalf("request %d body differs", i)
		}
		switch r.status {
		case "miss":
			miss++
		case "coalesced":
			coalesced++
		default:
			t.Fatalf("request %d: Cache-Status %q", i, r.status)
		}
	}
	if miss != 1 || coalesced != n-1 {
		t.Fatalf("%d misses, %d coalesced; want 1 and %d", miss, coalesced, n-1)
	}
	if got := metricValue(t, srv.URL, "foldsvc_analyze_requests_total"); got != 1 {
		t.Fatalf("foldsvc_analyze_requests_total = %g; want exactly one pipeline run", got)
	}
	if got := metricValue(t, srv.URL, `foldsvc_cache_coalesced_total`); got != n-1 {
		t.Fatalf("foldsvc_cache_coalesced_total = %g; want %d", got, n-1)
	}
	if got := metricValue(t, srv.URL, `foldsvc_cache_misses_total`); got != 1 {
		t.Fatalf("foldsvc_cache_misses_total = %g; want 1", got)
	}
}

// holdHandler is a log handler that holds each record with message msg
// until until reports true or 10 s pass, and drops every record.
type holdHandler struct {
	msg   string
	until func() bool
}

func (h holdHandler) Enabled(context.Context, slog.Level) bool { return true }

func (h holdHandler) Handle(_ context.Context, r slog.Record) error {
	for deadline := time.Now().Add(10 * time.Second); r.Message == h.msg && !h.until() && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	return nil
}

func (h holdHandler) WithAttrs([]slog.Attr) slog.Handler { return h }

func (h holdHandler) WithGroup(string) slog.Handler { return h }

// TestCachePartialWorker covers the worker-side shard cache: a
// /v1/partial request that declares its content digest is cached (the
// repeat answers without re-running the map), and a request whose body
// does not match the declared digest is served but never stored.
func TestCachePartialWorker(t *testing.T) {
	_, enc := genTrace(t, 2, 30)
	srv := httptest.NewServer(NewServer(Config{Jobs: 4}))
	defer srv.Close()

	digest := trace.DigestBytes(enc)
	query := "?shard=0&shards=1&digest=" + digest

	post := func(q string) (int, string, []byte) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/partial"+q, "application/octet-stream", bytes.NewReader(enc))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, resp.Header.Get("Cache-Status"), body
	}

	code, cs, miss := post(query)
	if code != http.StatusOK || cs != "miss" {
		t.Fatalf("first partial: status %d, Cache-Status %q: %s", code, cs, miss)
	}
	code, cs, hit := post(query)
	if code != http.StatusOK || cs != "hit" {
		t.Fatalf("second partial: status %d, Cache-Status %q", code, cs)
	}
	if !bytes.Equal(miss, hit) {
		t.Fatal("cached partial differs from computed partial")
	}
	if got := metricValue(t, srv.URL, "foldsvc_partials_total"); got != 1 {
		t.Fatalf("foldsvc_partials_total = %g; want 1 (hit must not re-map)", got)
	}

	// A mislabeled upload: the declared digest does not match the body.
	// The partial is still computed and served, but poisoning the key is
	// refused — the same declaration misses again and re-maps.
	wrong := "?shard=0&shards=1&digest=" + trace.DigestBytes([]byte("not the shard"))
	if code, cs, _ := post(wrong); code != http.StatusOK || cs != "miss" {
		t.Fatalf("mismatched digest: status %d, Cache-Status %q", code, cs)
	}
	if code, cs, _ := post(wrong); code != http.StatusOK || cs != "miss" {
		t.Fatalf("mismatched digest repeat: status %d, Cache-Status %q (entry was stored)", code, cs)
	}
	if got := metricValue(t, srv.URL, "foldsvc_partials_total"); got != 3 {
		t.Fatalf("foldsvc_partials_total = %g; want 3", got)
	}

	// Without a declared digest the cache is bypassed entirely.
	if code, cs, _ := post("?shard=0&shards=1"); code != http.StatusOK || cs != "" {
		t.Fatalf("undeclared digest: status %d, Cache-Status %q; want no header", code, cs)
	}
}

// TestCacheDiskTier proves warm state survives a restart: a second
// server instance sharing the same -cache-dir serves a hit for a trace
// only the first instance analyzed.
func TestCacheDiskTier(t *testing.T) {
	_, enc := genTrace(t, 2, 30)
	dir := t.TempDir()

	first := httptest.NewServer(NewServer(Config{Jobs: 4, CacheDir: dir}))
	code, cs, miss := postAnalyze(t, first.URL, "", enc)
	first.Close()
	if code != http.StatusOK || cs != "miss" {
		t.Fatalf("first instance: status %d, Cache-Status %q", code, cs)
	}

	second := httptest.NewServer(NewServer(Config{Jobs: 4, CacheDir: dir}))
	defer second.Close()
	code, cs, hit := postAnalyze(t, second.URL, "", enc)
	if code != http.StatusOK || cs != "hit" {
		t.Fatalf("second instance: status %d, Cache-Status %q", code, cs)
	}
	if !bytes.Equal(miss, hit) {
		t.Fatal("disk-tier hit differs from original response")
	}
	if got := metricValue(t, second.URL, `foldsvc_cache_hits_total{tier="disk"}`); got != 1 {
		t.Fatalf(`foldsvc_cache_hits_total{tier="disk"} = %g; want 1`, got)
	}
	if got := metricValue(t, second.URL, "foldsvc_analyze_requests_total"); got != 0 {
		t.Fatalf("second instance ran %g analyses; want 0", got)
	}
}

// TestCacheNocacheBypass: ?nocache=1 requests never read or write the
// cache — every one runs the pipeline and none carries a Cache-Status
// header.
func TestCacheNocacheBypass(t *testing.T) {
	_, enc := genTrace(t, 2, 30)
	srv := httptest.NewServer(NewServer(Config{Jobs: 4}))
	defer srv.Close()

	for i := 0; i < 2; i++ {
		code, cs, body := postAnalyze(t, srv.URL, "?nocache=1", enc)
		if code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, code, body)
		}
		if cs != "" {
			t.Fatalf("request %d: Cache-Status %q; want none", i, cs)
		}
	}
	if got := metricValue(t, srv.URL, "foldsvc_analyze_requests_total"); got != 2 {
		t.Fatalf("foldsvc_analyze_requests_total = %g; want 2 (no caching)", got)
	}
	if got := metricValue(t, srv.URL, "foldsvc_cache_misses_total"); got != 0 {
		t.Fatalf("foldsvc_cache_misses_total = %g; want 0", got)
	}
}

// TestCacheDisabled: a negative CacheMaxBytes turns the cache off
// entirely — requests behave exactly as before the cache existed.
func TestCacheDisabled(t *testing.T) {
	_, enc := genTrace(t, 2, 30)
	srv := httptest.NewServer(NewServer(Config{Jobs: 4, CacheMaxBytes: -1}))
	defer srv.Close()

	for i := 0; i < 2; i++ {
		code, cs, body := postAnalyze(t, srv.URL, "", enc)
		if code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, code, body)
		}
		if cs != "" {
			t.Fatalf("request %d: Cache-Status %q; want none", i, cs)
		}
	}
	if got := metricValue(t, srv.URL, "foldsvc_analyze_requests_total"); got != 2 {
		t.Fatalf("foldsvc_analyze_requests_total = %g; want 2", got)
	}
}

// TestCacheEveryDaemon drives the one cached path on a single daemon
// and on a coordinator with 3 in-process workers, one row per route:
// /v1/analyze and a /v1/diff upload side each miss, then hit;
// /v1/analyze echoes the upload's digest in Trace-Digest; ?nocache=1
// sends no Cache-Status on /v1/analyze and "bypass" on the diff side;
// and every answer carries the same report. A coordinator's diff side
// fans out to the workers, and a client that abandons its upload
// mid-body gets 499, counted as cancelled, on either daemon.
func TestCacheEveryDaemon(t *testing.T) {
	_, enc := genTrace(t, 4, 40)
	encB := genPerturbedTrace(t, 4, 40, 2)
	digest := trace.DigestBytes(enc)
	const shards = 3

	// reports holds each daemon's reports of enc and encB, as asGeneric
	// decodes them.
	reports := map[string]*[2]map[string]any{}
	for _, daemon := range []string{"single", "coordinator"} {
		cfg := Config{Jobs: 16}
		if daemon == "coordinator" {
			cfg.Workers, cfg.Shards = newWorkerFarm(t, shards), shards
		}
		srv := httptest.NewServer(NewServer(cfg))
		defer srv.Close()
		reports[daemon] = new([2]map[string]any)
		analyze := func(t *testing.T, query string, enc []byte) (http.Header, []byte) {
			t.Helper()
			resp, err := http.Post(srv.URL+"/v1/analyze"+query, "application/octet-stream", bytes.NewReader(enc))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("analyze%s: status %d: %s", query, resp.StatusCode, body)
			}
			return resp.Header, body
		}

		t.Run(daemon+"/analyze", func(t *testing.T) {
			var first []byte
			for _, want := range []string{"miss", "hit"} {
				h, body := analyze(t, "", enc)
				if cs, td := h.Get("Cache-Status"), h.Get("Trace-Digest"); cs != want || td != digest {
					t.Errorf("Cache-Status %q, Trace-Digest %q; want %q and %s", cs, td, want, digest)
				}
				if first == nil {
					first = body
				} else if !bytes.Equal(body, first) {
					t.Error("hit body differs from the miss body")
				}
			}
			h, fresh := analyze(t, "?nocache=1", enc)
			if cs, td := h.Get("Cache-Status"), h.Get("Trace-Digest"); cs != "" || td != "" {
				t.Errorf("?nocache=1: Cache-Status %q, Trace-Digest %q; want neither", cs, td)
			}
			if !reflect.DeepEqual(asGeneric(t, fresh), asGeneric(t, first)) {
				t.Error("?nocache=1 report differs from the cached one")
			}
			reports[daemon][0] = asGeneric(t, first)
		})

		// Side a uploads encB; side b refers to enc's report, which the
		// analyze row stored.
		t.Run(daemon+"/diff", func(t *testing.T) {
			for _, step := range []struct {
				query, status string
				fanned        float64
			}{
				{"", "miss", shards},
				{"", "hit", 0},
				{"&nocache=1", "bypass", shards},
			} {
				series := `foldsvc_shards_total{outcome="ok"}`
				before := metricValue(t, srv.URL, series)
				body, ctype := multipartDiffBody(t, encB, nil)
				code, cs, out := postDiff(t, srv.URL, "?digest_b="+digest+step.query, body, ctype)
				if code != http.StatusOK || cs[0] != step.status || cs[1] != "hit" {
					t.Fatalf("diff%s: status %d, Cache-Status A=%q B=%q; want 200 %s/hit: %s",
						step.query, code, cs[0], cs[1], step.status, out)
				}
				if got := metricValue(t, srv.URL, series) - before; daemon == "coordinator" && got != step.fanned {
					t.Errorf("diff%s: %g shards fanned out, want %g", step.query, got, step.fanned)
				}
			}
			// The diff stored side a's report under /v1/analyze's key.
			h, side := analyze(t, "", encB)
			if cs := h.Get("Cache-Status"); cs != "hit" {
				t.Errorf("analyze after the diff: Cache-Status %q, want hit", cs)
			}
			reports[daemon][1] = asGeneric(t, side)
		})

		t.Run(daemon+"/abandoned", func(t *testing.T) {
			requests := func(code string) float64 {
				return metricValue(t, srv.URL, `foldsvc_requests_total{path="/v1/analyze",code="`+code+`"}`)
			}
			cancelled, served := metricValue(t, srv.URL, "foldsvc_cancelled_total"), requests("200")
			pr, pw := io.Pipe()
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan struct{})
			go func() {
				defer close(done)
				req, _ := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/v1/analyze", pr)
				if resp, err := http.DefaultClient.Do(req); err == nil {
					resp.Body.Close()
				}
			}()
			if _, err := pw.Write(enc[:len(enc)/2]); err != nil {
				t.Fatal(err)
			}
			waitFor(t, "the upload to take a job slot", func() bool {
				return metricValue(t, srv.URL, "foldsvc_inflight_jobs") == 1
			})
			cancel()
			pw.CloseWithError(errors.New("client abandoned upload"))
			<-done
			waitFor(t, "the abandoned upload's answer", func() bool {
				return requests("499")+requests("500") > 0
			})
			if got, errs := requests("499"), requests("500"); got != 1 || errs != 0 {
				t.Errorf("%g answered 499 and %g 500; want 1 and 0", got, errs)
			}
			if got := metricValue(t, srv.URL, "foldsvc_cancelled_total") - cancelled; got != 1 {
				t.Errorf("foldsvc_cancelled_total rose by %g, want 1", got)
			}
			if got := requests("200"); got != served {
				t.Errorf("%g more answered 200", got-served)
			}
		})
	}
	for i, name := range []string{"uploaded", "diff side"} {
		single, coord := reports["single"][i], reports["coordinator"][i]
		if single != nil && coord != nil && !reflect.DeepEqual(coord, single) {
			t.Errorf("the coordinator's %s report differs from the single daemon's", name)
		}
	}
}
